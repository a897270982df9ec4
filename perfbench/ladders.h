// Layer ladder rows: each row drives one layer's public API alone, at the
// shape of a workload (pending-set size, delay model, n), and reports its
// cost in ns per operation. The null-node rows do not reproduce a trial's
// event pattern, so they are not subtracted from a workload's ns/event.
#pragma once

#include <cstddef>
#include <string>

#include "net/topology.h"
#include "scenario/scenario.h"

namespace perfbench {

struct LadderShape {
  abe::TopologySpec topology;  // null-node rows run on this graph
  std::size_t pending = 1;     // pending-set size of the queue rows
  std::string delay_name;      // delay model of every row (mean 1)
  bool causal_history = false; // flight-ring width of the network rows
};

struct LadderResults {
  double sched_dispatch_ns = 0.0;  // Scheduler + one-schedule InlineAction
  double hold_heap_ns = 0.0;       // raw EventQueue pop+push, per backend
  double hold_calendar_ns = 0.0;
  double hold_ladder_ns = 0.0;
  double net_tick_ns = 0.0;     // Network, no-op nodes, ticks on
  double net_message_ns = 0.0;  // Network, null echo nodes, ticks off
  double delay_sample_ns = 0.0; // DelayModel::sample
};

// Each row runs for about `row_seconds` after a warm-up.
LadderResults run_ladders(const LadderShape& shape, double row_seconds);

}  // namespace perfbench
