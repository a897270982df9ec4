// Happens-before reconstruction and critical-path profiling.
//
// Every TraceEvent may carry the id of the event that caused it (trace.h):
// the SEND behind a DELIVER, the handler behind a SEND, the schedule site
// behind a TIMER/TICK fire. Those links form the trial's happens-before DAG,
// and the chain that ends at the DECISION event — the delivery or tick on
// which the algorithm decided (election won, consensus reached) — is the
// measured counterpart of the ABE paper's analysis: time complexity there is
// derived from chains of dependent deliveries, each bounded in EXPECTED
// delay. extract_critical_path() walks that chain backwards and attributes
// its sim-time extent to four exhaustive, non-overlapping components:
//
//   waiting       — activation gaps (tick/timer lead-in, including the
//                   root's distance from t = 0)
//   channel delay — the sampled transit time of each DELIVER hop
//   processing    — Definition 1(3) handling time of each DELIVER hop
//   queueing      — the rest of each DELIVER gap (FIFO floors, busy nodes)
//
// The four sum EXACTLY to the decision time on the simulator (pure
// telescoping of the chain's gaps; no new float error sources), which is the
// invariant tests/test_causal.cpp pins. Chains that left the flight
// recorder's 256-event ring before reaching a root are flagged `truncated` —
// RuntimeConfig::causal_history widens the ring (without enabling detail
// strings) when complete chains are wanted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"
#include "stats/summary.h"
#include "trace/trace.h"
#include "util/ids.h"

namespace abe {

// One event on the reconstructed chain, root first.
struct CriticalPathHop {
  std::int64_t id = -1;
  TraceKind kind = TraceKind::kCustom;
  NodeId node;
  std::int64_t arg = -1;  // edge index for SEND/DELIVER, tag/tick otherwise
  SimTime time = 0.0;
  double gap = 0.0;    // time since the previous hop (root: since t = 0)
  double delay = 0.0;  // channel share of the gap (DELIVER hops)
  double work = 0.0;   // processing share of the gap (DELIVER hops)
  double queue = 0.0;  // gap - delay - work on DELIVER hops
  double wait = 0.0;   // the whole gap on non-DELIVER hops
};

// Per-channel share of one chain (and, summed, of a whole cell).
struct EdgeShare {
  std::int64_t edge = -1;
  std::uint64_t hops = 0;
  double delay = 0.0;
};

// The decision-terminated causal chain of one trial.
struct CriticalPath {
  bool found = false;
  bool truncated = false;  // walk left the retained ring before a root
  std::uint64_t hops = 0;  // DELIVER links (message hops) with a known gap
  SimTime span = 0.0;      // decision time, or the chain's extent if truncated
  double channel_delay = 0.0;
  double processing = 0.0;
  double queueing = 0.0;
  double waiting = 0.0;
  std::vector<CriticalPathHop> chain;  // root first, decision event last

  // Per-edge shares of this chain, ascending by edge id; each edge's
  // delays are summed in chain order.
  std::vector<EdgeShare> edge_shares() const;
  // Human-readable chain dump (one hop per line) for the CLI.
  std::string render() const;
};

// Reconstructs the chain ending at the decision event: the last DELIVER or
// TIMER event recorded at `decision_node` no later than `decision_time`
// (decisions fire inside message/timer handlers; a TICK anchors only when no
// such handler exists, so background ticks popping between the deciding
// DELIVER and a wall-clock decision_time read cannot hijack the anchor).
// Returns found = false when the decision event itself has already been
// evicted. Two overloads share one body and return identical paths:
//   * the Trace overload indexes the ring in place (Trace::at) and copies
//     nothing but the chain — what run_algorithm_trial calls on its
//     pre-settle snapshot;
//   * the vector overload takes a linearization (oldest first, dense ids),
//     e.g. trace.events() or a hand-built event list.
CriticalPath extract_critical_path(const std::vector<TraceEvent>& events,
                                   NodeId decision_node, SimTime decision_time);
CriticalPath extract_critical_path(const Trace& trace, NodeId decision_node,
                                   SimTime decision_time);

// POD per-trial roll-up carried on TrialOutcome into the sweep.
struct CriticalPathStats {
  bool found = false;
  bool truncated = false;
  std::uint64_t hops = 0;
  double span = 0.0;
  double channel_delay = 0.0;
  double processing = 0.0;
  double queueing = 0.0;
  double waiting = 0.0;
  std::vector<EdgeShare> edges;  // ascending by edge id

  static CriticalPathStats from_path(const CriticalPath& path);
};

// Order-commutative per-cell aggregate, merged through the trial pool's
// fixed-chunk scheme exactly like MetricsSnapshot: counts and edge shares
// sum, Summaries combine in seed order, the worst trial is the max by
// (span, then smaller seed) — all independent of thread count.
struct CriticalPathAggregate {
  std::uint64_t considered = 0;  // decided trials that looked for a path
  std::uint64_t found = 0;
  std::uint64_t truncated = 0;
  Summary hops;
  Summary span;
  Summary channel_delay;
  Summary processing;
  Summary queueing;
  Summary waiting;
  // Summed share per edge, ascending by edge id: one flat array, so adding a
  // trial allocates only when it brings edges not seen before.
  std::vector<EdgeShare> channels;
  bool has_worst = false;
  double worst_span = 0.0;
  std::uint64_t worst_seed = 0;

  void add(const CriticalPathStats& stats, std::uint64_t seed);
  void merge(const CriticalPathAggregate& other);

  // Heaviest channels by summed delay (ties: smaller edge id first).
  std::vector<EdgeShare> top_channels(std::size_t k) const;
};

}  // namespace abe
