// The ring election as an AlgorithmDriver (runtime/runtime.h).
//
// The driver runs the paper's election on whatever unidirectional ring its
// RuntimeConfig carries, on any runtime, verifies the safety
// postconditions (exactly one leader, everyone else passive, no in-flight
// messages) and writes the measurements into an ElectionRunResult. The
// environment — ring size, delay model, clocks, loss, seed, deadline —
// comes from the RuntimeConfig alone; scenario_runtime_config
// (scenario/drivers.h) builds one from a ScenarioSpec.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/election.h"
#include "runtime/runtime.h"

namespace abe {

struct ElectionRunResult {
  bool elected = false;
  // Refinement of !elected: the run went quiescent with no leader AND no
  // way to make progress (no message in flight, no idle node left to
  // activate) — the ring's rare all-passive deadlock under loss — rather
  // than still working when the deadline hit.
  bool stalled = false;
  std::size_t leader_index = 0;
  SimTime election_time = 0.0;     // real time at which the leader appeared
  std::uint64_t messages = 0;      // messages sent up to the election moment
  std::uint64_t messages_total = 0;  // including the settle window
  std::uint64_t ticks = 0;         // on_tick calls up to the election
  std::uint64_t activations = 0;   // activations summed over nodes
  std::uint64_t purges = 0;        // knockout purges summed over nodes
  std::uint64_t max_leaders_ever = 0;  // safety: must never exceed 1
  bool safety_ok = false;          // postcondition bundle (see .cpp)
  std::string safety_detail;       // human-readable failure reason
};

// The ring election driver: node factory (ElectionNode per slot, shared
// `options` + leader observer), done-predicate (a leader exists), a settle
// window of `settle_time` after the election that confirms stability (no
// second leader appears, the network goes quiet), and extraction of the
// full ElectionRunResult into `*sink`. configure() turns ticks on.
//
// `adversarial` is set when behavior profiles or an adversarial delay
// policy are injected (src/adversary/). It relaxes the HONEST-RING
// postconditions (exactly n-1 passives, zero in-flight at quiescence —
// crashed nodes are never knocked out, equivocated tokens may still
// circulate) while keeping the safety property probed under attack:
// exactly one leader, and never two leaders ever. Lossy configs
// (RuntimeConfig::loss_probability > 0) drop the in-flight check too.
// One driver instance per trial.
std::unique_ptr<AlgorithmDriver> make_ring_election_driver(
    const ElectionOptions& options, SimTime settle_time, bool adversarial,
    ElectionRunResult* sink);

}  // namespace abe
