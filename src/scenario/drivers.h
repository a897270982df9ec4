// Scenario-level algorithm drivers: one registry from ScenarioAlgorithm to
// the AlgorithmDriver (runtime/runtime.h) that executes a trial of it on
// EITHER runtime — the simulator or the real-thread substrate.
//
// Each registered binding contributes:
//   * the driver — node factory + done-predicate + settle/drain + result
//     extraction, built from the spec and the trial's materialised
//     topology (the driver factories live next to their algorithms:
//     core/harness.h, algo/polling_election.h, algo/gossip.h,
//     syncr/beta.h);
//   * the projection — folds the algorithm-specific sink result into the
//     uniform ScenarioTrialResult the sweep aggregates (what "completed"
//     means is per-algorithm: a polling election that elected but could
//     not finish its broadcast under loss is a failed trial, e.g.).
//
// run_scenario_trial is the only entry the sweep driver needs; it makes the
// same simulator calls the pre-Runtime per-algorithm runners made, so
// seeded simulator aggregates are bit-identical across the redesign.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "runtime/runtime.h"
#include "scenario/scenario.h"

namespace abe {

// One trial's driver binding (see file comment). `driver` runs the trial;
// `project` converts the outcome after run_algorithm_trial returns.
struct ScenarioTrialDriver {
  std::unique_ptr<AlgorithmDriver> driver;
  std::function<TrialOutcome(const TrialOutcome&)> project;
};

// Builds the binding for one trial of `spec` on the already-materialised
// `topology`. Aborts on structurally unsupported (algorithm, topology)
// pairs — expand() and the CLI filter those earlier. Non-honest behavior
// profiles wrap the afflicted nodes in FaultyNode decorators; `seed` feeds
// the crash-random profile's per-node crash-time draws (a substream, so
// honest randomness is untouched).
ScenarioTrialDriver make_scenario_driver(const ScenarioSpec& spec,
                                         const Topology& topology,
                                         std::uint64_t seed);

// Re-runs one trial of `spec` on the DETERMINISTIC simulator with
// full-detail trace recording enabled and copies the flight recorder to
// *trace_out — how a safety-violation seed captured in a sweep JSON is
// replayed and inspected. The structured Trace renders to text
// (Trace::to_string), Chrome trace JSON, or JSONL (trace/trace_export.h).
// Aborts when the spec's runtime is not the simulator (thread trials are
// wall-clock nondeterministic; their seeds are not replayable by
// construction).
TrialOutcome replay_scenario_trial(const ScenarioSpec& spec,
                                   std::uint64_t seed, Trace* trace_out);

// The spec's environment as a runtime-agnostic RuntimeConfig for the given
// trial seed (failure-degrade wrapping applied to the delay model, channel
// loss extracted, thread realisation knobs forwarded). Takes the topology by
// value: pass an rvalue to move the trial graph in without a copy.
RuntimeConfig scenario_runtime_config(const ScenarioSpec& spec,
                                      Topology topology, std::uint64_t seed);

}  // namespace abe
