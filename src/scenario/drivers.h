// Scenario-level algorithm drivers: one registry from ScenarioAlgorithm to
// the AlgorithmDriver (runtime/runtime.h) that executes a trial of it on
// any runtime — the simulator or a wall-clock substrate.
//
// A ScenarioSpec describes a trial's environment and scenario_runtime_config
// turns it into the RuntimeConfig every runtime and driver reads; there is
// no second description of it. Each registered binding contributes:
//   * the driver — node factory + done-predicate + settle/drain + result
//     extraction. The driver factories live next to their algorithms
//     (core/harness.h, algo/polling_election.h, algo/gossip.h,
//     syncr/beta.h), take only the algorithm's own parameters, and read the
//     environment (graph, loss, …) from the RuntimeConfig in configure();
//   * the projection — folds the algorithm-specific sink result into the
//     uniform ScenarioTrialResult the sweep aggregates (what "completed"
//     means is per-algorithm: a polling election that elected but could
//     not finish its broadcast under loss is a failed trial, e.g.).
//
// run_scenario_trial is the only entry the sweep driver needs. A caller
// that wants a driver's own result struct (activations, purges, rounds, …)
// builds the config with scenario_runtime_config, adjusts what the spec
// does not carry (ordering, an explicit delay model, trace), and calls
// run_algorithm_trial with the driver directly.
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
// trial seed and graph plan (failure-degrade wrapping applied to the delay
// model, channel loss extracted, thread realisation knobs forwarded).
// run_scenario_trial passes trial_plan(spec.topology, seed).
RuntimeConfig scenario_runtime_config(const ScenarioSpec& spec,
                                      std::shared_ptr<const NetworkPlan> plan,
                                      std::uint64_t seed);
// The same for a caller-built topology, wrapped with make_plan.
RuntimeConfig scenario_runtime_config(const ScenarioSpec& spec,
                                      Topology topology, std::uint64_t seed);

}  // namespace abe
