#include "scenario/drivers.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "adversary/delay_policy.h"
#include "adversary/faulty_node.h"
#include "adversary/unsafe_toy.h"
#include "algo/gossip.h"
#include "algo/polling_election.h"
#include "core/election.h"
#include "core/harness.h"
#include "scenario/sweep.h"
#include "syncr/apps.h"
#include "syncr/beta.h"
#include "util/check.h"

namespace abe {

namespace {

DelayModelPtr build_delay(const ScenarioSpec& spec) {
  return spec.failure.apply(
      make_delay_model(spec.delay_name, spec.mean_delay));
}

bool spec_is_adversarial(const ScenarioSpec& spec) {
  return !spec.behavior.is_honest() || !spec.adversary.empty();
}

ScenarioTrialDriver make_ring_binding(const ScenarioSpec& spec) {
  ElectionOptions options;
  options.a0 = spec.a0 > 0.0 ? spec.a0 : linear_regime_a0(spec.topology.n);
  const bool adversarial = spec_is_adversarial(spec);
  // Equivocated tokens legally violate the honest ring's hop/d invariants;
  // drop them instead of aborting, and relax the honest-environment
  // postconditions (core/harness.h) so the probe measures leader
  // uniqueness, not decoration side effects.
  options.tolerate_protocol_violation = adversarial;

  auto sink = std::make_shared<ElectionRunResult>();
  ScenarioTrialDriver binding;
  binding.driver = make_ring_election_driver(options, spec.settle_time,
                                             adversarial, sink.get());
  // The ring driver's outcome already IS its scenario semantics (completed
  // == elected); the sink capture keeps the result the driver writes into
  // alive for the driver's lifetime.
  binding.project = [sink](TrialOutcome outcome) { return outcome; };
  return binding;
}

ScenarioTrialDriver make_unsafe_toy_binding() {
  ScenarioTrialDriver binding;
  binding.driver = make_unsafe_toy_driver();
  binding.project = [](TrialOutcome outcome) { return outcome; };
  return binding;
}

// Decorates another driver's nodes with FaultyNode wrappers per the
// behavior spec; everything else delegates. The decoration is runtime-
// agnostic — FaultyNode is just another Node, so the thread runtime gives
// it a thread like any other.
class BehaviorDecoratedDriver final : public AlgorithmDriver {
 public:
  BehaviorDecoratedDriver(std::unique_ptr<AlgorithmDriver> inner,
                          BehaviorSpec behavior, std::size_t n,
                          std::uint64_t seed, SimTime deadline)
      : inner_(std::move(inner)), behavior_(behavior), n_(n), seed_(seed),
        deadline_(deadline) {
    ABE_CHECK(inner_ != nullptr);
  }

  void configure(RuntimeConfig& config) override { inner_->configure(config); }

  NodePtr make_node(std::size_t index) override {
    double crash_time = behavior_.param;
    if (behavior_.profile == BehaviorProfile::kCrashRandom &&
        behavior_.afflicts(index, n_)) {
      // Deterministic per (seed, index); a substream so the honest
      // randomness (topology, channels, clocks) is untouched. Early in the
      // run (first quarter of the deadline) — a crash the trial never
      // reaches measures nothing.
      crash_time = Rng(seed_)
                       .substream("adversary-crash", index)
                       .uniform(0.0, deadline_ / 4.0);
    }
    return maybe_wrap_faulty(inner_->make_node(index), behavior_, index, n_,
                             crash_time);
  }

  bool done(const Runtime& rt) override { return inner_->done(rt); }
  void on_complete(Runtime& rt) override { inner_->on_complete(rt); }
  void settle(Runtime& rt, bool completed) override {
    inner_->settle(rt, completed);
  }
  TrialOutcome extract(Runtime& rt, bool completed) override {
    return inner_->extract(rt, completed);
  }

 private:
  std::unique_ptr<AlgorithmDriver> inner_;
  const BehaviorSpec behavior_;
  const std::size_t n_;
  const std::uint64_t seed_;
  const SimTime deadline_;
};

ScenarioTrialDriver make_polling_binding() {
  auto sink = std::make_shared<PollingRunResult>();
  ScenarioTrialDriver binding;
  binding.driver = make_polling_driver(/*id_bits=*/64, sink.get());
  binding.project = [sink](TrialOutcome out) {
    // Election alone is not completion: under loss a stranded RESULT
    // leaves the poll unfinished, and that counts as the injected failure.
    out.completed = sink->elected && sink->terminated;
    out.time = sink->election_time;
    out.messages = sink->messages;
    return out;
  };
  return binding;
}

ScenarioTrialDriver make_gossip_binding() {
  auto sink = std::make_shared<GossipResult>();
  ScenarioTrialDriver binding;
  binding.driver = make_gossip_driver(/*source=*/0, sink.get());
  // Gossip's driver outcome already IS its scenario semantics: completion
  // and safety are both total dissemination, time is the spread time.
  binding.project = [sink](TrialOutcome outcome) { return outcome; };
  return binding;
}

ScenarioTrialDriver make_beta_sync_binding(const Topology& topology) {
  // Max consensus with values 0…n−1 converges once the maximum's wavefront
  // crosses the graph: diameter-many β rounds suffice (≥ 1 for n = 1).
  const std::uint64_t rounds =
      std::max<std::size_t>(diameter(topology), 1);
  std::vector<std::int64_t> values(topology.n);
  for (std::size_t i = 0; i < topology.n; ++i) {
    values[i] = static_cast<std::int64_t>(i);
  }

  auto sink = std::make_shared<SynchronizerResult>();
  const std::size_t n = topology.n;

  ScenarioTrialDriver binding;
  binding.driver =
      make_beta_sync_driver(max_app_factory(std::move(values)), rounds,
                            sink.get());
  binding.project = [sink, rounds, n](TrialOutcome out) {
    // The driver's outcome already carries completion, time and messages;
    // the cell adds the app's postcondition as its safety verdict.
    if (!out.completed) return out;
    const auto target = static_cast<std::int64_t>(n - 1);
    std::size_t converged = 0;
    for (std::int64_t output : sink->outputs) {
      if (output == target) ++converged;
    }
    out.safety_ok = converged == n;
    if (!out.safety_ok) {
      std::ostringstream detail;
      detail << "only " << converged << " of " << n
             << " nodes reached the global maximum after " << rounds
             << " rounds";
      out.safety_detail = detail.str();
    }
    return out;
  };
  return binding;
}

}  // namespace

ScenarioTrialDriver make_scenario_driver(const ScenarioSpec& spec,
                                         const Topology& topology,
                                         std::uint64_t seed) {
  ABE_CHECK(scenario_algorithm_supports(spec.algorithm, spec.topology.family))
      << scenario_algorithm_name(spec.algorithm) << " cannot run on "
      << topology_family_name(spec.topology.family);
  const std::string behavior_problem = behavior_cell_problem(spec);
  ABE_CHECK(behavior_problem.empty())
      << spec.cell_id() << ": " << behavior_problem;
  ScenarioTrialDriver binding;
  switch (spec.algorithm) {
    case ScenarioAlgorithm::kRingElection:
      binding = make_ring_binding(spec);
      break;
    case ScenarioAlgorithm::kPollingElection:
      binding = make_polling_binding();
      break;
    case ScenarioAlgorithm::kGossip:
      binding = make_gossip_binding();
      break;
    case ScenarioAlgorithm::kBetaSync:
      binding = make_beta_sync_binding(topology);
      break;
    case ScenarioAlgorithm::kUnsafeToy:
      binding = make_unsafe_toy_binding();
      break;
  }
  ABE_CHECK(binding.driver != nullptr) << "unhandled algorithm";
  if (!spec.behavior.is_honest()) {
    binding.driver = std::make_unique<BehaviorDecoratedDriver>(
        std::move(binding.driver), spec.behavior, spec.topology.n, seed,
        spec.deadline);
  }
  return binding;
}

RuntimeConfig scenario_runtime_config(const ScenarioSpec& spec,
                                      Topology topology, std::uint64_t seed) {
  return scenario_runtime_config(spec, make_plan(std::move(topology)), seed);
}

RuntimeConfig scenario_runtime_config(const ScenarioSpec& spec,
                                      std::shared_ptr<const NetworkPlan> plan,
                                      std::uint64_t seed) {
  RuntimeConfig config;
  config.plan = std::move(plan);
  config.delay = build_delay(spec);
  config.clock_bounds = spec.clock_bounds;
  config.drift = spec.drift;
  config.processing = spec.processing;
  config.loss_probability = spec.failure.channel_loss();
  config.seed = seed;
  config.equeue = spec.equeue;
  config.deadline = spec.deadline;
  config.time_scale_us = spec.thread_time_scale_us;
  config.wall_timeout_ms = spec.thread_wall_timeout_ms;
  config.udp_reliable = spec.udp_reliable;
  // Scenario trials always harvest metrics: recording consumes no RNG, so
  // seeded aggregates stay bit-identical with the flag on (test_obs pins
  // this), and every sweep cell gets its metrics block for free.
  config.metrics = true;
  config.causal_history = spec.causal_history;
  config.timeseries_interval =
      spec.runtime == RuntimeKind::kSim ? spec.timeseries_interval : 0.0;
  if (!spec.adversary.empty()) {
    // Fresh policy per trial: the per-channel delay accounts are trial
    // state. The bound is the (failure-degraded) model's advertised mean —
    // the δ the ABE contract lets the algorithm rely on.
    bool known = false;
    config.adversary_delay = make_named_adversary(
        spec.adversary, config.delay->mean_delay(), &known);
    ABE_CHECK(known) << "unknown adversary policy '" << spec.adversary
                     << "'";
  }
  return config;
}

namespace {

// One trial of `spec` through its driver binding; a non-null `trace_out`
// turns full-detail tracing on and receives the trace.
TrialOutcome run_bound_trial(const ScenarioSpec& spec, std::uint64_t seed,
                             Trace* trace_out) {
  // The ring election runs on the unidirectional ring its spec names; all
  // other algorithms take the materialised (possibly random) graph. The
  // driver and the runtime share the trial's plan.
  std::shared_ptr<const NetworkPlan> plan = trial_plan(spec.topology, seed);
  ScenarioTrialDriver binding =
      make_scenario_driver(spec, plan->topology(), seed);
  RuntimeConfig config = scenario_runtime_config(spec, std::move(plan), seed);
  config.trace = trace_out != nullptr;
  return binding.project(run_algorithm_trial(
      spec.runtime, std::move(config), *binding.driver, trace_out));
}

}  // namespace

ScenarioTrialResult run_scenario_trial(const ScenarioSpec& spec,
                                       std::uint64_t seed) {
  const std::string problem = runtime_cell_problem(spec);
  ABE_CHECK(problem.empty())
      << spec.cell_id() << " cannot run on the "
      << runtime_kind_name(spec.runtime) << " runtime: " << problem;
  return run_bound_trial(spec, seed, nullptr);
}

TrialOutcome replay_scenario_trial(const ScenarioSpec& spec,
                                   std::uint64_t seed, Trace* trace_out) {
  ABE_CHECK(trace_out != nullptr);
  ABE_CHECK(spec.runtime == RuntimeKind::kSim)
      << "only simulator trials are replayable (thread trials are "
         "wall-clock nondeterministic)";
  // Trace recording observes event order without consuming randomness, so
  // the replayed outcome is bit-identical to the original trial's.
  return run_bound_trial(spec, seed, trace_out);
}

}  // namespace abe
