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
  ElectionExperiment e;
  e.n = spec.topology.n;
  e.election.a0 =
      spec.a0 > 0.0 ? spec.a0 : linear_regime_a0(spec.topology.n);
  e.loss_probability = spec.failure.channel_loss();
  e.settle_time = spec.settle_time;
  if (spec_is_adversarial(spec)) {
    // Equivocated tokens legally violate the honest ring's hop/d
    // invariants; drop them instead of aborting, and relax the honest-
    // environment postconditions (core/harness.h) so the probe measures
    // leader uniqueness, not decoration side effects.
    e.election.tolerate_protocol_violation = true;
    e.adversarial = true;
  }

  auto sink = std::make_shared<ElectionRunResult>();
  ScenarioTrialDriver binding;
  binding.driver = make_ring_election_driver(e, sink.get());
  // The ring driver's outcome already IS its scenario semantics (completed
  // == elected); the sink capture keeps the result the driver writes into
  // alive for the driver's lifetime.
  binding.project = [sink](const TrialOutcome& outcome) { return outcome; };
  return binding;
}

ScenarioTrialDriver make_unsafe_toy_binding() {
  ScenarioTrialDriver binding;
  binding.driver = make_unsafe_toy_driver();
  binding.project = [](const TrialOutcome& outcome) { return outcome; };
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

// The polling and gossip drivers read their graph from the RuntimeConfig in
// configure(), so their experiment structs carry no topology here.
ScenarioTrialDriver make_polling_binding(const ScenarioSpec& spec) {
  PollingExperiment e;
  e.loss_probability = spec.failure.channel_loss();

  auto sink = std::make_shared<PollingRunResult>();
  ScenarioTrialDriver binding;
  binding.driver = make_polling_driver(e, sink.get());
  binding.project = [sink](const TrialOutcome& outcome) {
    TrialOutcome out = outcome;
    // Election alone is not completion: under loss a stranded RESULT
    // leaves the poll unfinished, and that counts as the injected failure.
    out.completed = sink->elected && sink->terminated;
    out.time = sink->election_time;
    out.messages = sink->messages;
    return out;
  };
  return binding;
}

ScenarioTrialDriver make_gossip_binding(const ScenarioSpec& spec) {
  GossipExperiment e;
  e.loss_probability = spec.failure.channel_loss();

  auto sink = std::make_shared<GossipResult>();
  ScenarioTrialDriver binding;
  binding.driver = make_gossip_driver(e, sink.get());
  // Gossip's driver outcome already IS its scenario semantics: completion
  // and safety are both total dissemination, time is the spread time.
  binding.project = [sink](const TrialOutcome& outcome) { return outcome; };
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

  // The factory must outlive the driver, which holds it by reference.
  auto factory =
      std::make_shared<SyncAppFactory>(max_app_factory(std::move(values)));
  auto sink = std::make_shared<BetaRunResult>();
  const std::size_t n = topology.n;

  ScenarioTrialDriver binding;
  binding.driver = make_beta_sync_driver(*factory, rounds, sink.get());
  binding.project = [sink, factory, rounds,
                     n](const TrialOutcome& outcome) {
    TrialOutcome out;
    // Preserve the trial loop's observability harvest: this projection
    // rebuilds the outcome from the sink, but metrics/wall/flight-tail
    // belong to the run, not the algorithm.
    out.has_metrics = outcome.has_metrics;
    out.metrics = outcome.metrics;
    out.wall = outcome.wall;
    out.flight_tail = outcome.flight_tail;
    out.decision_node = outcome.decision_node;
    out.has_critical_path = outcome.has_critical_path;
    out.critical_path = outcome.critical_path;
    out.has_timeseries = outcome.has_timeseries;
    out.timeseries = outcome.timeseries;
    out.completed = sink->completed;
    out.time = sink->completion_time;
    out.messages = sink->messages_total;
    if (!sink->completed) return out;
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
      binding = make_polling_binding(spec);
      break;
    case ScenarioAlgorithm::kGossip:
      binding = make_gossip_binding(spec);
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

ScenarioTrialResult run_scenario_trial(const ScenarioSpec& spec,
                                       std::uint64_t seed) {
  const std::string problem = runtime_cell_problem(spec);
  ABE_CHECK(problem.empty())
      << spec.cell_id() << " cannot run on the "
      << runtime_kind_name(spec.runtime) << " runtime: " << problem;

  // The ring election runs on the unidirectional ring its spec names; all
  // other algorithms take the materialised (possibly random) graph. The
  // driver and the runtime share the trial's plan.
  std::shared_ptr<const NetworkPlan> plan = trial_plan(spec.topology, seed);
  ScenarioTrialDriver binding =
      make_scenario_driver(spec, plan->topology(), seed);
  const TrialOutcome outcome = run_algorithm_trial(
      spec.runtime, scenario_runtime_config(spec, std::move(plan), seed),
      *binding.driver);
  return binding.project(outcome);
}

TrialOutcome replay_scenario_trial(const ScenarioSpec& spec,
                                   std::uint64_t seed, Trace* trace_out) {
  ABE_CHECK(trace_out != nullptr);
  ABE_CHECK(spec.runtime == RuntimeKind::kSim)
      << "only simulator trials are replayable (thread trials are "
         "wall-clock nondeterministic)";

  std::shared_ptr<const NetworkPlan> plan = trial_plan(spec.topology, seed);
  ScenarioTrialDriver binding =
      make_scenario_driver(spec, plan->topology(), seed);
  RuntimeConfig config = scenario_runtime_config(spec, std::move(plan), seed);
  config.trace = true;

  // run_algorithm_trial's exact lifecycle, inlined on a concrete
  // SimRuntime so the trace can be harvested before the runtime dies.
  // Trace recording observes event order without consuming randomness, so
  // the replayed outcome is bit-identical to the original trial's.
  binding.driver->configure(config);
  const SimTime deadline = config.deadline;
  SimRuntime rt(std::move(config));
  rt.build_nodes(
      [&](std::size_t i) { return binding.driver->make_node(i); });
  rt.start();
  const bool completed = rt.run_until_done(
      [&] { return binding.driver->done(rt); }, deadline);
  if (completed) binding.driver->on_complete(rt);
  binding.driver->settle(rt, completed);
  rt.stop();
  TrialOutcome outcome = binding.driver->extract(rt, completed);
  outcome.metrics = rt.metrics_snapshot();
  outcome.has_metrics = true;
  *trace_out = rt.network().trace();
  return binding.project(outcome);
}

}  // namespace abe
