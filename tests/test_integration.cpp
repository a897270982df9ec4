// Cross-module integration scenarios: full ABE deployments assembled from
// every substrate at once.
#include <gtest/gtest.h>

#include "core/abe.h"
#include "core/analysis.h"
#include "core/harness.h"
#include "net/arq.h"
#include "net/network.h"
#include "net/topology.h"
#include "scenario/drivers.h"
#include "scenario/sweep.h"
#include "stats/histogram.h"

namespace abe {
namespace {

// A "sensor network" deployment: lossy radio links (geometric
// retransmission), drifting oscillators, nonzero CPU time — everything
// Definition 1 allows at once. The election must still work.
TEST(Integration, SensorNetworkScenarioElects) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScenarioSpec spec;
    spec.topology = TopologySpec{TopologyFamily::kRingUni, 24, 0.0};
    spec.clock_bounds = {0.8, 1.25};
    spec.drift = DriftModel::kPiecewiseRandom;
    spec.processing = ProcessingModel::exponential(0.05);
    const std::uint64_t trial_seed = seed * 31;
    RuntimeConfig config = scenario_runtime_config(
        spec, trial_plan(spec.topology, trial_seed), trial_seed);
    config.delay = geometric_retransmission_delay(0.6, 0.5);  // mean 0.833
    ElectionOptions options;
    options.a0 = 0.25;
    ElectionRunResult result;
    const auto driver = make_ring_election_driver(
        options, /*settle_time=*/30.0, /*adversarial=*/false, &result);
    run_algorithm_trial(RuntimeKind::kSim, std::move(config), *driver);
    ASSERT_TRUE(result.elected) << "seed=" << seed;
    ASSERT_TRUE(result.safety_ok) << result.safety_detail;
  }
}

// Definition 1 knowledge extraction: a configured deployment advertises its
// (δ, s_low, s_high, γ) and the election only ever relied on those.
TEST(Integration, AbeParamsDescribeDeployment) {
  NetworkConfig config;
  config.topology = unidirectional_ring(8);
  config.delay = geometric_retransmission_delay(0.5, 1.0);
  config.clock_bounds = {0.9, 1.2};
  config.processing = ProcessingModel::exponential(0.1);
  Network net(std::move(config));
  const AbeParams params = abe_params_of(net);
  EXPECT_DOUBLE_EQ(params.delta, 2.0);  // slot/p = 1/0.5
  EXPECT_DOUBLE_EQ(params.delta,
                   expected_retransmission_delay(0.5, 1.0));
  EXPECT_FALSE(is_abd(net));  // retransmission delay is unbounded
}

// The empirical mean channel delay of a long election run converges to the
// model's advertised mean — the network really is ABE with that δ.
TEST(Integration, MeasuredMeanDelayMatchesDelta) {
  ScenarioSpec spec;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 64, 0.0};
  spec.mean_delay = 2.0;
  spec.a0 = 0.3;
  spec.settle_time = 0.0;
  // Use the trials harness to accumulate enough deliveries.
  const ScenarioAggregate agg = run_scenario_trials(spec, 5, 50);
  EXPECT_EQ(agg.failures, 0u);
  EXPECT_EQ(agg.stalled, 0u);

  // Re-run one instance and inspect the metrics directly.
  NetworkConfig config;
  config.topology = unidirectional_ring(64);
  config.delay = exponential_delay(2.0);
  config.enable_ticks = true;
  config.seed = 1234;
  Network net(std::move(config));
  ElectionOptions options;
  options.a0 = 0.3;
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<ElectionNode>(options);
  });
  net.start();
  net.run_until([&] {
    return net.metrics().messages_delivered >= 500;
  }, 1e7);
  EXPECT_NEAR(net.metrics().mean_channel_delay(), 2.0, 0.3);
}

// ARQ-derived delay equals the analytic 1/p law end to end: build the lossy
// link, measure, compare with the DelayModel shortcut.
TEST(Integration, ArqMeasurementMatchesDelayModelShortcut) {
  const double p = 0.4;
  const ArqResult arq = run_arq_experiment(p, 2000, 1.0, 9);
  EXPECT_NEAR(arq.mean_attempts, expected_transmissions(p), 0.15);

  Rng rng(17);
  const auto model = geometric_retransmission_delay(p, 1.0);
  Histogram h;
  for (int i = 0; i < 20000; ++i) h.add(model->sample(rng));
  EXPECT_NEAR(h.mean(), arq.mean_attempts, 0.2);
}

// Heavy-tail evidence: an exponential-delay network observes individual
// delays far above δ even though the mean honours it (ABE's "all executions
// possible, long delays improbable"). A plain tick-driven pump generates
// the traffic so the sample count does not depend on how quickly an
// election happens to converge.
TEST(Integration, LongDelaysOccurButAreRare) {
  class PumpNode final : public Node {
   public:
    void on_tick(Context& ctx, std::uint64_t tick) override {
      ctx.send(0, std::make_unique<IntPayload>(static_cast<std::int64_t>(tick)));
    }
    void on_message(Context&, std::size_t, const Payload&) override {}
  };

  NetworkConfig config;
  config.topology = unidirectional_ring(32);
  config.delay = exponential_delay(1.0);
  config.enable_ticks = true;
  config.seed = 77;
  Network net(std::move(config));
  net.build_nodes(
      [](std::size_t) -> NodePtr { return std::make_unique<PumpNode>(); });
  net.start();
  const bool enough = net.run_until(
      [&] { return net.metrics().messages_delivered >= 2000; }, 1e5);
  ASSERT_TRUE(enough);
  EXPECT_GT(net.metrics().max_channel_delay, 4.0);
  EXPECT_NEAR(net.metrics().mean_channel_delay(), 1.0, 0.15);
}

// Equal-δ invariance: the election's message complexity is essentially the
// same across delay laws with the same mean (bench E5's claim, smoke-sized).
TEST(Integration, MessageComplexityStableAcrossDelayLaws) {
  double means[2];
  int idx = 0;
  for (const char* name : {"fixed", "lomax"}) {
    ScenarioSpec spec;
    spec.topology = TopologySpec{TopologyFamily::kRingUni, 32, 0.0};
    spec.delay_name = name;
    spec.a0 = linear_regime_a0(32);
    spec.settle_time = 0.0;
    const ScenarioAggregate agg = run_scenario_trials(spec, 15, 400);
    ASSERT_EQ(agg.failures, 0u);
    ASSERT_EQ(agg.stalled, 0u);
    means[idx++] = agg.messages.mean();
  }
  // Same mean delay => message counts within 2x of each other (they are
  // typically within ~20%; 2x guards against flaky seeds).
  EXPECT_LT(means[0], means[1] * 2.0);
  EXPECT_LT(means[1], means[0] * 2.0);
}

}  // namespace
}  // namespace abe
