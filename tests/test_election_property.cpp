// Property-based / parameterized sweeps for the election: safety and
// liveness must hold across ring sizes, activation parameters, delay laws,
// channel orderings, activation policies, clock drift and processing delay.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/harness.h"
#include "scenario/drivers.h"
#include "scenario/sweep.h"
#include "stats/regression.h"

namespace abe {
namespace {

// One election with `options` on the n-node unidirectional ring, in the
// environment `spec` describes (its topology size is replaced by n).
ElectionRunResult elect(std::size_t n, ScenarioSpec spec,
                        const ElectionOptions& options, std::uint64_t seed,
                        ChannelOrdering order = ChannelOrdering::kArbitrary) {
  spec.topology = TopologySpec{TopologyFamily::kRingUni, n, 0.0};
  RuntimeConfig config =
      scenario_runtime_config(spec, trial_plan(spec.topology, seed), seed);
  config.ordering = order;
  ElectionRunResult result;
  const auto driver = make_ring_election_driver(options, spec.settle_time,
                                                /*adversarial=*/false, &result);
  run_algorithm_trial(RuntimeKind::kSim, std::move(config), *driver);
  return result;
}

// ---------------------------------------------------------------------
// Sweep 1: n × delay model × ordering.
using ModelCase = std::tuple<std::size_t, std::string, ChannelOrdering>;

class ElectionModelSweep : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ElectionModelSweep, ElectsExactlyOneLeaderSafely) {
  const auto [n, delay_name, ordering] = GetParam();
  // Each case runs the paper's calibrated regime (A0 = c/n²) at every size,
  // and repeats with a hot constant A0 at sizes where that regime still
  // mixes fast. Only the hot × fixed-delay corner is capped at n = 16, on
  // purpose: under a zero-variance (ABD) delay with ideal clocks the whole
  // execution is phase-locked — every token arrival from a given sender
  // recurs at the same tick-phase offset forever — so the last two
  // candidates purge each other in perfectly periodic rounds, and with the
  // adaptive boost at hot A0 each survivor re-activates with probability
  // 1-(1-A0)^d ≈ 1. The only symmetry break left is a full abstention,
  // probability (1-A0)^d, so the expected number of rounds grows
  // exponentially in n (n=33 took 43 s–timeout in CI). That is a true
  // property of the algorithm outside its calibration, not a simulator
  // bug; the calibrated sweep below is the liveness test, and
  // HotA0DegradesSuperLinearly keeps the degradation itself under test.
  std::vector<double> a0s{linear_regime_a0(n)};
  if (delay_name != "fixed" || n <= 16) a0s.push_back(0.3);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const double a0 : a0s) {
      ScenarioSpec spec;
      spec.delay_name = delay_name;
      spec.settle_time = 20.0;
      ElectionOptions options;
      options.a0 = a0;
      const std::uint64_t trial_seed = seed * 7919;
      const auto result = elect(n, spec, options, trial_seed, ordering);
      ASSERT_TRUE(result.elected) << "n=" << n << " delay=" << delay_name
                                  << " a0=" << a0 << " seed=" << trial_seed;
      ASSERT_TRUE(result.safety_ok)
          << "n=" << n << " delay=" << delay_name << " a0=" << a0
          << " seed=" << trial_seed << ": " << result.safety_detail;
      ASSERT_EQ(result.max_leaders_ever, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElectionModelSweep,
    ::testing::Combine(
        ::testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{5},
                          std::size_t{9}, std::size_t{16}, std::size_t{33}),
        ::testing::Values("exponential", "fixed", "lomax", "georetx"),
        ::testing::Values(ChannelOrdering::kFifo,
                          ChannelOrdering::kArbitrary)),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param) + "_" +
             channel_ordering_name(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Sweep 2: activation parameter A0 across its open interval.
class ElectionA0Sweep : public ::testing::TestWithParam<double> {};

TEST_P(ElectionA0Sweep, CorrectForAllA0) {
  const double a0 = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ScenarioSpec spec;
    spec.settle_time = 20.0;
    ElectionOptions options;
    options.a0 = a0;
    const auto result = elect(12, spec, options, seed);
    ASSERT_TRUE(result.elected) << "a0=" << a0;
    ASSERT_TRUE(result.safety_ok) << "a0=" << a0 << ": "
                                  << result.safety_detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ElectionA0Sweep,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5, 0.7, 0.9,
                                           0.99));

// ---------------------------------------------------------------------
// Sweep 3: activation policy ablations stay correct (they only change
// performance, never safety).
class ElectionPolicySweep
    : public ::testing::TestWithParam<ActivationPolicy> {};

TEST_P(ElectionPolicySweep, VariantsRemainSafe) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScenarioSpec spec;
    spec.settle_time = 20.0;
    ElectionOptions options;
    options.policy = GetParam();
    options.a0 = 0.2;
    const auto result = elect(10, spec, options, seed * 13);
    ASSERT_TRUE(result.elected);
    ASSERT_TRUE(result.safety_ok) << result.safety_detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ElectionPolicySweep,
                         ::testing::Values(ActivationPolicy::kAdaptive,
                                           ActivationPolicy::kConstant,
                                           ActivationPolicy::kLinear),
                         [](const auto& info) {
                           return activation_policy_name(info.param);
                         });

// ---------------------------------------------------------------------
// Sweep 4: clock drift and processing delay (Definition 1(2) and 1(3)).
struct HarshCase {
  const char* name;
  ClockBounds clocks;
  DriftModel drift;
  ProcessingModel processing;
};

// Print the case by name: gtest's default byte dump of this struct includes
// the name pointer and padding, which would make the listed test names
// differ from one build or run to the next.
void PrintTo(const HarshCase& c, std::ostream* os) { *os << c.name; }

class ElectionHarshEnvironment : public ::testing::TestWithParam<HarshCase> {
};

TEST_P(ElectionHarshEnvironment, SurvivesEnvironment) {
  const HarshCase& c = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ScenarioSpec spec;
    spec.clock_bounds = c.clocks;
    spec.drift = c.drift;
    spec.processing = c.processing;
    spec.settle_time = 30.0;
    const auto result = elect(9, spec, ElectionOptions{}, seed * 101);
    ASSERT_TRUE(result.elected) << c.name;
    ASSERT_TRUE(result.safety_ok) << c.name << ": " << result.safety_detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElectionHarshEnvironment,
    ::testing::Values(
        HarshCase{"ideal", {1, 1}, DriftModel::kNone,
                  ProcessingModel::zero()},
        HarshCase{"mild_drift", {0.9, 1.1}, DriftModel::kFixedRandomRate,
                  ProcessingModel::zero()},
        HarshCase{"wild_drift", {0.25, 4.0}, DriftModel::kPiecewiseRandom,
                  ProcessingModel::zero()},
        HarshCase{"slow_cpu", {1, 1}, DriftModel::kNone,
                  ProcessingModel::exponential(0.5)},
        HarshCase{"drift_and_cpu", {0.5, 2.0}, DriftModel::kPiecewiseRandom,
                  ProcessingModel::exponential(0.3)}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------
// Liveness statistics: failures must be zero across a broad seed range.
TEST(ElectionProperty, NoDeadlineMissesOverManySeeds) {
  ScenarioSpec spec;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 16, 0.0};
  spec.a0 = 0.3;
  spec.settle_time = 0.0;
  const ScenarioAggregate agg = run_scenario_trials(spec, 50, 1000);
  EXPECT_EQ(agg.failures, 0u);
  EXPECT_EQ(agg.stalled, 0u);
  EXPECT_EQ(agg.safety_violations, 0u);
}

// Complexity smoke check (the full curve is bench E2/E3): in the paper's
// linear regime (A0 = c/n², see linear_regime_a0) message and time means
// grow ~linearly in n — the log-log slope over a 16x range stays close to
// 1, far from the n log n regime.
TEST(ElectionProperty, MessageAndTimeGrowthNearLinear) {
  std::vector<double> xs, msgs, times;
  for (std::size_t n : {8, 16, 32, 64, 128}) {
    ScenarioSpec spec;
    spec.topology = TopologySpec{TopologyFamily::kRingUni, n, 0.0};
    spec.a0 = linear_regime_a0(n);
    spec.settle_time = 0.0;
    const ScenarioAggregate agg = run_scenario_trials(spec, 20, 77);
    ASSERT_EQ(agg.failures, 0u);
    ASSERT_EQ(agg.stalled, 0u);
    xs.push_back(static_cast<double>(n));
    msgs.push_back(agg.messages.mean());
    times.push_back(agg.time.mean());
  }
  const LinearFit msg_fit = fit_loglog(xs, msgs);
  const LinearFit time_fit = fit_loglog(xs, times);
  EXPECT_GT(msg_fit.slope, 0.70) << "messages grew slower than linear?";
  EXPECT_LT(msg_fit.slope, 1.30) << "messages grew super-linearly";
  EXPECT_GT(time_fit.slope, 0.65);
  EXPECT_LT(time_fit.slope, 1.35);
}

// Outside the linear regime a hot constant A0 degrades super-linearly —
// the calibration genuinely matters (this is the negative control for the
// test above and the story of bench E4/E9).
TEST(ElectionProperty, HotA0DegradesSuperLinearly) {
  std::vector<double> xs, msgs;
  for (std::size_t n : {8, 16, 32, 64}) {
    ScenarioSpec spec;
    spec.topology = TopologySpec{TopologyFamily::kRingUni, n, 0.0};
    spec.a0 = 0.3;
    spec.settle_time = 0.0;
    const ScenarioAggregate agg = run_scenario_trials(spec, 8, 77);
    ASSERT_EQ(agg.failures, 0u);
    ASSERT_EQ(agg.stalled, 0u);
    xs.push_back(static_cast<double>(n));
    msgs.push_back(agg.messages.mean());
  }
  EXPECT_GT(fit_loglog(xs, msgs).slope, 1.5);
}

// Message lower bound: any election needs the winner's token to traverse
// the full ring.
TEST(ElectionProperty, MessagesAtLeastN) {
  for (std::size_t n : {2, 5, 11, 31}) {
    ScenarioSpec spec;
    spec.settle_time = 0.0;
    const auto result = elect(n, spec, ElectionOptions{}, 5);
    ASSERT_TRUE(result.elected);
    EXPECT_GE(result.messages, n) << "n=" << n;
  }
}

// Conservation: every activation creates exactly one token and every token
// dies in exactly one purge.
TEST(ElectionProperty, ActivationPurgeConservation) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScenarioSpec spec;
    spec.settle_time = 50.0;
    const auto result = elect(20, spec, ElectionOptions{}, seed);
    ASSERT_TRUE(result.elected);
    ASSERT_TRUE(result.safety_ok) << result.safety_detail;
    EXPECT_EQ(result.activations, result.purges) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace abe
