// Tests for the synchronous apps, the reference runner, the α-synchronizer
// and the ABD synchronizer (Theorem 1 territory).
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "net/topology.h"
#include "scenario/drivers.h"
#include "syncr/abd_sync.h"
#include "syncr/alpha.h"
#include "syncr/apps.h"
#include "syncr/sync_runner.h"

namespace abe {
namespace {

// The app under the α-synchronizer on `topology` with `delay` or, given a
// round period (a multiple of the mean delay), under the ABD synchronizer,
// on clocks per `clock_bounds` and `drift`.
SynchronizerResult run_sync(const Topology& topology,
                            const SyncAppFactory& factory,
                            std::uint64_t rounds, DelayModelPtr delay,
                            std::uint64_t seed,
                            std::optional<double> abd_period = std::nullopt,
                            ClockBounds clock_bounds = {},
                            DriftModel drift = DriftModel::kNone) {
  ScenarioSpec spec;
  spec.clock_bounds = clock_bounds;
  spec.drift = drift;
  RuntimeConfig config = scenario_runtime_config(spec, topology, seed);
  config.delay = std::move(delay);
  config.deadline = 1e9;
  SynchronizerResult result;
  const auto driver =
      abd_period ? make_abd_sync_driver(factory, rounds, *abd_period, &result)
                 : make_alpha_sync_driver(factory, rounds, &result);
  run_algorithm_trial(RuntimeKind::kSim, std::move(config), *driver);
  return result;
}

// ------------------------- reference runner ---------------------------

TEST(SyncRunner, BroadcastComputesBfsDepthOnLine) {
  const Topology t = line(6);
  const auto result =
      run_synchronous(t, broadcast_app_factory(0), /*rounds=*/10);
  ASSERT_EQ(result.outputs.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.outputs[i], static_cast<std::int64_t>(i));
  }
}

TEST(SyncRunner, BroadcastWavefrontOnRing) {
  const Topology t = bidirectional_ring(8);
  const auto result = run_synchronous(t, broadcast_app_factory(3), 10);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t cw = (i + 8 - 3) % 8;
    const std::size_t ccw = (3 + 8 - i) % 8;
    EXPECT_EQ(result.outputs[i],
              static_cast<std::int64_t>(std::min(cw, ccw)))
        << "node " << i;
  }
}

TEST(SyncRunner, BroadcastUnreachedIsMinusOne) {
  const Topology t = line(5);
  const auto result = run_synchronous(t, broadcast_app_factory(0), 2);
  EXPECT_EQ(result.outputs[2], 2);
  EXPECT_EQ(result.outputs[3], -1);  // wavefront has not arrived yet
  EXPECT_EQ(result.outputs[4], -1);
}

TEST(SyncRunner, MaxConsensusConvergesInDiameterRounds) {
  const Topology t = grid(3, 3);
  std::vector<std::int64_t> values(9);
  std::iota(values.begin(), values.end(), 10);
  const std::uint64_t rounds = diameter(t);
  const auto result = run_synchronous(t, max_app_factory(values), rounds);
  for (auto v : result.outputs) {
    EXPECT_EQ(v, 18);
  }
}

TEST(SyncRunner, MaxConsensusIncompleteBeforeDiameter) {
  const Topology t = line(10);
  std::vector<std::int64_t> values(10, 0);
  values[9] = 100;  // extreme value at one end
  const auto result = run_synchronous(t, max_app_factory(values), 3);
  EXPECT_EQ(result.outputs[0], 0);  // too far for 3 rounds
  EXPECT_EQ(result.outputs[7], 100);
}

TEST(SyncRunner, CounterCountsRounds) {
  const Topology t = complete(4);
  const auto result = run_synchronous(t, counter_app_factory(), 17);
  for (auto v : result.outputs) EXPECT_EQ(v, 17);
  EXPECT_EQ(result.messages_sent, 0u);  // counter app never sends
}

TEST(SyncRunner, SingleNodeTopology) {
  const Topology t = unidirectional_ring(1);
  const auto result = run_synchronous(t, broadcast_app_factory(0), 3);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], 0);
}

// ------------------------- α-synchronizer -----------------------------

TEST(Alpha, MatchesReferenceOnBroadcast) {
  const Topology t = grid(3, 4);
  const auto ref = run_synchronous(t, broadcast_app_factory(0), 8);
  const auto alpha = run_sync(t, broadcast_app_factory(0), 8,
                              exponential_delay(1.0), 5);
  ASSERT_TRUE(alpha.completed);
  EXPECT_EQ(alpha.outputs, ref.outputs);
}

TEST(Alpha, MatchesReferenceOnMaxConsensus) {
  const Topology t = bidirectional_ring(10);
  std::vector<std::int64_t> values{4, 17, 3, 99, 5, 21, 8, 2, 54, 7};
  const auto ref = run_synchronous(t, max_app_factory(values), 6);
  const auto alpha = run_sync(t, max_app_factory(values), 6,
                              exponential_delay(1.0), 11);
  ASSERT_TRUE(alpha.completed);
  EXPECT_EQ(alpha.outputs, ref.outputs);
}

TEST(Alpha, MatchesReferenceUnderHeavyTailDelays) {
  const Topology t = line(7);
  const auto ref = run_synchronous(t, broadcast_app_factory(3), 7);
  const auto alpha = run_sync(t, broadcast_app_factory(3), 7,
                              lomax_delay(2.5, 1.0), 23);
  ASSERT_TRUE(alpha.completed);
  EXPECT_EQ(alpha.outputs, ref.outputs);
}

TEST(Alpha, WorksOnUnidirectionalRing) {
  const Topology t = unidirectional_ring(6);
  const auto ref = run_synchronous(t, broadcast_app_factory(0), 6);
  const auto alpha = run_sync(t, broadcast_app_factory(0), 6,
                              exponential_delay(1.0), 7);
  ASSERT_TRUE(alpha.completed);
  EXPECT_EQ(alpha.outputs, ref.outputs);
}

// Theorem 1 embodiment: α sends exactly |E| envelopes per round — on a
// unidirectional ring, exactly n per round, meeting the lower bound with
// equality; never fewer than n on any strongly-connected digraph.
TEST(Alpha, MessagesPerRoundEqualsEdgeCount) {
  for (std::size_t n : {4, 9, 16}) {
    const Topology t = unidirectional_ring(n);
    const auto alpha = run_sync(t, counter_app_factory(), 12,
                                exponential_delay(1.0), 3);
    ASSERT_TRUE(alpha.completed);
    EXPECT_DOUBLE_EQ(alpha.messages_per_round, static_cast<double>(n));
  }
  const Topology g = grid(3, 3);
  const auto alpha = run_sync(g, counter_app_factory(), 12,
                              exponential_delay(1.0), 3);
  EXPECT_DOUBLE_EQ(alpha.messages_per_round,
                   static_cast<double>(g.edge_count()));
  EXPECT_GE(alpha.messages_per_round, static_cast<double>(g.n));
}

TEST(Alpha, AllRoundsExecuteEverywhere) {
  const Topology t = torus(3, 3);
  const auto alpha = run_sync(t, counter_app_factory(), 9,
                              exponential_delay(2.0), 19);
  ASSERT_TRUE(alpha.completed);
  for (auto v : alpha.outputs) EXPECT_EQ(v, 9);
}

// Seeded outcomes of the broadcast app for 5 rounds on a 2x3 grid, seeds
// 1-4 (exponential delays): |E| = 14 envelopes per round, the completion
// time, and the reference BFS depths.
TEST(Alpha, SeededOutcomesArePinned) {
  const double times[] = {11.522504600407819, 19.386449012264759,
                          12.3789580646663, 10.781306132154644};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const double time = times[seed - 1];
    const auto alpha = run_sync(grid(2, 3), broadcast_app_factory(0), 5,
                                exponential_delay(1.0), seed);
    ASSERT_TRUE(alpha.completed);
    EXPECT_EQ(alpha.messages_total, 70u);
    EXPECT_NEAR(alpha.completion_time, time, 1e-12 * time);
    EXPECT_EQ(alpha.outputs, (std::vector<std::int64_t>{0, 1, 2, 1, 2, 3}));
  }
}

// ------------------------- ABD synchronizer ---------------------------

TEST(AbdSync, CorrectOnAbdNetwork) {
  // Fixed delay 1, period multiplier 1.5 => period 1.5 > Δ: sound.
  const Topology t = grid(2, 3);
  const auto result = run_sync(t, broadcast_app_factory(0), 8, fixed_delay(1.0),
                               3, /*abd_period=*/1.5);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.late_messages, 0u);
  EXPECT_EQ(result.outputs,
            run_synchronous(t, broadcast_app_factory(0), 8, 3).outputs);
}

TEST(AbdSync, CorrectOnBoundedUniformDelays) {
  // Uniform [0,2] has worst case 2; multiplier 2.5 of mean 1 => period 2.5.
  const Topology t = bidirectional_ring(8);
  const auto result = run_sync(t, broadcast_app_factory(2), 10,
                               uniform_delay(0.0, 2.0), 9, /*abd_period=*/2.5);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.late_messages, 0u);
  EXPECT_EQ(result.outputs,
            run_synchronous(t, broadcast_app_factory(2), 10, 9).outputs);
}

TEST(AbdSync, ZeroOverheadMessaging) {
  // The counter app sends nothing: the ABD synchronizer moves rounds with
  // ZERO messages — legal only because a sure delay bound exists. (Theorem 1
  // says this is impossible for ABE/asynchronous networks.)
  const Topology t = complete(5);
  const auto result = run_sync(t, counter_app_factory(), 12, fixed_delay(1.0),
                               1, /*abd_period=*/1.5);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.messages_total, 0u);
  for (auto v : result.outputs) EXPECT_EQ(v, 12);
}

TEST(AbdSync, ViolatesOnAbeDelays) {
  // Exponential delays: P(delay > c·mean) = e^{-c}. With multiplier 1.0
  // roughly a third of messages overshoot their round; some run of seeds
  // must exhibit late messages and output corruption.
  const Topology t = bidirectional_ring(10);
  std::uint64_t total_late = 0;
  int mismatches = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto result = run_sync(t, broadcast_app_factory(0), 10,
                                 exponential_delay(1.0), seed,
                                 /*abd_period=*/1.0);
    ASSERT_TRUE(result.completed);
    total_late += result.late_messages;
    const auto ref = run_synchronous(t, broadcast_app_factory(0), 10, seed);
    if (result.outputs != ref.outputs) ++mismatches;
  }
  EXPECT_GT(total_late, 0u);
  EXPECT_GT(mismatches, 0);
}

TEST(AbdSync, LargerPeriodReducesViolations) {
  const Topology t = bidirectional_ring(8);
  auto late_at = [&](double multiplier) {
    std::uint64_t late = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto r = run_sync(t, broadcast_app_factory(0), 10,
                              exponential_delay(1.0), seed,
                              /*abd_period=*/multiplier);
      late += r.late_messages;
    }
    return late;
  };
  const std::uint64_t tight = late_at(0.5);
  const std::uint64_t generous = late_at(6.0);
  EXPECT_GT(tight, generous);
  EXPECT_EQ(generous, 0u);  // e^{-6} over ~hundreds of messages
}

TEST(AbdSync, ClockDriftAloneBreaksIt) {
  // Bounded delays but drifting clocks: round windows slide apart and
  // eventually messages land late anyway — Definition 1(2) matters.
  const Topology t = bidirectional_ring(8);
  std::uint64_t late = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto r = run_sync(t, broadcast_app_factory(0), 40, fixed_delay(1.0),
                            seed, /*abd_period=*/1.2, ClockBounds{0.7, 1.4},
                            DriftModel::kFixedRandomRate);
    ASSERT_TRUE(r.completed);
    late += r.late_messages;
  }
  EXPECT_GT(late, 0u);
}

// Seeded outcomes of the broadcast app for 6 rounds on a bidirectional
// 6-ring with period 1·δ, seeds 1-4 (exponential delays): app messages,
// late envelopes, and the corrupted outputs they cause.
TEST(AbdSync, SeededOutcomesArePinned) {
  const std::uint64_t messages[] = {2, 6, 8, 8};
  const std::uint64_t late[] = {2, 2, 1, 3};
  const std::vector<std::int64_t> outputs[] = {{0, -1, -1, -1, -1, -1},
                                               {0, -1, -1, -1, 2, 1},
                                               {0, 1, 2, -1, -1, 1},
                                               {0, -1, -1, 3, 2, 1}};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::size_t k = seed - 1;
    const auto r = run_sync(bidirectional_ring(6), broadcast_app_factory(0), 6,
                            exponential_delay(1.0), seed, /*abd_period=*/1.0);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.messages_total, messages[k]);
    EXPECT_EQ(r.late_messages, late[k]);
    EXPECT_EQ(r.outputs, outputs[k]);
  }
}

}  // namespace
}  // namespace abe
