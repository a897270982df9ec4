// Tests for push gossip on ABE graphs.
#include "algo/gossip.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "scenario/drivers.h"

namespace abe {
namespace {

// One spread from `source` over `topology`, in the environment `spec`
// describes (by default exponential delays of mean 1 and ideal clocks).
GossipResult spread(Topology topology, std::uint64_t seed,
                    const ScenarioSpec& spec = {}, std::size_t source = 0) {
  GossipResult result;
  const auto driver = make_gossip_driver(source, &result);
  run_algorithm_trial(RuntimeKind::kSim,
                      scenario_runtime_config(spec, std::move(topology), seed),
                      *driver);
  return result;
}

TEST(Gossip, SpreadsOnCompleteGraph) {
  const auto r = spread(complete(16), 1);
  ASSERT_TRUE(r.all_informed);
  EXPECT_GT(r.spread_time, 0.0);
  EXPECT_GE(r.messages, 15u);  // at least one push per victim
}

TEST(Gossip, SpreadsOnRingAndGridAndTorus) {
  for (auto t : {bidirectional_ring(12), grid(4, 4), torus(4, 4)}) {
    const auto r = spread(t, 3);
    ASSERT_TRUE(r.all_informed) << t.name;
  }
}

TEST(Gossip, SourceCountsAsInformed) {
  const auto r = spread(complete(4), 2, ScenarioSpec{}, /*source=*/2);
  ASSERT_TRUE(r.all_informed);
  EXPECT_LE(r.mean_inform_time, r.spread_time);
}

TEST(Gossip, SingleNodeTrivial) {
  const auto r = spread(unidirectional_ring(1), 1);
  EXPECT_TRUE(r.all_informed);
  EXPECT_EQ(r.spread_time, 0.0);
}

TEST(Gossip, DeterministicGivenSeed) {
  const auto a = spread(grid(3, 3), 42);
  const auto b = spread(grid(3, 3), 42);
  ASSERT_TRUE(a.all_informed);
  EXPECT_EQ(a.spread_time, b.spread_time);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Gossip, CompleteGraphSpreadsLogarithmically) {
  // Push gossip on K_n informs everyone in O(log n) ticks; spread time for
  // n=64 should be well below n ticks.
  const auto r = spread(complete(64), 5);
  ASSERT_TRUE(r.all_informed);
  EXPECT_LT(r.spread_time, 40.0);
}

TEST(Gossip, RingSpreadsLinearly) {
  // On a bidirectional ring the rumor advances ~1 hop per tick per side.
  const auto fast = spread(bidirectional_ring(8), 5);
  const auto slow = spread(bidirectional_ring(32), 5);
  ASSERT_TRUE(fast.all_informed);
  ASSERT_TRUE(slow.all_informed);
  EXPECT_GT(slow.spread_time, fast.spread_time * 2);
}

TEST(Gossip, HeavyTailDelaysStillSpread) {
  ScenarioSpec spec;
  spec.delay_name = "lomax";
  const auto r = spread(grid(4, 4), 9, spec);
  ASSERT_TRUE(r.all_informed);
}

TEST(Gossip, DriftingClocksStillSpread) {
  ScenarioSpec spec;
  spec.clock_bounds = {0.5, 2.0};
  spec.drift = DriftModel::kPiecewiseRandom;
  const auto r = spread(torus(3, 3), 11, spec);
  ASSERT_TRUE(r.all_informed);
}

TEST(Gossip, UnidirectionalRingWorksToo) {
  const auto r = spread(unidirectional_ring(8), 13);
  ASSERT_TRUE(r.all_informed);
}

}  // namespace
}  // namespace abe
