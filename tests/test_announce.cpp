// Tests for the leader-announcement extension (full termination + ring
// indexing as a by-product).
#include "core/announce.h"

#include <gtest/gtest.h>

#include <string>

#include "net/topology.h"
#include "scenario/drivers.h"

namespace abe {
namespace {

// One simulator trial of the announcing election on an n-ring at `a0`
// with `delay_name` delays of mean 1. safety_ok means the learned
// distances index the ring from the leader (decision_node).
TrialOutcome run_announced(std::size_t n, double a0, std::uint64_t seed,
                           const std::string& delay_name = "exponential") {
  ScenarioSpec spec;
  spec.delay_name = delay_name;
  return run_algorithm_trial(
      RuntimeKind::kSim,
      scenario_runtime_config(spec, unidirectional_ring(n), seed),
      *make_announced_election_driver(ElectionOptions{a0}));
}

TEST(Announce, SingleNode) {
  const auto r = run_announced(1, 0.3, 1);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.safety_ok);
  EXPECT_EQ(r.messages, 0u);
}

TEST(Announce, EveryNodeLearnsAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const auto r = run_announced(10, linear_regime_a0(10, 4.0), seed);
    ASSERT_TRUE(r.completed) << "seed=" << seed;
    ASSERT_TRUE(r.safety_ok) << "seed=" << seed;
  }
}

TEST(Announce, DistancesFormRingIndexing) {
  const auto r = run_announced(16, linear_regime_a0(16, 4.0), 9);
  ASSERT_TRUE(r.completed);
  // safety_ok already asserts that node (leader + d) mod n has distance d
  // for every d — i.e. the ring is now indexed.
  EXPECT_TRUE(r.safety_ok) << r.safety_detail;
  EXPECT_GE(r.decision_node, 0);
  EXPECT_LT(r.decision_node, 16);
}

TEST(Announce, CostsExactlyOneExtraCirculation) {
  // The announce wave adds exactly n messages on top of the election.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 12;
    const auto r = run_announced(n, linear_regime_a0(n), seed);
    ASSERT_TRUE(r.completed);
    // Election alone needs >= n (the winner's token) and the wave adds n.
    EXPECT_GE(r.messages, 2 * n);
  }
}

TEST(Announce, WorksUnderHeavyTailDelays) {
  for (const char* delay : {"fixed", "lomax", "georetx"}) {
    const auto r = run_announced(9, linear_regime_a0(9, 2.0), 33, delay);
    ASSERT_TRUE(r.completed) << delay;
    ASSERT_TRUE(r.safety_ok) << delay;
  }
}

TEST(Announce, TwoNodes) {
  const auto r = run_announced(2, 0.2, 4);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.safety_ok);
}

// Seeded outcomes of an 8-ring at A0 = linear_regime_a0(8, 4), seeds 1-4
// (exponential delays): messages and time until every node knows, and the
// leader.
TEST(Announce, SeededOutcomesArePinned) {
  const std::uint64_t messages[] = {40, 16, 32, 24};
  const double times[] = {41.176743746238287, 23.037374358695455,
                          24.430374830375214, 26.587877651734967};
  const std::int64_t leaders[] = {0, 0, 3, 2};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::size_t k = seed - 1;
    const auto r = run_announced(8, linear_regime_a0(8, 4.0), seed);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.safety_ok);
    EXPECT_EQ(r.messages, messages[k]);
    EXPECT_NEAR(r.time, times[k], 1e-12 * times[k]);
    EXPECT_EQ(r.decision_node, leaders[k]);
  }
}

}  // namespace
}  // namespace abe
