// Tests for the β-synchronizer: must replicate lock-step semantics with
// tree-based overhead (and still respect Theorem 1's n-per-round floor).
#include "syncr/beta.h"

#include <gtest/gtest.h>

#include <numeric>

#include "scenario/drivers.h"
#include "syncr/alpha.h"
#include "syncr/apps.h"
#include "syncr/sync_runner.h"

namespace abe {
namespace {

// The app under the β-synchronizer on `topology` with `delay`.
BetaRunResult run_beta(const Topology& topology, const SyncAppFactory& factory,
                       std::uint64_t rounds, DelayModelPtr delay,
                       std::uint64_t seed) {
  RuntimeConfig config =
      scenario_runtime_config(ScenarioSpec{}, topology, seed);
  config.delay = std::move(delay);
  config.deadline = 1e9;
  BetaRunResult result;
  const auto driver = make_beta_sync_driver(factory, rounds, &result);
  run_algorithm_trial(RuntimeKind::kSim, std::move(config), *driver);
  return result;
}

TEST(Beta, MatchesReferenceOnBroadcastGrid) {
  const Topology t = grid(3, 4);
  const auto ref = run_synchronous(t, broadcast_app_factory(0), 8);
  const auto beta = run_beta(t, broadcast_app_factory(0), 8,
                             exponential_delay(1.0), 5);
  ASSERT_TRUE(beta.completed);
  EXPECT_EQ(beta.outputs, ref.outputs);
}

TEST(Beta, MatchesReferenceOnMaxConsensus) {
  const Topology t = bidirectional_ring(10);
  std::vector<std::int64_t> values{4, 17, 3, 99, 5, 21, 8, 2, 54, 7};
  const auto ref = run_synchronous(t, max_app_factory(values), 6);
  const auto beta = run_beta(t, max_app_factory(values), 6,
                             exponential_delay(1.0), 11);
  ASSERT_TRUE(beta.completed);
  EXPECT_EQ(beta.outputs, ref.outputs);
}

TEST(Beta, MatchesReferenceUnderHeavyTails) {
  const Topology t = line(7);
  const auto ref = run_synchronous(t, broadcast_app_factory(3), 7);
  const auto beta = run_beta(t, broadcast_app_factory(3), 7,
                             lomax_delay(2.5, 1.0), 23);
  ASSERT_TRUE(beta.completed);
  EXPECT_EQ(beta.outputs, ref.outputs);
}

TEST(Beta, ManySeedsStaySound) {
  const Topology t = torus(3, 3);
  const auto ref = run_synchronous(t, broadcast_app_factory(4), 6);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto beta = run_beta(t, broadcast_app_factory(4), 6,
                               exponential_delay(1.0), seed);
    ASSERT_TRUE(beta.completed) << "seed=" << seed;
    ASSERT_EQ(beta.outputs, ref.outputs) << "seed=" << seed;
  }
}

TEST(Beta, AllRoundsExecute) {
  const Topology t = complete(6);
  const auto beta = run_beta(t, counter_app_factory(), 12,
                             exponential_delay(1.0), 3);
  ASSERT_TRUE(beta.completed);
  for (auto v : beta.outputs) EXPECT_EQ(v, 12);
}

// Theorem 1 bookkeeping: with a silent app, β's overhead is exactly the
// tree convergecast/broadcast: 2(n−1) messages per round (amortised; the
// first round has no GO yet and the last sends no new app messages).
TEST(Beta, SilentAppOverheadIsTreeOnly) {
  const Topology t = complete(8);  // alpha would pay |E| = 56 per round
  const std::uint64_t rounds = 20;
  const auto beta = run_beta(t, counter_app_factory(), rounds,
                             exponential_delay(1.0), 3);
  ASSERT_TRUE(beta.completed);
  // Expect ~2(n-1) per round: SAFE up + GO down. Allow the off-by-one
  // boundary rounds.
  const double per_round = beta.messages_per_round;
  EXPECT_GE(per_round, 2.0 * 7 - 2.0);
  EXPECT_LE(per_round, 2.0 * 7 + 2.0);
  // Still at least n-ish per round — Theorem 1's floor (n=8: 14 >= 8).
  EXPECT_GE(per_round, 8.0);
}

TEST(Beta, CheaperThanAlphaOnDenseGraphs) {
  const Topology t = complete(10);  // |E| = 90
  const std::uint64_t rounds = 10;
  const auto alpha = run_alpha_synchronizer(t, counter_app_factory(), rounds,
                                            exponential_delay(1.0), 3);
  const auto beta = run_beta(t, counter_app_factory(), rounds,
                             exponential_delay(1.0), 3);
  ASSERT_TRUE(alpha.completed);
  ASSERT_TRUE(beta.completed);
  EXPECT_LT(beta.messages_per_round, alpha.messages_per_round / 2.0);
}

TEST(Beta, SlowerThanAlphaOnDeepTopologies) {
  // The classic trade-off: β pays tree-height latency per round.
  const Topology t = line(16);
  const std::uint64_t rounds = 10;
  const auto alpha = run_alpha_synchronizer(t, counter_app_factory(), rounds,
                                            exponential_delay(1.0), 3);
  const auto beta = run_beta(t, counter_app_factory(), rounds,
                             exponential_delay(1.0), 3);
  ASSERT_TRUE(alpha.completed);
  ASSERT_TRUE(beta.completed);
  EXPECT_GT(beta.completion_time, alpha.completion_time);
}

TEST(Beta, SingleNode) {
  const auto beta = run_beta(unidirectional_ring(1), counter_app_factory(), 5,
                             exponential_delay(1.0), 1);
  ASSERT_TRUE(beta.completed);
  EXPECT_EQ(beta.outputs[0], 5);
  EXPECT_EQ(beta.messages_total, 0u);
}

TEST(BetaWiring, RoutesAreSane) {
  const Topology t = grid(2, 3);
  const auto plan = make_plan(t);
  std::vector<BetaWiring> wiring;
  for (std::size_t v = 0; v < t.n; ++v) wiring.push_back(beta_wiring(*plan, v));
  ASSERT_EQ(wiring.size(), 6u);
  EXPECT_TRUE(wiring[0].is_root);
  std::size_t total_children = 0;
  for (const auto& w : wiring) total_children += w.children_out.size();
  EXPECT_EQ(total_children, 5u);  // n - 1 tree edges
  const auto in_adj = in_adjacency(t);
  for (std::size_t v = 0; v < t.n; ++v) {
    EXPECT_EQ(wiring[v].reverse_of_in.size(), in_adj.degree(v));
  }
}

}  // namespace
}  // namespace abe
