// Tests for the baseline election algorithms (Itai–Rodeh, Chang–Roberts).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "algo/chang_roberts.h"
#include "algo/itai_rodeh.h"
#include "net/topology.h"
#include "scenario/drivers.h"
#include "stats/summary.h"

namespace abe {
namespace {

// One simulator trial of `driver` on an n-node unidirectional ring with
// `delay_name` delays of mean 1.
TrialOutcome run_on_ring(AlgorithmDriver& driver, std::size_t n,
                         std::uint64_t seed,
                         const std::string& delay_name = "exponential") {
  ScenarioSpec spec;
  spec.delay_name = delay_name;
  return run_algorithm_trial(
      RuntimeKind::kSim,
      scenario_runtime_config(spec, unidirectional_ring(n), seed), driver);
}

// ------------------------- Itai–Rodeh ---------------------------------

TEST(ItaiRodeh, SingleNode) {
  const auto result = run_on_ring(*make_itai_rodeh_driver(0, nullptr), 1, 1);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.safety_ok);
  EXPECT_EQ(result.decision_node, 0);
}

TEST(ItaiRodeh, ElectsExactlyOneAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    std::uint64_t rounds = 0;
    const auto result =
        run_on_ring(*make_itai_rodeh_driver(0, &rounds), 8, seed);
    ASSERT_TRUE(result.completed) << "seed=" << seed;
    ASSERT_TRUE(result.safety_ok) << "seed=" << seed;
    ASSERT_GE(result.decision_node, 0);
    ASSERT_LT(result.decision_node, 8);
    ASSERT_GE(rounds, 1u);
  }
}

TEST(ItaiRodeh, VariousRingSizes) {
  for (std::size_t n : {2, 3, 5, 16, 40}) {
    const auto result =
        run_on_ring(*make_itai_rodeh_driver(0, nullptr), n, 42);
    ASSERT_TRUE(result.completed) << "n=" << n;
    ASSERT_TRUE(result.safety_ok) << "n=" << n;
  }
}

TEST(ItaiRodeh, FixedDelayWorksToo) {
  const auto result =
      run_on_ring(*make_itai_rodeh_driver(0, nullptr), 12, 3, "fixed");
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.safety_ok);
}

TEST(ItaiRodeh, MessagesAtLeastN) {
  const auto result =
      run_on_ring(*make_itai_rodeh_driver(0, nullptr), 10, 9);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.messages, 10u);
}

TEST(ItaiRodeh, SmallIdRangeForcesRedraws) {
  // Two ids among four candidates: first-round ties are likely, and a tie
  // dirties the token so both holders redraw. Every seed must still elect
  // exactly one leader, and some seed must need a redraw.
  std::uint64_t max_rounds = 0;
  for (std::uint64_t seed = 11; seed <= 30; ++seed) {
    std::uint64_t rounds = 0;
    const auto result =
        run_on_ring(*make_itai_rodeh_driver(2, &rounds), 4, seed);
    ASSERT_TRUE(result.completed) << "seed=" << seed;
    ASSERT_TRUE(result.safety_ok) << "seed=" << seed;
    ASSERT_GE(rounds, 1u) << "seed=" << seed;
    max_rounds = std::max(max_rounds, rounds);
  }
  EXPECT_GE(max_rounds, 2u);
}

TEST(ItaiRodeh, TrialsAggregate) {
  Summary messages, rounds;
  for (std::uint64_t seed = 500; seed < 510; ++seed) {
    std::uint64_t round = 0;
    const auto result =
        run_on_ring(*make_itai_rodeh_driver(0, &round), 16, seed);
    ASSERT_TRUE(result.completed) << "seed=" << seed;
    ASSERT_TRUE(result.safety_ok) << "seed=" << seed;
    messages.add(static_cast<double>(result.messages));
    rounds.add(static_cast<double>(round));
  }
  EXPECT_EQ(messages.count(), 10u);
  EXPECT_GE(rounds.mean(), 1.0);
}

// The headline complexity contrast (full curves in bench E2): IR's
// per-election message mean exceeds the ABE election's on the same ring.
TEST(ItaiRodeh, CostlierThanAbeElectionHeadToHead) {
  Summary messages;
  for (std::uint64_t seed = 900; seed < 910; ++seed) {
    const auto result =
        run_on_ring(*make_itai_rodeh_driver(0, nullptr), 64, seed);
    ASSERT_TRUE(result.completed) << "seed=" << seed;
    messages.add(static_cast<double>(result.messages));
  }
  // IR sends at least one full n-token wave per round, ~n log n overall.
  EXPECT_GT(messages.mean(), 64.0 * 2);
}

// Seeded outcomes of a 6-ring, seeds 1-4 (exponential delays, FIFO
// channels): messages and time up to the election, the leader, its round.
TEST(ItaiRodeh, SeededOutcomesArePinned) {
  const std::uint64_t messages[] = {15, 25, 38, 26};
  const double times[] = {4.5312258003873689, 16.003135641444583,
                          12.875386718103075, 11.788104418627345};
  const std::int64_t leaders[] = {5, 0, 0, 0};
  const std::uint64_t leader_rounds[] = {1, 2, 3, 2};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::size_t k = seed - 1;
    std::uint64_t rounds = 0;
    const auto result =
        run_on_ring(*make_itai_rodeh_driver(0, &rounds), 6, seed);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.safety_ok);
    EXPECT_EQ(result.messages, messages[k]);
    EXPECT_NEAR(result.time, times[k], 1e-12 * times[k]);
    EXPECT_EQ(result.decision_node, leaders[k]);
    EXPECT_EQ(rounds, leader_rounds[k]);
  }
}

// ------------------------- Chang–Roberts -------------------------------

TEST(ChangRoberts, SingleNode) {
  const auto result = run_on_ring(*make_chang_roberts_driver(), 1, 1);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.safety_ok);
}

TEST(ChangRoberts, MaxIdWinsAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto result = run_on_ring(*make_chang_roberts_driver(), 9, seed);
    ASSERT_TRUE(result.completed) << "seed=" << seed;
    ASSERT_TRUE(result.safety_ok) << "seed=" << seed;
  }
}

TEST(ChangRoberts, MessageBounds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result = run_on_ring(*make_chang_roberts_driver(), 12, seed);
    ASSERT_TRUE(result.completed);
    // Lower bound: winner's token circles (n) plus each other node sends
    // its own token once (n-1). Upper bound: n(n+1)/2 + n.
    EXPECT_GE(result.messages, 2u * 12 - 1);
    EXPECT_LE(result.messages, 12u * 13 / 2 + 12);
  }
}

TEST(ChangRoberts, WorksUnderAllDelayModels) {
  for (const char* delay : {"fixed", "exponential", "lomax"}) {
    const auto result =
        run_on_ring(*make_chang_roberts_driver(), 10, 77, delay);
    ASSERT_TRUE(result.completed) << delay;
    ASSERT_TRUE(result.safety_ok) << delay;
  }
}

TEST(ChangRoberts, TrialsAggregate) {
  Summary messages;
  for (std::uint64_t seed = 300; seed < 310; ++seed) {
    const auto result = run_on_ring(*make_chang_roberts_driver(), 20, seed);
    ASSERT_TRUE(result.completed) << "seed=" << seed;
    ASSERT_TRUE(result.safety_ok) << "seed=" << seed;
    messages.add(static_cast<double>(result.messages));
  }
  // Average-case CR: ~n·H_n messages; definitely more than 2n.
  EXPECT_GT(messages.mean(), 40.0);
}

// Seeded outcomes of a 7-ring, seeds 1-4 (exponential delays): messages
// and time up to the election, and the leader (the node holding id 7).
TEST(ChangRoberts, SeededOutcomesArePinned) {
  const std::uint64_t messages[] = {19, 18, 21, 18};
  const double times[] = {8.9105043261262207, 7.0165094452022929,
                          6.101539395011268, 6.8346393811942114};
  const std::int64_t leaders[] = {6, 1, 0, 2};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::size_t k = seed - 1;
    const auto result = run_on_ring(*make_chang_roberts_driver(), 7, seed);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.safety_ok);
    EXPECT_EQ(result.messages, messages[k]);
    EXPECT_NEAR(result.time, times[k], 1e-12 * times[k]);
    EXPECT_EQ(result.decision_node, leaders[k]);
  }
}

}  // namespace
}  // namespace abe
