// Behavioural tests for the ABE ring election (paper Section 3).
#include "core/election.h"

#include <gtest/gtest.h>

#include "core/harness.h"
#include "net/network.h"
#include "net/topology.h"
#include "scenario/drivers.h"
#include "scenario/sweep.h"

namespace abe {
namespace {

// One election at A0 = 0.3 on the n-node unidirectional ring with the
// default scenario environment (exponential delays of mean 1).
ElectionRunResult elect(std::size_t n, std::uint64_t seed,
                        SimTime settle_time = 50.0, bool trace = false) {
  ScenarioSpec spec;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, n, 0.0};
  RuntimeConfig config =
      scenario_runtime_config(spec, trial_plan(spec.topology, seed), seed);
  config.trace = trace;
  ElectionOptions options;
  options.a0 = 0.3;
  ElectionRunResult result;
  const auto driver = make_ring_election_driver(options, settle_time,
                                                /*adversarial=*/false, &result);
  run_algorithm_trial(RuntimeKind::kSim, std::move(config), *driver);
  return result;
}

TEST(Election, SingleNodeElectsItself) {
  const auto result = elect(1, 1);
  EXPECT_TRUE(result.elected);
  EXPECT_TRUE(result.safety_ok) << result.safety_detail;
  EXPECT_EQ(result.leader_index, 0u);
  EXPECT_EQ(result.messages, 0u);  // no channels exist, none needed
}

TEST(Election, TwoNodesElectExactlyOne) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto result = elect(2, seed);
    ASSERT_TRUE(result.elected) << "seed " << seed;
    ASSERT_TRUE(result.safety_ok) << "seed " << seed << ": "
                                  << result.safety_detail;
  }
}

TEST(Election, MediumRingBasics) {
  const auto result = elect(16, 7);
  ASSERT_TRUE(result.elected);
  EXPECT_TRUE(result.safety_ok) << result.safety_detail;
  EXPECT_LT(result.leader_index, 16u);
  // The winning message alone crosses n channels.
  EXPECT_GE(result.messages, 16u);
  EXPECT_GT(result.election_time, 0.0);
  EXPECT_GE(result.activations, 1u);
  EXPECT_EQ(result.max_leaders_ever, 1u);
}

TEST(Election, NoSecondLeaderDuringLongSettle) {
  const auto result = elect(12, 3, /*settle_time=*/2000.0);
  ASSERT_TRUE(result.elected);
  EXPECT_TRUE(result.safety_ok) << result.safety_detail;
  EXPECT_EQ(result.max_leaders_ever, 1u);
  // Once everyone is passive nothing circulates: the settle window adds no
  // messages.
  EXPECT_EQ(result.messages_total, result.messages);
}

TEST(Election, PurgeCountMatchesFailedActivations) {
  const auto result = elect(24, 11);
  ASSERT_TRUE(result.elected);
  // Every activation sends one message; every message either knocks out its
  // originator's competitor chain or elects. Message conservation:
  // activations = purges (every sent token is eventually purged at an
  // active/leader node — the final one at the leader itself).
  EXPECT_EQ(result.activations, result.purges);
}

TEST(Election, TraceShowsKnockoutPattern) {
  const auto result = elect(4, 5, 50.0, /*trace=*/true);
  ASSERT_TRUE(result.elected);
}

// Direct state-machine probing on a hand-built 3-ring with huge tick period
// (so no spontaneous activations interfere): we drive one node manually by
// injecting messages through a neighbour.
class ScriptedSender final : public Node {
 public:
  void on_message(Context&, std::size_t, const Payload&) override {}
  void on_start(Context& ctx) override {
    ctx.send(0, std::make_unique<HopPayload>(1));
  }
};

TEST(Election, IdleReceiverBecomesPassiveAndForwardsDPlusOne) {
  NetworkConfig config;
  config.topology = unidirectional_ring(3);
  config.delay = fixed_delay(1.0);
  config.enable_ticks = false;  // freeze spontaneous activity
  config.seed = 2;
  Network net(std::move(config));
  net.trace().enable();

  ElectionOptions options;
  options.a0 = 0.5;
  net.add_node(std::make_unique<ScriptedSender>());
  auto* b = new ElectionNode(options);
  auto* c = new ElectionNode(options);
  net.add_node(NodePtr(b));
  net.add_node(NodePtr(c));
  net.start();
  net.run_until_quiescent(10.0);

  // B received <1>: passive, d = 1, forwarded <2> to C.
  EXPECT_EQ(b->state(), ElectionState::kPassive);
  EXPECT_EQ(b->d(), 1u);
  EXPECT_EQ(b->forwards(), 1u);
  // C received <2>: passive, d = 2, forwarded <3> to A (scripted, ignores).
  EXPECT_EQ(c->state(), ElectionState::kPassive);
  EXPECT_EQ(c->d(), 2u);
}

TEST(Election, HopNeverExceedsRingSize) {
  const auto result = elect(8, 17, 50.0, /*trace=*/true);
  ASSERT_TRUE(result.elected);
  // ABE_CHECK inside ElectionNode::on_message would have aborted otherwise;
  // reaching here with safety_ok is the assertion.
  EXPECT_TRUE(result.safety_ok) << result.safety_detail;
}

TEST(Election, ObserverSeesEveryLeaderTransition) {
  struct Counting : ElectionObserver {
    int leaders = 0;
    int transitions = 0;
    void on_state_change(NodeId, ElectionState, ElectionState to,
                         SimTime) override {
      ++transitions;
      if (to == ElectionState::kLeader) ++leaders;
    }
  } obs;

  NetworkConfig config;
  config.topology = unidirectional_ring(8);
  config.delay = exponential_delay(1.0);
  config.enable_ticks = true;
  config.seed = 9;
  Network net(std::move(config));
  ElectionOptions options;
  options.a0 = 0.3;
  options.observer = &obs;
  net.build_nodes([&](std::size_t) -> NodePtr {
    return std::make_unique<ElectionNode>(options);
  });
  net.start();
  ASSERT_TRUE(net.run_until([&] { return obs.leaders > 0; }, 1e6));
  EXPECT_EQ(obs.leaders, 1);
  EXPECT_GE(obs.transitions, 8);  // at least each node left idle once
}

TEST(Election, InvalidA0Rejected) {
  ElectionOptions options;
  options.a0 = 0.0;
  EXPECT_DEATH(ElectionNode{options}, "");
  options.a0 = 1.0;
  EXPECT_DEATH(ElectionNode{options}, "");
}

TEST(Election, DeterministicGivenSeed) {
  const auto a = elect(16, 123);
  const auto b = elect(16, 123);
  ASSERT_TRUE(a.elected);
  EXPECT_EQ(a.leader_index, b.leader_index);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.election_time, b.election_time);
  EXPECT_EQ(a.ticks, b.ticks);
}

TEST(Election, DifferentSeedsDifferentOutcomes) {
  int distinct_leaders = 0;
  std::size_t first = elect(16, 1).leader_index;
  for (std::uint64_t seed = 2; seed <= 10; ++seed) {
    if (elect(16, seed).leader_index != first) {
      ++distinct_leaders;
    }
  }
  EXPECT_GT(distinct_leaders, 0);  // anonymity: no fixed winner
}

TEST(Election, TrialsAggregateIsConsistent) {
  ScenarioSpec spec;
  spec.topology = TopologySpec{TopologyFamily::kRingUni, 8, 0.0};
  spec.a0 = 0.3;
  spec.settle_time = 50.0;
  const ScenarioAggregate agg = run_scenario_trials(spec, 20, 100);
  EXPECT_EQ(agg.trials, 20u);
  EXPECT_EQ(agg.failures, 0u);
  EXPECT_EQ(agg.safety_violations, 0u);
  EXPECT_EQ(agg.messages.count(), 20u);
  EXPECT_GE(agg.messages.min(), 8.0);
  EXPECT_GT(agg.time.mean(), 0.0);
}

}  // namespace
}  // namespace abe
