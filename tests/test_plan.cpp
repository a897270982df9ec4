// Tests for NetworkPlan (net/plan.h) and the scenario engine's plan cache
// (scenario/scenario.h, trial_plan): deterministic cells share one plan
// across seeds and trial-pool threads, random cells get a fresh one per
// trial, the cache stays bounded, and the plan's lazily built tree is the
// BFS tree bfs_spanning_tree builds.
#include "net/plan.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace abe {
namespace {

constexpr TopologyFamily kFamilies[] = {
    TopologyFamily::kRingUni,  TopologyFamily::kRingBi,
    TopologyFamily::kLine,     TopologyFamily::kStar,
    TopologyFamily::kComplete, TopologyFamily::kGrid,
    TopologyFamily::kTorus,    TopologyFamily::kHypercube,
    TopologyFamily::kGnp,      TopologyFamily::kGeometric};

std::string label(const TopologySpec& spec) {
  return std::string(topology_family_name(spec.family)) +
         " n=" + std::to_string(spec.n);
}

TEST(Plan, DeterministicFamiliesShareOnePlanAcrossSeeds) {
  for (TopologyFamily family : kFamilies) {
    const TopologySpec spec{family, 16, 0.0};
    if (spec.is_random()) continue;
    SCOPED_TRACE(label(spec));
    const auto first = trial_plan(spec, 1);
    const auto second = trial_plan(spec, 2);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(first->size(), 16u);
  }
}

TEST(Plan, RandomFamiliesGetAFreshPlanPerSeed) {
  for (TopologyFamily family :
       {TopologyFamily::kGnp, TopologyFamily::kGeometric}) {
    const TopologySpec spec{family, 16, 0.0};
    ASSERT_TRUE(spec.is_random());
    SCOPED_TRACE(label(spec));
    const auto first = trial_plan(spec, 1);
    const auto again = trial_plan(spec, 1);
    const auto second = trial_plan(spec, 2);
    EXPECT_NE(first.get(), again.get());
    EXPECT_NE(first.get(), second.get());
    // Each is the graph the seed's topology substream draws.
    Rng rng = Rng(2).substream("scenario-topology");
    const Topology want = spec.build(rng);
    const Topology& got = second->topology();
    ASSERT_EQ(got.n, want.n);
    ASSERT_EQ(got.edges.size(), want.edges.size());
    for (std::size_t e = 0; e < want.edges.size(); ++e) {
      EXPECT_EQ(got.edges[e].from, want.edges[e].from) << "edge " << e;
      EXPECT_EQ(got.edges[e].to, want.edges[e].to) << "edge " << e;
    }
  }
}

TEST(Plan, CacheStaysBounded) {
  // More distinct deterministic cells than the cache holds.
  std::vector<std::shared_ptr<const NetworkPlan>> held;
  for (std::size_t n = 3; n < 3 + 2 * kPlanCacheCapacity; ++n) {
    held.push_back(trial_plan(TopologySpec{TopologyFamily::kLine, n, 0.0}, 1));
    EXPECT_LE(cached_plan_count(), kPlanCacheCapacity);
  }
  EXPECT_EQ(cached_plan_count(), kPlanCacheCapacity);
  // The oldest cell was evicted: asking again builds a new plan, while the
  // caller's copy of the old one stays valid.
  const auto rebuilt =
      trial_plan(TopologySpec{TopologyFamily::kLine, 3, 0.0}, 1);
  EXPECT_NE(rebuilt.get(), held.front().get());
  EXPECT_EQ(held.front()->size(), 3u);
  // The most recent one is still cached.
  const std::size_t last_n = 2 + 2 * kPlanCacheCapacity;
  EXPECT_EQ(trial_plan(TopologySpec{TopologyFamily::kLine, last_n, 0.0}, 1)
                .get(),
            held.back().get());
}

TEST(Plan, TreeMatchesBfsSpanningTreeForEveryFamily) {
  for (TopologyFamily family : kFamilies) {
    for (std::size_t n : {1u, 4u, 12u, 16u}) {
      const TopologySpec spec{family, n, 0.0};
      if (!spec.problem().empty()) continue;  // e.g. hypercube of 12
      // The one-way ring (n > 1) has no reverse channels: no tree.
      if (family == TopologyFamily::kRingUni && n > 1) continue;
      SCOPED_TRACE(label(spec));
      const auto plan = trial_plan(spec, 7);
      const SpanningTree want = bfs_spanning_tree(plan->topology(), 0);
      const PlanTree& got = plan->tree();
      EXPECT_EQ(got.root, want.root);
      EXPECT_EQ(got.parent, want.parent);
      EXPECT_EQ(got.depth, want.depth);
      EXPECT_EQ(got.order, want.order);
      EXPECT_EQ(got.children_begin, want.children_begin);
      EXPECT_EQ(got.children_end, want.children_end);
    }
  }
}

TEST(Plan, EdgeEndsMatchInAdjacency) {
  const auto plan = make_plan(torus(4, 5));
  const std::vector<std::size_t> in_index = plan->in().local_indices();
  for (std::size_t e = 0; e < plan->edge_count(); ++e) {
    EXPECT_EQ(plan->end(e).to, plan->topology().edges[e].to);
    EXPECT_EQ(plan->end(e).in_index, in_index[e]);
  }
}

TEST(Plan, TreeOfOneWayRingAborts) {
  const auto plan = make_plan(unidirectional_ring(4));
  EXPECT_EQ(plan->out().degree(0), 1u);  // the plan itself is fine
  EXPECT_DEATH(plan->tree(), "reverse");
}

// Trial-pool workers share plans: the first tree() calls race, and every
// caller must see the one tree. Run under TSan in CI.
TEST(PlanSharing, ConcurrentTreeCallsSeeOneTree) {
  const auto plan = make_plan(torus(30, 30));
  std::vector<const PlanTree*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&plan, &seen, i] { seen[i] = &plan->tree(); });
  }
  for (std::thread& t : threads) t.join();
  for (const PlanTree* tree : seen) EXPECT_EQ(tree, seen.front());
  EXPECT_EQ(seen.front()->order.size(), 900u);
}

// β's ack routes sit behind their own once_flag, apart from the tree: the
// first reverse_of_in() calls race the same way, and alongside tree()
// calls.
TEST(PlanSharing, ConcurrentAckRouteCallsSeeOneTable) {
  const auto plan = make_plan(torus(30, 30));
  std::vector<const std::size_t*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&plan, &seen, i] {
      if (i % 2 == 0) plan->tree();
      seen[i] = plan->reverse_of_in(0).begin();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::size_t* routes : seen) EXPECT_EQ(routes, seen.front());
  // Every in-channel of a torus has a reverse out-channel.
  for (std::size_t v = 0; v < plan->size(); ++v) {
    const Adjacency::Span reverse = plan->reverse_of_in(v);
    ASSERT_EQ(reverse.size(), plan->in().degree(v));
    for (std::size_t k = 0; k < reverse.size(); ++k) {
      EXPECT_EQ(plan->topology().edges[plan->out().of(v)[reverse[k]]].to,
                plan->topology().edges[plan->in().of(v)[k]].from);
    }
  }
}

TEST(PlanSharing, PoolWidthFourEqualsWidthOneOnACachedCell) {
  ScenarioSpec cell;
  cell.algorithm = ScenarioAlgorithm::kPollingElection;
  // A cell no other test here touches (the torus ignores param, but the
  // cache keys on it), so the width-4 pool's workers race to build the
  // plan's tree.
  cell.topology = TopologySpec{TopologyFamily::kTorus, 36, 0.5};
  const ScenarioAggregate wide = run_scenario_trials(cell, 21, 300, 4);
  const ScenarioAggregate serial = run_scenario_trials(cell, 21, 300, 1);
  EXPECT_EQ(serial.trials, 21u);
  EXPECT_EQ(serial.safety_violations, 0u);
  EXPECT_EQ(wide.trials, serial.trials);
  EXPECT_EQ(wide.failures, serial.failures);
  EXPECT_EQ(wide.stalled, serial.stalled);
  EXPECT_EQ(wide.safety_violations, serial.safety_violations);
  EXPECT_TRUE(wide.messages == serial.messages);
  EXPECT_TRUE(wide.time == serial.time);
  EXPECT_TRUE(wide.metrics == serial.metrics);
}

}  // namespace
}  // namespace abe
