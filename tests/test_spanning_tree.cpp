// Tests for the BFS spanning-tree substrate, the sparse out-channel lookup
// and the tree wirings built on it.
#include "net/spanning_tree.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algo/polling_election.h"
#include "scenario/scenario.h"
#include "syncr/beta.h"

namespace abe {
namespace {

void expect_valid_tree(const SpanningTree& tree, std::size_t n) {
  ASSERT_EQ(tree.parent.size(), n);
  EXPECT_EQ(tree.parent[tree.root], tree.root);
  EXPECT_EQ(tree.depth[tree.root], 0u);
  // Every non-root has a parent with smaller depth; edges total n-1.
  std::size_t child_links = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (v != tree.root) {
      EXPECT_EQ(tree.depth[v], tree.depth[tree.parent[v]] + 1);
    }
    child_links += tree.children[v].size();
    for (std::size_t c : tree.children[v]) {
      EXPECT_EQ(tree.parent[c], v);
    }
  }
  EXPECT_EQ(child_links, n - 1);
  EXPECT_EQ(tree.edge_count(), n - 1);
}

TEST(SpanningTree, LineIsAPath) {
  const Topology t = line(6);
  const SpanningTree tree = bfs_spanning_tree(t, 0);
  expect_valid_tree(tree, 6);
  EXPECT_EQ(tree.height(), 5u);
  for (std::size_t v = 1; v < 6; ++v) {
    EXPECT_EQ(tree.parent[v], v - 1);
  }
}

TEST(SpanningTree, StarFromHubHasHeightOne) {
  const SpanningTree tree = bfs_spanning_tree(star(9), 0);
  expect_valid_tree(tree, 9);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.children[0].size(), 8u);
}

TEST(SpanningTree, StarFromSpokeHasHeightTwo) {
  const SpanningTree tree = bfs_spanning_tree(star(9), 3);
  expect_valid_tree(tree, 9);
  EXPECT_EQ(tree.height(), 2u);
}

TEST(SpanningTree, GridBfsDepthsAreManhattan) {
  const SpanningTree tree = bfs_spanning_tree(grid(3, 4), 0);
  expect_valid_tree(tree, 12);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(tree.depth[r * 4 + c], r + c);
    }
  }
}

TEST(SpanningTree, CompleteGraphHeightOne) {
  const SpanningTree tree = bfs_spanning_tree(complete(7), 2);
  expect_valid_tree(tree, 7);
  EXPECT_EQ(tree.height(), 1u);
}

TEST(SpanningTree, SingleNode) {
  const SpanningTree tree = bfs_spanning_tree(unidirectional_ring(1), 0);
  EXPECT_EQ(tree.edge_count(), 0u);
  EXPECT_EQ(tree.height(), 0u);
}

TEST(SpanningTree, UnidirectionalRingRejected) {
  // Tree edges need reverse channels; a one-way ring has none.
  EXPECT_DEATH(bfs_spanning_tree(unidirectional_ring(4), 0), "reverse");
}

TEST(SpanningTree, NodeUnreachableFromRootRejected) {
  // 0 <-> 1 and 2 -> 0: node 2 reaches the root, the root never reaches 2.
  Topology t;
  t.n = 3;
  t.edges = {{0, 1}, {1, 0}, {2, 0}};
  EXPECT_DEATH(bfs_spanning_tree(t, 0), "strongly connected");
}

TEST(SpanningTree, ReachableButNotStronglyConnectedRejected) {
  // 0 <-> 1 and 0 -> 2: the root reaches every node, but 2 is a sink, so
  // the tree edge 0 -> 2 has no way back.
  Topology t;
  t.n = 3;
  t.edges = {{0, 1}, {1, 0}, {0, 2}};
  EXPECT_DEATH(bfs_spanning_tree(t, 0), "reverse");
}

// Brute-force reference for OutChannelIndex: scan u's out-channels in
// out_adjacency order; with parallel edges the last one wins.
std::size_t brute_force_channel(const Topology& t, const Adjacency& out,
                                std::size_t u, std::size_t v) {
  std::size_t found = OutChannelIndex::kNone;
  for (std::size_t k = 0; k < out.degree(u); ++k) {
    if (t.edges[out.of(u)[k]].to == v) found = k;
  }
  return found;
}

void expect_index_matches_brute_force(const Topology& t) {
  const OutChannelIndex index(t);
  const auto out = out_adjacency(t);
  for (std::size_t u = 0; u < t.n; ++u) {
    for (std::size_t v = 0; v < t.n; ++v) {
      EXPECT_EQ(index.channel(u, v), brute_force_channel(t, out, u, v))
          << t.name << " " << u << "->" << v;
    }
  }
}

TEST(SpanningTree, OutChannelMapConsistent) {
  const Topology t = grid(2, 3);
  const OutChannelIndex index(t);
  const auto out = out_adjacency(t);
  for (std::size_t u = 0; u < t.n; ++u) {
    for (std::size_t k = 0; k < out.degree(u); ++k) {
      const std::size_t v = t.edges[out.of(u)[k]].to;
      EXPECT_EQ(index.channel(u, v), k);
    }
  }
}

TEST(SpanningTree, OutChannelIndexNonNeighbourIsNone) {
  // grid(2, 3): 0-1-2 over 3-4-5; node 0 reaches only 1 and 3.
  const OutChannelIndex index(grid(2, 3));
  EXPECT_NE(index.channel(0, 1), OutChannelIndex::kNone);
  EXPECT_NE(index.channel(0, 3), OutChannelIndex::kNone);
  for (std::size_t v : {0u, 2u, 4u, 5u}) {
    EXPECT_EQ(index.channel(0, v), OutChannelIndex::kNone) << "0->" << v;
  }
  // One-way ring: the reverse direction has no channel.
  const OutChannelIndex ring(unidirectional_ring(5));
  EXPECT_EQ(ring.channel(2, 3), 0u);
  EXPECT_EQ(ring.channel(3, 2), OutChannelIndex::kNone);
}

TEST(SpanningTree, OutChannelIndexMatchesBruteForce) {
  expect_index_matches_brute_force(complete(7));
  expect_index_matches_brute_force(hypercube(6));
}

TEST(SpanningTree, OutChannelIndexParallelEdgesLastWins) {
  Topology t;
  t.n = 3;
  t.edges = {{0, 1}, {0, 2}, {0, 1}, {1, 0}, {2, 0}};
  const OutChannelIndex index(t);
  EXPECT_EQ(index.channel(0, 1), 2u);
  EXPECT_EQ(index.channel(0, 2), 1u);
  expect_index_matches_brute_force(t);
}

// Reference BFS straight over topology.edges (a node's out-edges in edge
// order, as out_adjacency lists them), without any adjacency structure.
SpanningTree reference_bfs_tree(const Topology& t, std::size_t root) {
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(t.n, kUnset);
  tree.children.assign(t.n, {});
  tree.depth.assign(t.n, 0);
  tree.parent[root] = root;
  std::vector<std::size_t> queue{root};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    for (const Edge& e : t.edges) {
      if (e.from != u || tree.parent[e.to] != kUnset) continue;
      tree.parent[e.to] = u;
      tree.children[u].push_back(e.to);
      tree.depth[e.to] = tree.depth[u] + 1;
      queue.push_back(e.to);
    }
  }
  return tree;
}

TEST(SpanningTree, SharedAdjacencyMatchesStandaloneForEveryFamily) {
  for (TopologyFamily family :
       {TopologyFamily::kRingUni, TopologyFamily::kRingBi,
        TopologyFamily::kLine, TopologyFamily::kStar,
        TopologyFamily::kComplete, TopologyFamily::kGrid,
        TopologyFamily::kTorus, TopologyFamily::kHypercube,
        TopologyFamily::kGnp, TopologyFamily::kGeometric}) {
    for (std::size_t n : {1u, 4u, 12u, 16u}) {
      const TopologySpec spec{family, n, 0.0};
      if (!spec.problem().empty()) continue;
      Rng rng(n + 7);
      const Topology t = spec.build(rng);
      SCOPED_TRACE(std::string(topology_family_name(family)) + " n=" +
                   std::to_string(n));
      const Adjacency out = out_adjacency(t);
      const OutChannelIndex shared(t, out);
      const OutChannelIndex standalone(t);
      for (std::size_t u = 0; u < t.n; ++u) {
        for (std::size_t v = 0; v < t.n; ++v) {
          EXPECT_EQ(shared.channel(u, v), standalone.channel(u, v))
              << u << "->" << v;
          EXPECT_EQ(shared.channel(u, v), brute_force_channel(t, out, u, v))
              << u << "->" << v;
        }
      }
      // The one-way ring (n > 1) has no reverse channels: no tree.
      if (family == TopologyFamily::kRingUni && n > 1) continue;
      const std::size_t root = n / 2;
      const SpanningTree a = bfs_spanning_tree(t, root, out, shared);
      const SpanningTree b = bfs_spanning_tree(t, root);
      const SpanningTree ref = reference_bfs_tree(t, root);
      for (const SpanningTree* tree : {&a, &b}) {
        EXPECT_EQ(tree->root, ref.root);
        EXPECT_EQ(tree->parent, ref.parent);
        EXPECT_EQ(tree->children, ref.children);
        EXPECT_EQ(tree->depth, ref.depth);
      }
    }
  }
}

// --- wiring equivalence -----------------------------------------------------

// The polling and β wiring, rebuilt from the tree with the brute-force
// channel scan, must equal what build_polling_wiring and build_beta_wiring
// produce with OutChannelIndex.
void expect_polling_wiring_matches_reference(const Topology& t) {
  const std::vector<PollingWiring> got = build_polling_wiring(t, 0);
  const SpanningTree tree = bfs_spanning_tree(t, 0);
  const auto out = out_adjacency(t);
  ASSERT_EQ(got.size(), t.n);
  for (std::size_t v = 0; v < t.n; ++v) {
    EXPECT_EQ(got[v].is_root, v == 0);
    if (v != 0) {
      EXPECT_EQ(got[v].parent_out,
                brute_force_channel(t, out, v, tree.parent[v]))
          << t.name << " node " << v;
    }
    std::vector<std::size_t> children;
    for (std::size_t c : tree.children[v]) {
      children.push_back(brute_force_channel(t, out, v, c));
    }
    EXPECT_EQ(got[v].children_out, children) << t.name << " node " << v;
  }
}

void expect_beta_wiring_matches_reference(const Topology& t) {
  const SpanningTree tree = bfs_spanning_tree(t, 0);
  const std::vector<BetaWiring> got = build_beta_wiring(t, tree);
  const auto out = out_adjacency(t);
  const auto in = in_adjacency(t);
  ASSERT_EQ(got.size(), t.n);
  for (std::size_t v = 0; v < t.n; ++v) {
    EXPECT_EQ(got[v].is_root, v == tree.root);
    if (v != tree.root) {
      EXPECT_EQ(got[v].parent_out,
                brute_force_channel(t, out, v, tree.parent[v]));
    }
    std::vector<std::size_t> children;
    for (std::size_t c : tree.children[v]) {
      children.push_back(brute_force_channel(t, out, v, c));
    }
    EXPECT_EQ(got[v].children_out, children) << t.name << " node " << v;
    std::vector<std::size_t> reverse;
    for (std::size_t e : in.of(v)) {
      reverse.push_back(brute_force_channel(t, out, v, t.edges[e].from));
    }
    EXPECT_EQ(got[v].reverse_of_in, reverse) << t.name << " node " << v;
  }
}

TEST(WiringEquivalence, EveryFamilyMatchesBruteForceReference) {
  // Every family but the one-way ring, which has no reverse channels for
  // the echo/ack routes (rejected above).
  for (TopologyFamily family :
       {TopologyFamily::kRingBi, TopologyFamily::kLine, TopologyFamily::kStar,
        TopologyFamily::kComplete, TopologyFamily::kGrid,
        TopologyFamily::kTorus, TopologyFamily::kHypercube,
        TopologyFamily::kGnp, TopologyFamily::kGeometric}) {
    for (std::size_t n : {4u, 12u, 16u}) {
      const TopologySpec spec{family, n, 0.0};
      if (!spec.problem().empty()) continue;  // e.g. hypercube of 12
      Rng rng(n);
      const Topology t = spec.build(rng);
      SCOPED_TRACE(std::string(topology_family_name(family)) + " n=" +
                   std::to_string(n));
      expect_polling_wiring_matches_reference(t);
      expect_beta_wiring_matches_reference(t);
    }
  }
}

TEST(WiringEquivalence, PollingWiringOnTorus100x100) {
  // n = 10^4: the dense n×n channel map this replaced took 800 MB per call.
  expect_polling_wiring_matches_reference(torus(100, 100));
}

}  // namespace
}  // namespace abe
