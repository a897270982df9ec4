// Unit tests for topology builders and graph utilities.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "scenario/scenario.h"

namespace abe {
namespace {

TEST(Topology, UnidirectionalRingShape) {
  const Topology t = unidirectional_ring(5);
  EXPECT_EQ(t.n, 5u);
  EXPECT_EQ(t.edge_count(), 5u);
  const auto out = out_adjacency(t);
  const auto in = in_adjacency(t);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(out.degree(i), 1u);
    ASSERT_EQ(in.degree(i), 1u);
    EXPECT_EQ(t.edges[out.of(i)[0]].to, (i + 1) % 5);
  }
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 4u);
}

TEST(Topology, SingleNodeRingHasNoEdges) {
  const Topology t = unidirectional_ring(1);
  EXPECT_EQ(t.n, 1u);
  EXPECT_EQ(t.edge_count(), 0u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 0u);
}

TEST(Topology, TwoNodeRing) {
  const Topology t = unidirectional_ring(2);
  EXPECT_EQ(t.edge_count(), 2u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 1u);
}

TEST(Topology, BidirectionalRingShape) {
  const Topology t = bidirectional_ring(6);
  EXPECT_EQ(t.edge_count(), 12u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 3u);
}

TEST(Topology, LineShapeAndDiameter) {
  const Topology t = line(7);
  EXPECT_EQ(t.edge_count(), 12u);  // 6 hops * 2 directions
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 6u);
}

TEST(Topology, StarShape) {
  const Topology t = star(9);
  EXPECT_EQ(t.edge_count(), 16u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 2u);
  const auto out = out_adjacency(t);
  EXPECT_EQ(out.degree(0), 8u);  // hub
  EXPECT_EQ(out.degree(3), 1u);  // spoke
}

TEST(Topology, CompleteShape) {
  const Topology t = complete(5);
  EXPECT_EQ(t.edge_count(), 20u);
  EXPECT_EQ(diameter(t), 1u);
}

TEST(Topology, GridShape) {
  const Topology t = grid(3, 4);
  EXPECT_EQ(t.n, 12u);
  // Horizontal: 3 rows * 3 hops * 2; vertical: 2 * 4 * 2.
  EXPECT_EQ(t.edge_count(), 34u);
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 5u);  // (3-1) + (4-1)
}

TEST(Topology, TorusShapeAndDiameter) {
  const Topology t = torus(4, 4);
  EXPECT_EQ(t.n, 16u);
  EXPECT_EQ(t.edge_count(), 64u);  // 2*n edges, both directions
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 4u);  // wraparound halves distances
}

TEST(Topology, TorusTwoByTwoDeduplicates) {
  const Topology t = torus(2, 2);
  EXPECT_TRUE(is_strongly_connected(t));
  // Each node has exactly 2 distinct neighbours; duplicate wrap edges were
  // dropped rather than doubled.
  const auto out = out_adjacency(t);
  for (std::size_t i = 0; i < t.n; ++i) {
    EXPECT_EQ(out.degree(i), 2u);
  }
}

// The torus builder as it was written with a std::set dedup: every wrap
// link is offered in both directions at every position and repeats are
// dropped. torus() must emit the identical edge list without the set.
Topology set_dedup_torus(std::size_t rows, std::size_t cols) {
  Topology t;
  t.n = rows * cols;
  t.name = "torus";
  auto id = [cols](std::size_t r, std::size_t c) { return r * cols + c; };
  std::set<std::pair<std::size_t, std::size_t>> seen;
  auto add = [&](std::size_t a, std::size_t b) {
    if (a == b) return;
    if (seen.insert({a, b}).second) t.edges.push_back(Edge{a, b});
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      add(id(r, c), id(r, (c + 1) % cols));
      add(id(r, (c + 1) % cols), id(r, c));
      add(id(r, c), id((r + 1) % rows, c));
      add(id((r + 1) % rows, c), id(r, c));
    }
  }
  return t;
}

TEST(Topology, TorusEqualsSetDedupReference) {
  // Covers 2x2, 2xk and kx2, where one or both dimensions wrap onto the
  // same neighbour, and the duplicate-free k x k case.
  for (std::size_t rows : {2u, 3u, 4u, 7u}) {
    for (std::size_t cols : {2u, 3u, 4u, 7u}) {
      const Topology got = torus(rows, cols);
      const Topology want = set_dedup_torus(rows, cols);
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
      EXPECT_EQ(got.n, want.n);
      EXPECT_EQ(got.name, want.name);
      ASSERT_EQ(got.edges.size(), want.edges.size());
      for (std::size_t e = 0; e < got.edges.size(); ++e) {
        EXPECT_EQ(got.edges[e].from, want.edges[e].from) << "edge " << e;
        EXPECT_EQ(got.edges[e].to, want.edges[e].to) << "edge " << e;
      }
    }
  }
}

TEST(Topology, HypercubeShape) {
  const Topology t = hypercube(4);
  EXPECT_EQ(t.n, 16u);
  EXPECT_EQ(t.edge_count(), 64u);  // n * dim
  EXPECT_TRUE(is_strongly_connected(t));
  EXPECT_EQ(diameter(t), 4u);
}

TEST(Topology, HypercubeDimZeroIsSingleton) {
  const Topology t = hypercube(0);
  EXPECT_EQ(t.n, 1u);
  EXPECT_EQ(t.edge_count(), 0u);
}

// FNV-1a digest of an edge list: stable fingerprint for the cross-platform
// determinism properties below (the Rng is our own xoshiro — bit-identical
// everywhere — so a fixed seed must give a fixed graph on every platform).
std::uint64_t edge_digest(const Topology& t) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(t.n);
  for (const Edge& e : t.edges) {
    mix(e.from);
    mix(e.to);
  }
  return h;
}

// Property: every random topology is strongly connected and deterministic
// for a fixed Rng seed — including the tiny-n corners, where the documented
// clamps (p := 1 for n <= 2; radius grown to √2 coverage) guarantee
// termination.
TEST(TopologyProperty, RandomConnectedAlwaysConnectedDeterministicTinyN) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 12u, 30u}) {
    for (double p : {0.0, 0.05, 0.5}) {
      for (std::uint64_t seed : {1u, 7u, 42u}) {
        Rng rng_a(seed);
        Rng rng_b(seed);
        const Topology a = random_connected(n, p, rng_a);
        const Topology b = random_connected(n, p, rng_b);
        ASSERT_TRUE(is_strongly_connected(a))
            << "n=" << n << " p=" << p << " seed=" << seed;
        EXPECT_EQ(edge_digest(a), edge_digest(b));
        validate_topology(a);
      }
    }
  }
}

TEST(TopologyProperty, RandomGeometricAlwaysConnectedDeterministicTinyN) {
  for (std::size_t n : {1u, 2u, 3u, 9u, 36u}) {
    // 5.0 exercises the documented clamp to √2; 1e-3 the growth loop.
    for (double radius : {1e-3, 0.25, 5.0}) {
      for (std::uint64_t seed : {1u, 7u, 42u}) {
        Rng rng_a(seed);
        Rng rng_b(seed);
        std::vector<double> pos;
        const Topology a = random_geometric(n, radius, rng_a, &pos);
        const Topology b = random_geometric(n, radius, rng_b);
        ASSERT_TRUE(is_strongly_connected(a))
            << "n=" << n << " radius=" << radius << " seed=" << seed;
        EXPECT_EQ(edge_digest(a), edge_digest(b));
        EXPECT_EQ(pos.size(), 2 * n);
        validate_topology(a);
      }
    }
  }
}

// Golden fingerprints: lock the exact graphs a fixed seed produces, so a
// platform or toolchain whose draws diverge fails loudly here instead of
// silently skewing every scenario sweep. Values recorded from the xoshiro
// Rng's defined output — they must never change.
TEST(TopologyProperty, FixedSeedGoldenDigests) {
  Rng rng_gnp(99);
  EXPECT_EQ(edge_digest(random_connected(12, 0.2, rng_gnp)),
            0x36a5a9958a489d91ull);
  Rng rng_geo(99);
  EXPECT_EQ(edge_digest(random_geometric(12, 0.35, rng_geo)),
            0xd323590796fce3f7ull);
}

TEST(Topology, RandomConnectedTinyNClampsToCompleteGraph) {
  Rng rng(3);
  // n <= 2 clamps p to 1: the graph exists on the first attempt even with
  // p = 0, and for n = 2 it is exactly the 2-cycle.
  const Topology one = random_connected(1, 0.0, rng);
  EXPECT_EQ(one.edge_count(), 0u);
  const Topology two = random_connected(2, 0.0, rng);
  EXPECT_EQ(two.edge_count(), 2u);
  EXPECT_TRUE(is_strongly_connected(two));
}

TEST(Topology, RandomGeometricHugeRadiusClampsToComplete) {
  Rng rng(5);
  // radius > √2 covers the whole unit square: every pair is connected.
  const Topology t = random_geometric(6, 100.0, rng);
  EXPECT_EQ(t.edge_count(), 6u * 5u);
  EXPECT_EQ(diameter(t), 1u);
}

TEST(Topology, RandomConnectedIsConnectedAndDeterministic) {
  Rng rng1(42);
  Rng rng2(42);
  const Topology a = random_connected(20, 0.15, rng1);
  const Topology b = random_connected(20, 0.15, rng2);
  EXPECT_TRUE(is_strongly_connected(a));
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    EXPECT_EQ(a.edges[i].from, b.edges[i].from);
    EXPECT_EQ(a.edges[i].to, b.edges[i].to);
  }
}

TEST(Topology, RandomConnectedSparseStillTerminates) {
  Rng rng(7);
  const Topology t = random_connected(30, 0.01, rng);
  EXPECT_TRUE(is_strongly_connected(t));
}

TEST(Topology, DisconnectedGraphDetected) {
  Topology t;
  t.n = 4;
  t.edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
  EXPECT_FALSE(is_strongly_connected(t));
}

TEST(Topology, OneWayPairNotStronglyConnected) {
  Topology t;
  t.n = 2;
  t.edges = {{0, 1}};
  EXPECT_FALSE(is_strongly_connected(t));
}

TEST(Topology, InIndexMappingConsistent) {
  const Topology t = grid(2, 3);
  const auto in = in_adjacency(t);
  std::set<std::size_t> all_edges;
  for (std::size_t v = 0; v < t.n; ++v) {
    for (std::size_t e : in.of(v)) {
      EXPECT_EQ(t.edges[e].to, v);
      all_edges.insert(e);
    }
  }
  EXPECT_EQ(all_edges.size(), t.edge_count());
}

// --- CSR adjacency against a brute-force scan of topology.edges -----------

// Node u's out- (or in-) edges, by scanning every edge in edge order.
std::vector<std::vector<std::size_t>> scan_edges(const Topology& t,
                                                 bool incoming) {
  std::vector<std::vector<std::size_t>> lists(t.n);
  for (std::size_t u = 0; u < t.n; ++u) {
    for (std::size_t e = 0; e < t.edges.size(); ++e) {
      if ((incoming ? t.edges[e].to : t.edges[e].from) == u) {
        lists[u].push_back(e);
      }
    }
  }
  return lists;
}

void expect_adjacency_equals(const Adjacency& adj,
                             const std::vector<std::vector<std::size_t>>& want,
                             const char* which) {
  ASSERT_EQ(adj.node_count(), want.size()) << which;
  for (std::size_t u = 0; u < want.size(); ++u) {
    const Adjacency::Span got = adj.of(u);
    EXPECT_EQ(adj.degree(u), want[u].size()) << which << " node " << u;
    EXPECT_EQ(std::vector<std::size_t>(got.begin(), got.end()), want[u])
        << which << " node " << u;
  }
}

// Sends, on every out-channel k, the global index of the edge the brute-force
// scan says channel k is, and records (in_index, edge) for what arrives.
class EdgeProbeNode final : public Node {
 public:
  EdgeProbeNode(const std::vector<std::vector<std::size_t>>* out,
                std::vector<std::pair<std::size_t, std::size_t>>* received)
      : out_(out), received_(received) {}

  void on_start(Context& ctx) override {
    const auto self = static_cast<std::size_t>(ctx.self().value());
    for (std::size_t k = 0; k < ctx.out_degree(); ++k) {
      ctx.send(k, std::make_unique<IntPayload>(
                      static_cast<std::int64_t>((*out_)[self][k])));
    }
  }
  void on_message(Context&, std::size_t in_index,
                  const Payload& payload) override {
    received_->emplace_back(
        in_index,
        static_cast<std::size_t>(payload_as<IntPayload>(payload).value()));
  }

 private:
  const std::vector<std::vector<std::size_t>>* out_;
  std::vector<std::pair<std::size_t, std::size_t>>* received_;
};

// The CSR out/in lists, the in-index map and the Network's channel numbering
// (out_index -> edge on send, edge -> in_index on delivery) all equal the
// brute-force scan.
void expect_channels_match_brute_force(const Topology& t) {
  const auto want_out = scan_edges(t, /*incoming=*/false);
  const auto want_in = scan_edges(t, /*incoming=*/true);
  expect_adjacency_equals(out_adjacency(t), want_out, "out");
  expect_adjacency_equals(in_adjacency(t), want_in, "in");
  const std::vector<std::size_t> in_index = in_adjacency(t).local_indices();
  ASSERT_EQ(in_index.size(), t.edge_count());
  for (std::size_t v = 0; v < t.n; ++v) {
    for (std::size_t k = 0; k < want_in[v].size(); ++k) {
      EXPECT_EQ(in_index[want_in[v][k]], k) << "node " << v;
    }
  }

  NetworkConfig config;
  config.topology = t;
  config.seed = 3;
  Network net(config);
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> received(t.n);
  net.build_nodes([&](std::size_t i) {
    return std::make_unique<EdgeProbeNode>(&want_out, &received[i]);
  });
  net.start();
  net.run_until_quiescent();
  for (std::size_t v = 0; v < t.n; ++v) {
    ASSERT_EQ(received[v].size(), want_in[v].size()) << "node " << v;
    std::vector<char> seen(want_in[v].size(), 0);
    for (const auto& [in_index, edge] : received[v]) {
      ASSERT_LT(in_index, want_in[v].size()) << "node " << v;
      EXPECT_EQ(want_in[v][in_index], edge) << "node " << v;
      EXPECT_FALSE(seen[in_index]) << "node " << v << " in " << in_index;
      seen[in_index] = 1;
    }
  }
}

TEST(Topology, AdjacencyMatchesBruteForceForEveryFamily) {
  for (TopologyFamily family :
       {TopologyFamily::kRingUni, TopologyFamily::kRingBi,
        TopologyFamily::kLine, TopologyFamily::kStar,
        TopologyFamily::kComplete, TopologyFamily::kGrid,
        TopologyFamily::kTorus, TopologyFamily::kHypercube,
        TopologyFamily::kGnp, TopologyFamily::kGeometric}) {
    for (std::size_t n : {1u, 4u, 12u, 16u}) {
      const TopologySpec spec{family, n, 0.0};
      if (!spec.problem().empty()) continue;  // e.g. hypercube of 12
      Rng rng(n);
      const Topology t = spec.build(rng);
      SCOPED_TRACE(std::string(topology_family_name(family)) + " n=" +
                   std::to_string(n));
      expect_channels_match_brute_force(t);
    }
  }
}

TEST(Topology, AdjacencyMatchesBruteForceWithParallelEdges) {
  // Parallel edges keep separate channels, numbered in edge order.
  Topology t;
  t.n = 3;
  t.edges = {{0, 1}, {0, 2}, {0, 1}, {1, 0}, {2, 0}, {1, 0}, {1, 2}};
  expect_channels_match_brute_force(t);
  const Adjacency in = in_adjacency(t);
  EXPECT_EQ(in.degree(0), 3u);
  EXPECT_EQ(in.of(0)[2], 5u);
}

TEST(Topology, ValidateRejectsSelfLoop) {
  Topology t;
  t.n = 2;
  t.edges = {{0, 0}};
  EXPECT_DEATH(validate_topology(t), "self-loops");
}

TEST(Topology, ValidateRejectsOutOfRange) {
  Topology t;
  t.n = 2;
  t.edges = {{0, 5}};
  EXPECT_DEATH(validate_topology(t), "");
}

}  // namespace
}  // namespace abe
