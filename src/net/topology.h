// Topology builders and graph helpers.
//
// The paper's election runs on unidirectional rings; synchronizers and the
// broader substrate run on arbitrary strongly-connected digraphs. Edges are
// directed; bidirectional topologies emit both directions explicitly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace abe {

struct Edge {
  std::size_t from = 0;
  std::size_t to = 0;
};

struct Topology {
  std::size_t n = 0;
  std::vector<Edge> edges;  // directed
  std::string name;

  std::size_t edge_count() const { return edges.size(); }
};

// n >= 1 nodes; node i sends to (i+1) mod n. The paper's setting.
Topology unidirectional_ring(std::size_t n);

// Both directions of each ring edge.
Topology bidirectional_ring(std::size_t n);

// Path 0–1–…–(n−1), both directions per hop.
Topology line(std::size_t n);

// Node 0 is the hub; spokes in both directions.
Topology star(std::size_t n);

// Every ordered pair (i, j), i != j.
Topology complete(std::size_t n);

// rows×cols grid, 4-neighbourhood, both directions.
Topology grid(std::size_t rows, std::size_t cols);

// rows×cols torus (grid with wraparound), both directions.
Topology torus(std::size_t rows, std::size_t cols);

// 2^dim nodes; edge per differing bit, both directions.
Topology hypercube(std::size_t dim);

// Erdős–Rényi G(n, p) on undirected pairs (kept in both directions),
// resampled until strongly connected. Tiny-n clamping: for n <= 2 every
// possible edge is required for connectivity, so p is clamped to 1 before
// sampling; for larger n each failed attempt escalates p (×1.25 + 0.01) so
// sparse requests still terminate. The returned graph is always strongly
// connected (asserted) and deterministic given `rng` — our own xoshiro Rng,
// so identical across platforms and standard libraries.
Topology random_connected(std::size_t n, double p, Rng& rng);

// Random geometric graph: n nodes at uniform positions in the unit square,
// connected (both directions) when within `radius` — the standard model of
// the ad-hoc/sensor networks the paper motivates ABE with. The radius is
// grown (×1.2 per attempt, from a starting value clamped into (0, √2]) until
// the graph is connected, so the returned topology is always strongly
// connected (asserted) — i.e. the *effective* radio range may exceed the
// request; √2 covers the whole unit square, where connectivity is immediate
// for every n (including the edgeless n = 1). Deterministic given `rng`
// across platforms. Node positions are returned via `positions` when
// non-null (x0,y0,x1,y1,… layout).
Topology random_geometric(std::size_t n, double radius, Rng& rng,
                          std::vector<double>* positions = nullptr);

// Per-node channel lists in compressed sparse row (CSR) form.
//
// Layout: two flat arrays instead of one vector per node.
//   offsets_  n + 1 entries; offsets_[0] = 0, offsets_[n] = E.
//   edges_    E entries; node u's list is edges_[offsets_[u], offsets_[u+1]).
// Each entry is an index into Topology::edges, and every list is in edge
// order, so entry k of node u's list is u's local channel k (the out_index a
// node passes to Context::send, or the in_index it receives). Building one
// is a counting pass plus a fill pass: O(n + E) time, two allocations.
class Adjacency {
 public:
  // A read-only view of one node's list (contiguous indices). Also the
  // per-node view into the other flat index arrays: spanning-tree children
  // (net/spanning_tree.h) and the polling and β wirings. A view never owns
  // its storage; it is valid while the array it points into lives.
  class Span {
   public:
    Span() = default;
    Span(const std::size_t* first, const std::size_t* last)
        : first_(first), last_(last) {}
    const std::size_t* begin() const { return first_; }
    const std::size_t* end() const { return last_; }
    std::size_t size() const {
      return static_cast<std::size_t>(last_ - first_);
    }
    bool empty() const { return first_ == last_; }
    std::size_t operator[](std::size_t k) const { return first_[k]; }

   private:
    const std::size_t* first_ = nullptr;
    const std::size_t* last_ = nullptr;
  };

  Adjacency() = default;

  // Number of nodes the adjacency covers.
  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t degree(std::size_t u) const {
    return offsets_[u + 1] - offsets_[u];
  }
  Span of(std::size_t u) const {
    return Span(edges_.data() + offsets_[u], edges_.data() + offsets_[u + 1]);
  }

  // Node u's slice of an array parallel to this adjacency's flat list (one
  // entry per listed edge, in list order), as a view into `parallel`.
  Span slice(const std::vector<std::size_t>& parallel, std::size_t u) const {
    return Span(parallel.data() + offsets_[u],
                parallel.data() + offsets_[u + 1]);
  }

  // For every edge listed here, its position k within its node's list:
  // result[of(u)[k]] = k. For in_adjacency this is the receiver-side
  // in-index of each edge.
  std::vector<std::size_t> local_indices() const;

 private:
  friend Adjacency out_adjacency(const Topology& t);
  friend Adjacency in_adjacency(const Topology& t);
  template <typename EndpointOf>
  static Adjacency build(const Topology& t, EndpointOf endpoint);

  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> edges_;
};

// Out-channel lists: for each node, the indices into topology.edges of its
// outgoing edges, in edge order. in_adjacency is the analogue for incoming.
Adjacency out_adjacency(const Topology& t);
Adjacency in_adjacency(const Topology& t);

// Kosaraju-style check that every node reaches every other.
bool is_strongly_connected(const Topology& t);

// Longest shortest path (directed, unit weights). Requires strong
// connectivity.
std::size_t diameter(const Topology& t);

// Validates node indices and rejects self-loops; aborts on violation.
void validate_topology(const Topology& t);

}  // namespace abe
