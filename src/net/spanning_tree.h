// BFS spanning trees — substrate for the β-synchronizer.
//
// The β-synchronizer coordinates rounds by convergecast/broadcast along a
// spanning tree of the communication graph. The tree is computed offline
// from the topology (synchronizers are infrastructure, not anonymous
// algorithms, so global structure is fair game); the runtime protocol then
// only uses local channel indices derived from it.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "net/topology.h"

namespace abe {

struct SpanningTree {
  std::size_t root = 0;
  // parent[i] = parent node of i (root points at itself).
  std::vector<std::size_t> parent;
  // children[i] = child nodes of i.
  std::vector<std::vector<std::size_t>> children;
  // depth[i] = hops from the root.
  std::vector<std::size_t> depth;

  std::size_t height() const;
  std::size_t edge_count() const { return parent.empty() ? 0 : parent.size() - 1; }
};

// Builds a BFS tree over the topology's directed edges, requiring that the
// reverse edge exists for every tree edge (the β protocol talks both ways).
// Aborts when the graph is not strongly connected: a node the BFS cannot
// reach from the root ("... strongly connected"), or a tree edge without
// its reverse channel ("... reverse channel"). The two checks together
// imply strong connectivity — the root reaches every node, and every node
// returns to the root along its reversed tree path — so no separate
// connectivity pass runs.
SpanningTree bfs_spanning_tree(const Topology& topology, std::size_t root);

// Sparse neighbour -> out-channel lookup, for wiring tree/ack routes.
// Each node's out-neighbours are kept sorted (CSR layout, O(E) memory) with
// the out-channel index (into out_adjacency order) leading to them, so a
// lookup is a binary search over the node's out-degree: O(E log deg) to
// build and O(log deg) per query, where a dense n×n map would cost O(n²)
// memory (800 MB at n = 10⁴). With parallel edges u->v the last one in
// edge order wins.
class OutChannelIndex {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  explicit OutChannelIndex(const Topology& topology);
  // Same index from the caller's out_adjacency(topology).
  OutChannelIndex(const Topology& topology, const Adjacency& out);

  // `from`'s out-channel index leading to `to`; kNone when there is no
  // edge from -> to.
  std::size_t channel(std::size_t from, std::size_t to) const;

 private:
  struct Entry {
    std::size_t to;
    std::size_t channel;
  };
  // Node u's entries are entries_[begin_[u], begin_[u + 1]), sorted by
  // (to, channel).
  std::vector<std::size_t> begin_;
  std::vector<Entry> entries_;
};

// bfs_spanning_tree reusing the caller's out_adjacency(topology) and its
// OutChannelIndex (callers that wire routes build both anyway).
SpanningTree bfs_spanning_tree(const Topology& topology, std::size_t root,
                               const Adjacency& out,
                               const OutChannelIndex& channels);

}  // namespace abe
