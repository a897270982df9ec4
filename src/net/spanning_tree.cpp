#include "net/spanning_tree.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "util/check.h"

namespace abe {

std::size_t SpanningTree::height() const {
  std::size_t h = 0;
  for (std::size_t d : depth) h = std::max(h, d);
  return h;
}

SpanningTree bfs_spanning_tree(const Topology& topology, std::size_t root) {
  const Adjacency out = out_adjacency(topology);
  return bfs_spanning_tree(topology, root, out, OutChannelIndex(topology, out));
}

SpanningTree bfs_spanning_tree(const Topology& topology, std::size_t root,
                               const Adjacency& out,
                               const OutChannelIndex& channels) {
  validate_topology(topology);
  ABE_CHECK_LT(root, topology.n);
  ABE_CHECK_EQ(out.node_count(), topology.n);

  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(topology.n, std::numeric_limits<std::size_t>::max());
  tree.depth.assign(topology.n, 0);
  tree.children_begin.assign(topology.n, 0);
  tree.children_end.assign(topology.n, 0);
  tree.parent[root] = root;

  // The visit order doubles as the BFS queue: [head, order.size()). The
  // children of order[head] are exactly what its scan appends.
  std::vector<std::size_t>& order = tree.order;
  order.reserve(topology.n);
  order.push_back(root);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::size_t u = order[head];
    tree.children_begin[u] = order.size();
    for (std::size_t e : out.of(u)) {
      const std::size_t v = topology.edges[e].to;
      if (tree.parent[v] != std::numeric_limits<std::size_t>::max()) {
        continue;
      }
      ABE_CHECK(channels.channel(v, u) != OutChannelIndex::kNone)
          << "tree edge " << u << "->" << v
          << " lacks the reverse channel the β protocol needs";
      tree.parent[v] = u;
      tree.depth[v] = tree.depth[u] + 1;
      order.push_back(v);
    }
    tree.children_end[u] = order.size();
  }
  for (std::size_t v = 0; v < topology.n; ++v) {
    ABE_CHECK(tree.parent[v] != std::numeric_limits<std::size_t>::max())
        << "node " << v << " unreachable from root " << root
        << ": spanning tree needs a strongly connected graph";
  }
  return tree;
}

OutChannelIndex::OutChannelIndex(const Topology& topology)
    : OutChannelIndex(topology, out_adjacency(topology)) {}

OutChannelIndex::OutChannelIndex(const Topology& topology,
                                 const Adjacency& out) {
  ABE_CHECK_EQ(out.node_count(), topology.n);
  begin_.reserve(topology.n + 1);
  entries_.reserve(topology.edges.size());
  begin_.push_back(0);
  for (std::size_t u = 0; u < topology.n; ++u) {
    const Adjacency::Span channels = out.of(u);
    for (std::size_t k = 0; k < channels.size(); ++k) {
      entries_.push_back(Entry{topology.edges[channels[k]].to, k});
    }
    std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(begin_.back()),
              entries_.end(), [](const Entry& a, const Entry& b) {
                return a.to != b.to ? a.to < b.to : a.channel < b.channel;
              });
    begin_.push_back(entries_.size());
  }
}

std::size_t OutChannelIndex::channel(std::size_t from, std::size_t to) const {
  ABE_CHECK_LT(from, begin_.size() - 1);
  const auto first =
      entries_.begin() + static_cast<std::ptrdiff_t>(begin_[from]);
  const auto last =
      entries_.begin() + static_cast<std::ptrdiff_t>(begin_[from + 1]);
  // The last entry for `to` (parallel edges: the latest channel wins).
  const auto it = std::upper_bound(
      first, last, to, [](std::size_t v, const Entry& e) { return v < e.to; });
  if (it == first || std::prev(it)->to != to) return kNone;
  return std::prev(it)->channel;
}

}  // namespace abe
