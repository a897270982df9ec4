#include "net/spanning_tree.h"

#include <algorithm>
#include <deque>
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
  validate_topology(topology);
  ABE_CHECK_LT(root, topology.n);
  ABE_CHECK(is_strongly_connected(topology))
      << "spanning tree needs a strongly connected graph";

  std::vector<std::vector<std::size_t>> nbr(topology.n);
  for (const Edge& e : topology.edges) nbr[e.from].push_back(e.to);
  const OutChannelIndex channels(topology);

  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(topology.n, std::numeric_limits<std::size_t>::max());
  tree.children.assign(topology.n, {});
  tree.depth.assign(topology.n, 0);
  tree.parent[root] = root;

  std::deque<std::size_t> queue{root};
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop_front();
    for (std::size_t v : nbr[u]) {
      if (tree.parent[v] != std::numeric_limits<std::size_t>::max()) {
        continue;
      }
      ABE_CHECK(channels.channel(v, u) != OutChannelIndex::kNone)
          << "tree edge " << u << "->" << v
          << " lacks the reverse channel the β protocol needs";
      tree.parent[v] = u;
      tree.children[u].push_back(v);
      tree.depth[v] = tree.depth[u] + 1;
      queue.push_back(v);
    }
  }
  for (std::size_t v = 0; v < topology.n; ++v) {
    ABE_CHECK(tree.parent[v] != std::numeric_limits<std::size_t>::max())
        << "node " << v << " unreachable from root";
  }
  return tree;
}

OutChannelIndex::OutChannelIndex(const Topology& topology)
    : begin_(topology.n + 1, 0), entries_(topology.edges.size()) {
  for (const Edge& e : topology.edges) ++begin_[e.from + 1];
  for (std::size_t u = 0; u < topology.n; ++u) begin_[u + 1] += begin_[u];
  // Fill in edge order, so each node's k-th entry is its k-th out-channel.
  std::vector<std::size_t> fill(begin_.begin(), begin_.end() - 1);
  for (const Edge& e : topology.edges) {
    const std::size_t at = fill[e.from]++;
    entries_[at] = Entry{e.to, at - begin_[e.from]};
  }
  for (std::size_t u = 0; u < topology.n; ++u) {
    std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(begin_[u]),
              entries_.begin() + static_cast<std::ptrdiff_t>(begin_[u + 1]),
              [](const Entry& a, const Entry& b) {
                return a.to != b.to ? a.to < b.to : a.channel < b.channel;
              });
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
