#include "net/plan.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace abe {

NetworkPlan::NetworkPlan(Topology topology) : topology_(std::move(topology)) {
  validate_topology(topology_);
  ABE_CHECK_LE(std::max(topology_.n, topology_.edges.size()),
               std::size_t{UINT32_MAX})
      << "edge ends hold node and in-channel indices in 32 bits";
  out_ = out_adjacency(topology_);
  in_ = in_adjacency(topology_);
  ends_.resize(topology_.edges.size());
  for (std::size_t v = 0; v < topology_.n; ++v) {
    const Adjacency::Span in = in_.of(v);
    for (std::size_t k = 0; k < in.size(); ++k) {
      ends_[in[k]] = EdgeEnd{static_cast<std::uint32_t>(v),
                             static_cast<std::uint32_t>(k)};
    }
  }
}

const PlanTree& NetworkPlan::tree() const {
  std::call_once(tree_once_, [this] {
    const OutChannelIndex channels(topology_, out_);
    auto tree = std::make_unique<PlanTree>();
    static_cast<SpanningTree&>(*tree) =
        bfs_spanning_tree(topology_, 0, out_, channels);
    const std::size_t n = topology_.n;
    tree->down.assign(n, OutChannelIndex::kNone);
    tree->up.assign(n, OutChannelIndex::kNone);
    for (std::size_t k = 1; k < n; ++k) {
      const std::size_t child = tree->order[k];
      const std::size_t parent = tree->parent[child];
      tree->down[k] = channels.channel(parent, child);
      tree->up[child] = channels.channel(child, parent);
    }
    tree_ = std::move(tree);
  });
  return *tree_;
}

Adjacency::Span NetworkPlan::reverse_of_in(std::size_t v) const {
  std::call_once(reverse_once_, [this] {
    const OutChannelIndex channels(topology_, out_);
    auto reverse = std::make_unique<std::vector<std::size_t>>();
    // Filled in in() order, node by node, so it is CSR parallel to in().
    reverse->reserve(topology_.edges.size());
    for (std::size_t u = 0; u < topology_.n; ++u) {
      for (std::size_t e : in_.of(u)) {
        reverse->push_back(channels.channel(u, topology_.edges[e].from));
      }
    }
    reverse_of_in_ = std::move(reverse);
  });
  return in_.slice(*reverse_of_in_, v);
}

std::shared_ptr<const NetworkPlan> make_plan(Topology topology) {
  return std::make_shared<NetworkPlan>(std::move(topology));
}

}  // namespace abe
