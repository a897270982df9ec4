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

const NetworkPlan::Routes& NetworkPlan::routes() const {
  std::call_once(routes_once_, [this] {
    const OutChannelIndex channels(topology_, out_);
    auto routes = std::make_unique<Routes>();
    PlanTree& tree = routes->tree;
    static_cast<SpanningTree&>(tree) =
        bfs_spanning_tree(topology_, 0, out_, channels);
    const std::size_t n = topology_.n;
    tree.down.assign(n, OutChannelIndex::kNone);
    tree.up.assign(n, OutChannelIndex::kNone);
    for (std::size_t k = 1; k < n; ++k) {
      const std::size_t child = tree.order[k];
      const std::size_t parent = tree.parent[child];
      tree.down[k] = channels.channel(parent, child);
      tree.up[child] = channels.channel(child, parent);
    }
    // Filled in in() order, node by node, so it is CSR parallel to in().
    routes->reverse_of_in.reserve(topology_.edges.size());
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t e : in_.of(v)) {
        routes->reverse_of_in.push_back(
            channels.channel(v, topology_.edges[e].from));
      }
    }
    routes_ = std::move(routes);
  });
  return *routes_;
}

const PlanTree& NetworkPlan::tree() const { return routes().tree; }

Adjacency::Span NetworkPlan::reverse_of_in(std::size_t v) const {
  return in_.slice(routes().reverse_of_in, v);
}

std::shared_ptr<const NetworkPlan> make_plan(Topology topology) {
  return std::make_shared<NetworkPlan>(std::move(topology));
}

}  // namespace abe
