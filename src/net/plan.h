// NetworkPlan: the immutable, shareable part of a network.
//
// Everything a network derives from its graph alone — the validated
// topology, the out and in channel lists, each edge's receiver and
// in-index, and the BFS spanning tree the polling and β wirings route on —
// is the same for every trial on that graph. A plan holds it once; every
// Network (net/network.h) and WallNetwork (runtime/wall_net.h) built from
// the plan reads it and keeps only per-trial state of its own. The
// scenario engine caches the plans of its deterministic topology families
// (scenario/scenario.h, trial_plan), so the trials of one cell, on every
// trial-pool worker, share one plan.
//
// A plan never changes after construction except for its tree and β's ack
// routes, each built on first use under its own std::once_flag: every
// accessor is safe to call from any number of threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/spanning_tree.h"
#include "net/topology.h"

namespace abe {

// The BFS spanning tree from node 0 plus the out-channels along its edges.
// down is CSR over the BFS order like the children: down[k] is the
// out-channel index at parent[order[k]] leading to order[k] (slot 0, the
// root's, is unused). up[v] is v's out-channel index toward parent[v]
// (unused at the root). With parallel edges the last one in edge order
// wins, as in OutChannelIndex.
struct PlanTree : SpanningTree {
  std::vector<std::size_t> down;
  std::vector<std::size_t> up;

  // u's out-channels to its children, in children(u) order: a view into
  // `down`, valid while the tree's plan lives.
  Adjacency::Span children_out(std::size_t u) const {
    return Adjacency::Span(down.data() + children_begin[u],
                           down.data() + children_end[u]);
  }
};

class NetworkPlan {
 public:
  // Where an edge lands: its receiver, and its index among the receiver's
  // in-channels (the in_index Node::on_message gets).
  struct EdgeEnd {
    std::uint32_t to = 0;
    std::uint32_t in_index = 0;
  };

  // Validates the topology (validate_topology) and builds the channel
  // lists.
  explicit NetworkPlan(Topology topology);
  NetworkPlan(const NetworkPlan&) = delete;
  NetworkPlan& operator=(const NetworkPlan&) = delete;

  const Topology& topology() const { return topology_; }
  std::size_t size() const { return topology_.n; }
  std::size_t edge_count() const { return topology_.edges.size(); }
  // Node -> indices into topology().edges, in edge order (topology.h).
  const Adjacency& out() const { return out_; }
  const Adjacency& in() const { return in_; }
  const EdgeEnd& end(std::size_t edge) const { return ends_[edge]; }

  // The BFS tree from node 0 with its out-channels, built on first call.
  // Aborts, like bfs_spanning_tree, when a node is unreachable from 0 or a
  // tree edge has no reverse channel.
  const PlanTree& tree() const;
  // For node v's in-channel k, v's out-channel back to that channel's
  // sender (OutChannelIndex::kNone when there is none): the routes β acks
  // take. Built on first call, apart from the tree: only β reads it.
  Adjacency::Span reverse_of_in(std::size_t v) const;

 private:
  Topology topology_;
  Adjacency out_;
  Adjacency in_;
  std::vector<EdgeEnd> ends_;
  mutable std::once_flag tree_once_;
  mutable std::unique_ptr<const PlanTree> tree_;
  mutable std::once_flag reverse_once_;
  // CSR parallel to in().
  mutable std::unique_ptr<const std::vector<std::size_t>> reverse_of_in_;
};

// A fresh plan of `topology`: the one way a graph becomes a plan.
std::shared_ptr<const NetworkPlan> make_plan(Topology topology);

}  // namespace abe
