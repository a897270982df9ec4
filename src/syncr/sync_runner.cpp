#include "syncr/sync_runner.h"

#include <utility>

#include "util/check.h"

namespace abe {

SyncRunResult run_synchronous(const Topology& topology,
                              const SyncAppFactory& factory,
                              std::uint64_t rounds, std::uint64_t seed) {
  validate_topology(topology);
  const std::size_t n = topology.n;
  const Adjacency out_adj = out_adjacency(topology);
  const Adjacency in_adj = in_adjacency(topology);

  // Receiver-side in-index of each edge.
  const std::vector<std::size_t> in_index_of_edge = in_adj.local_indices();

  Rng root(seed);
  std::vector<Rng> rngs;
  std::vector<std::unique_ptr<SyncApp>> apps;
  std::vector<SyncAppContext> contexts(n);
  rngs.reserve(n);
  apps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rngs.push_back(root.substream("sync-app", i));
    apps.push_back(factory(i));
    ABE_CHECK(static_cast<bool>(apps.back()));
    contexts[i] = SyncAppContext{i, out_adj.degree(i), in_adj.degree(i), n,
                                 nullptr};
  }
  for (std::size_t i = 0; i < n; ++i) contexts[i].rng = &rngs[i];

  SyncRunResult result;
  // inboxes[v] collects round-r messages for node v.
  std::vector<std::vector<SyncIncoming>> inboxes(n);

  auto dispatch = [&](std::size_t from, std::vector<SyncOutgoing> out) {
    for (auto& msg : out) {
      ABE_CHECK_LT(msg.out_index, out_adj.degree(from));
      ABE_CHECK(static_cast<bool>(msg.payload));
      const std::size_t edge = out_adj.of(from)[msg.out_index];
      const std::size_t to = topology.edges[edge].to;
      inboxes[to].push_back(SyncIncoming{
          in_index_of_edge[edge],
          std::shared_ptr<const Payload>(msg.payload.release())});
      ++result.messages_sent;
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    dispatch(i, apps[i]->on_init(contexts[i]));
  }

  for (std::uint64_t r = 1; r <= rounds; ++r) {
    std::vector<std::vector<SyncIncoming>> current(n);
    current.swap(inboxes);
    for (std::size_t i = 0; i < n; ++i) {
      dispatch(i, apps[i]->on_round(contexts[i], r, current[i]));
    }
    ++result.rounds_executed;
  }

  result.outputs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.outputs[i] = apps[i]->output();
  }
  return result;
}

}  // namespace abe
