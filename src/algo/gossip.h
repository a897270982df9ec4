// Push gossip (epidemic broadcast) on arbitrary ABE graphs.
//
// The paper motivates ABE with sensor and ad-hoc networks; rumor spreading
// is the canonical workload there. Each informed node, at every local clock
// tick, pushes the rumor to one uniformly random out-neighbour. On an ABE
// network the time to full dissemination is governed by the *expected*
// delay bound — another algorithm whose analysis needs exactly the
// knowledge Definition 1 grants (and nothing more). Exercises ticks, drift
// and delay models on non-ring topologies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/network.h"
#include "net/node.h"
#include "runtime/runtime.h"

namespace abe {

class RumorPayload final : public Payload {
 public:
  RumorPayload() = default;
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<RumorPayload>();
  }
  std::string describe() const override { return "Rumor"; }
};

class GossipNode final : public Node {
 public:
  // `initially_informed`: the rumor source(s). `on_informed` fires once,
  // at the transition to informed (never for an initially informed node) —
  // on the thread runtime it runs on the node's thread, so observers must
  // be atomic. It lets run loops watch dissemination without scanning node
  // state, which would race with node threads.
  explicit GossipNode(bool initially_informed,
                      std::function<void()> on_informed = nullptr);

  void on_tick(Context& ctx, std::uint64_t tick) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override;
  // An uninformed node has nothing to push.
  TickDemand tick_demand() const override {
    return informed_ ? TickDemand::every() : TickDemand::none();
  }

  bool informed() const { return informed_; }
  SimTime informed_at() const { return informed_at_; }
  std::uint64_t pushes() const { return pushes_; }

 private:
  bool informed_;
  std::function<void()> on_informed_;
  SimTime informed_at_ = 0.0;
  std::uint64_t pushes_ = 0;
};

struct GossipResult {
  bool all_informed = false;
  SimTime spread_time = 0.0;      // until the last node learned the rumor
  std::uint64_t messages = 0;     // total pushes
  double mean_inform_time = 0.0;  // averaged over nodes
};

// Push gossip from node `source` as an AlgorithmDriver (runtime/runtime.h):
// configure() turns ticks on (informed nodes push on the local clock), done
// once every node is informed (atomic counter fed by on_informed), full
// GossipResult into `*sink`. Lost pushes delay dissemination but never
// prevent it: informed nodes keep pushing every tick. One driver instance
// per trial.
std::unique_ptr<AlgorithmDriver> make_gossip_driver(std::size_t source,
                                                    GossipResult* sink);

}  // namespace abe
