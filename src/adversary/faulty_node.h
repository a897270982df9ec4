// FaultyNode: the Node-wrapping decorator realising behavior profiles.
//
// Wraps an algorithm node and intercepts both directions of its interface —
// inbound delivery (on_message/on_tick/on_timer) and outbound sends (via a
// Context shim) — so crash, equivocation and reordering faults are injected
// WITHOUT touching algorithm or runtime code. Because the decorator is just
// another Node, it runs identically on SimRuntime and WallRuntime.
//
// Thread-safety: all FaultyNode state is confined to the node's own thread
// (the runtime delivers every callback of one node sequentially, on the
// simulator trivially and on the thread runtime on the node's own thread),
// so no locks are needed — same discipline as algorithm node state.
//
// Result extraction sees through the decorator via Node::algorithm_node():
// drivers downcast rt.node(i).algorithm_node(), never rt.node(i) itself.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/behavior.h"
#include "net/node.h"

namespace abe {

class FaultyNode final : public Node {
 public:
  // `crash_time` is the sim time at which the node dies (crash profiles
  // only; the caller draws it for kCrashRandom). `reorder_window` is the
  // inbound buffer size for kReorder (>= 1). Irrelevant parameters are
  // ignored.
  FaultyNode(NodePtr inner, BehaviorProfile profile, double crash_time,
             std::size_t reorder_window);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;
  void on_tick(Context& ctx, std::uint64_t tick) override;
  void on_timer(Context& ctx, TimerId id, std::uint64_t tag) override;

  std::string state_string() const override;
  // A crashed node is terminal (runtimes stop its tick train); otherwise
  // the inner node decides.
  bool is_terminated() const override;
  // Nothing once crashed. Crash and reorder profiles act on every tick (the
  // crash instant is checked there, the reorder buffer drains there), so
  // they keep them all; equivocation passes the inner node's demand on.
  TickDemand tick_demand() const override;

  Node& algorithm_node() override { return inner_->algorithm_node(); }
  const Node& algorithm_node() const override {
    return inner_->algorithm_node();
  }

  // Fault-injection accounting, for tests and probes.
  bool crashed() const { return crashed_; }
  std::uint64_t duplicated_sends() const { return duplicated_sends_; }
  std::uint64_t reordered_deliveries() const { return reordered_deliveries_; }

 private:
  class EquivocatingContext;

  // Flips `crashed_` once the crash time has passed. Returns true when the
  // node is (now) dead and the event must be swallowed.
  bool check_crashed(Context& ctx);
  // Releases the reorder buffer to the inner node in reverse arrival order.
  void flush_reordered(Context& ctx);
  // Dispatches one delivery to the inner node, equivocating if configured.
  void deliver_inner(Context& ctx, std::size_t in_index,
                     const Payload& payload);

  NodePtr inner_;
  BehaviorProfile profile_;
  double crash_time_;
  std::size_t reorder_window_;
  bool crashed_ = false;
  std::uint64_t duplicated_sends_ = 0;
  std::uint64_t reordered_deliveries_ = 0;
  struct Buffered {
    std::size_t in_index;
    std::shared_ptr<const Payload> payload;
  };
  std::vector<Buffered> reorder_buffer_;
};

// Convenience for driver decoration: wraps `inner` per `spec` when node
// `index` is afflicted, else returns it unchanged. `crash_time` as above.
NodePtr maybe_wrap_faulty(NodePtr inner, const BehaviorSpec& spec,
                          std::size_t index, std::size_t n,
                          double crash_time);

}  // namespace abe
