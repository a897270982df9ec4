// Awerbuch's β-synchronizer on an asynchronous/ABE network.
//
// Where α floods a (possibly null) envelope on every channel every round,
// β concentrates the coordination on a spanning tree:
//   1. app messages of round r are sent and individually ACKed;
//   2. a node is *safe* for round r once all its messages are acked;
//   3. safety is convergecast up the tree (SAFE) and the root broadcasts
//      GO(r+1) down (each node then processes its complete round-r inbox).
// Overhead per round: one ack per app message + 2(n−1) tree messages —
// still ≥ n per round for n ≥ 2, as Theorem 1 demands of anything that
// synchronises an ABE network, but far below α's |E| on dense graphs.
// Latency per round grows with the tree height (the classic α/β trade-off,
// charted in bench E11b and test_beta.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/network.h"
#include "net/node.h"
#include "net/plan.h"
#include "runtime/runtime.h"
#include "syncr/sync_app.h"

namespace abe {

// Wire messages of the β protocol. App payloads ride in SyncEnvelope (from
// sync_app.h); the control messages are below.
class BetaControl final : public Payload {
 public:
  enum class Kind : std::uint8_t { kAck, kSafe, kGo };
  BetaControl(Kind kind, std::uint64_t round) : kind_(kind), round_(round) {}
  Kind kind() const { return kind_; }
  std::uint64_t round() const { return round_; }
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<BetaControl>(kind_, round_);
  }
  std::string describe() const override;

 private:
  Kind kind_;
  std::uint64_t round_;
};

// Static per-node wiring derived from the plan's spanning tree and channel
// lists. The two lists are views into the plan (net/plan.h), so a node
// holding this wiring must not outlive the plan.
struct BetaWiring {
  bool is_root = false;
  // Out-channel toward the parent (unused for the root).
  std::size_t parent_out = 0;
  // Out-channels toward each child.
  Adjacency::Span children_out;
  // For each in-channel, the out-channel back to that sender (ack route).
  Adjacency::Span reverse_of_in;
};

// Node `node`'s wiring on the plan's BFS tree from node 0. Requires every
// edge into `node` to have a reverse.
BetaWiring beta_wiring(const NetworkPlan& plan, std::size_t node);

class BetaSyncNode final : public SyncNode {
 public:
  BetaSyncNode(std::unique_ptr<SyncApp> app, std::uint64_t max_rounds,
               BetaWiring wiring);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override;

 private:
  void begin_round(Context& ctx, std::uint64_t round);
  void maybe_report_safe(Context& ctx);
  void advance(Context& ctx);  // root: all safe -> GO; others: on GO

  BetaWiring wiring_;

  std::uint64_t round_ = 0;  // round currently being exchanged
  bool safe_reported_ = false;

  std::size_t unacked_ = 0;          // our round-r messages not yet acked
  std::size_t children_safe_ = 0;    // SAFE(r) received from children
  std::vector<SyncIncoming> inbox_;  // round-r app messages received
  // App messages computed for the next round, sent by begin_round.
  std::vector<SyncOutgoing> pending_sends_;
  // App messages that raced ahead of our GO (at most one round ahead).
  std::map<std::uint64_t, std::vector<SyncIncoming>> buffered_;
};

// The app under the β-synchronizer for `rounds` rounds, as a
// SynchronizerDriver (syncr/sync_app.h) whose configure() reads the tree
// wiring from config.plan. One driver per trial.
std::unique_ptr<AlgorithmDriver> make_beta_sync_driver(
    SyncAppFactory factory, std::uint64_t rounds, SynchronizerResult* sink);

}  // namespace abe
