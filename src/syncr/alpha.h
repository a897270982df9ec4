// Awerbuch's α-synchronizer on an asynchronous/ABE network.
//
// Every node, every round, sends exactly one envelope on every outgoing
// channel — the app's message when it has one, an explicit null marker
// otherwise — and advances to round r+1 only after receiving a round-r
// envelope on every incoming channel. This is the "every node sends a
// message every round" regime of Theorem 1: on a strongly connected digraph
// each node has out-degree >= 1, so at least n messages cross the network
// per round; on a unidirectional ring the α-synchronizer meets the paper's
// lower bound with equality (exactly n messages per round).
//
// Correctness needs no delay bound at all — it works on any asynchronous
// network, ABE included, trading messages for robustness.
// make_alpha_sync_driver runs it on any Runtime; bench E6a charts the
// messages per round, E11b compares it with β.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/node.h"
#include "runtime/runtime.h"
#include "syncr/sync_app.h"

namespace abe {

class AlphaSyncNode final : public SyncNode {
 public:
  AlphaSyncNode(std::unique_ptr<SyncApp> app, std::uint64_t max_rounds);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override;

 private:
  void emit_round(Context& ctx, std::uint64_t round,
                  std::vector<SyncOutgoing> app_msgs);
  void try_advance(Context& ctx);

  std::uint64_t current_round_ = 1;  // round whose inbox we are collecting
  // round -> (in_index -> envelope); out-of-order rounds buffer here.
  std::map<std::uint64_t, std::vector<std::shared_ptr<const SyncEnvelope>>>
      pending_;
  std::map<std::uint64_t, std::size_t> pending_count_;
};

// The app under the α-synchronizer for `rounds` rounds, as a
// SynchronizerDriver (syncr/sync_app.h). One driver per trial.
std::unique_ptr<AlgorithmDriver> make_alpha_sync_driver(
    SyncAppFactory factory, std::uint64_t rounds, SynchronizerResult* sink);

}  // namespace abe
