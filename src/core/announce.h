// Election with leader announcement — process termination for every node.
//
// The paper's algorithm ends with one node in the leader state, but passive
// nodes cannot know the election is over (they would forward tokens
// forever). This extension adds the standard completion wave: the fresh
// leader circulates an ⟨announce, hop⟩ token; every passive node records
// "done" (learning its distance to the leader as a by-product) and forwards
// it; the token returns to the leader after exactly n further messages.
// Total cost stays linear: election + n.
//
// This is the natural "make it a usable primitive" extension of the paper's
// Section 3 (it also yields a ring orientation/indexing: each node ends up
// knowing its clockwise distance from the leader — a free by-product that
// downstream protocols typically want).
//
// make_announced_election_driver runs it on any Runtime; bench E11a charts
// its cost (election + n messages, still linear in n).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/election.h"
#include "net/node.h"
#include "runtime/runtime.h"

namespace abe {

// ⟨announce, hop⟩: hop counts channels traversed since the leader.
class AnnouncePayload final : public Payload {
 public:
  explicit AnnouncePayload(std::uint64_t hop) : hop_(hop) {}
  std::uint64_t hop() const { return hop_; }
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<AnnouncePayload>(hop_);
  }
  std::string describe() const override {
    return "Announce(" + std::to_string(hop_) + ")";
  }

 private:
  std::uint64_t hop_;
};

// Wraps the paper's ElectionNode and layers the announcement protocol on
// top: same Node interface, same anonymity (distance, not identity, is
// learned).
class AnnouncingElectionNode final : public Node {
 public:
  explicit AnnouncingElectionNode(ElectionOptions options);

  void on_start(Context& ctx) override;
  void on_tick(Context& ctx, std::uint64_t tick) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override;
  // Terminated once this node *knows* the election finished.
  bool is_terminated() const override { return done_; }
  // The inner election's demand until this node knows the outcome.
  TickDemand tick_demand() const override {
    return done_ ? TickDemand::none() : inner_.tick_demand();
  }

  bool is_leader() const { return inner_.state() == ElectionState::kLeader; }
  // Clockwise distance from the leader (0 for the leader itself);
  // meaningful once terminated.
  std::uint64_t distance_from_leader() const { return distance_; }

 private:
  ElectionNode inner_;
  bool announced_ = false;  // leader: announcement sent
  bool done_ = false;
  std::uint64_t distance_ = 0;
};

// The announcing election as an AlgorithmDriver (runtime/runtime.h) on
// the unidirectional ring its RuntimeConfig carries, with ticks on. Done
// once every node knows the outcome (election + announcement messages).
// Safety: the learned distances index the ring from the leader, node
// (leader + d) mod n holding distance d. One driver per trial.
std::unique_ptr<AlgorithmDriver> make_announced_election_driver(
    ElectionOptions options);

}  // namespace abe
