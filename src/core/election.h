// Leader election for anonymous, unidirectional ABE rings (paper Section 3).
//
// Every node runs the same code, has no identity, and knows only the ring
// size n and the base activation parameter A0 ∈ (0,1). States:
//
//   idle    — at every local clock tick, activates with probability
//             1 − (1−A0)^d and sends ⟨1⟩;
//   passive — knocked out; forwards every message as ⟨d+1⟩ (absorbing);
//   active  — waiting for its message to come home; a received message with
//             hop = n makes it leader, any other message knocks it back to
//             idle (the message is purged in both cases);
//   leader  — terminal.
//
// d(A) tracks the highest hop count ever received: it certifies that d(A)−1
// predecessors are passive, and boosting the activation probability by
// exactly that factor keeps the *combined* wake-up probability of all idle
// nodes at 1 − (1−A0)^n regardless of how many have been knocked out — the
// invariant behind the linear time and message complexity (see
// core/analysis.h and bench E9 for the ablation).
#pragma once

#include <cstdint>
#include <string>

#include "core/election_variants.h"
#include "net/node.h"

namespace abe {

enum class ElectionState : std::uint8_t {
  kIdle,
  kActive,
  kPassive,
  kLeader,
};

const char* election_state_name(ElectionState s);

// The ring message ⟨hop⟩, hop ∈ {1, …, n}.
class HopPayload final : public Payload {
 public:
  explicit HopPayload(std::uint64_t hop) : hop_(hop) {}
  std::uint64_t hop() const { return hop_; }
  std::unique_ptr<Payload> clone() const override {
    return std::make_unique<HopPayload>(hop_);
  }
  std::string describe() const override {
    return "Hop(" + std::to_string(hop_) + ")";
  }

 private:
  std::uint64_t hop_;
};

// Receives every node state transition; used by the harness to detect the
// leader in O(1) and by tests to assert "never two leaders" online.
class ElectionObserver {
 public:
  virtual ~ElectionObserver() = default;
  virtual void on_state_change(NodeId node, ElectionState from,
                               ElectionState to, SimTime when) = 0;
};

// The base activation parameter that realises the paper's linear-complexity
// regime on a ring of size n.
//
// The paper's design invariant is that the *combined* wake-up probability of
// all idle nodes "stays constant over time"; for the election to be linear
// it must also be calibrated so that roughly one activation happens per
// token circulation time (n·δ, which is n ticks when δ equals the tick
// period). Per tick the combined probability is 1 − (1−A0)^n ≈ n·A0, so the
// calibration is
//     n·A0 · (n ticks) ≈ c   ⇒   A0 = c/n².
// With a hotter A0 (constant, or even c/n) surviving candidates reactivate
// during each other's token flights and knock each other out over and over:
// measured complexity degrades towards Θ(n²) (bench E4 charts the sweep).
// `c` trades waiting time against collision messages; c ≈ 1 is a good
// default (≈1.5n messages, ≈3n time, see EXPERIMENTS.md).
double linear_regime_a0(std::size_t n, double c = 1.0);

struct ElectionOptions {
  double a0 = 0.3;  // base activation parameter, in (0,1)
  // Activation policy; kAdaptive is the paper's algorithm, the others exist
  // for the E9 ablation.
  ActivationPolicy policy = ActivationPolicy::kAdaptive;
  // Optional, non-owning; must outlive the nodes.
  ElectionObserver* observer = nullptr;
  // Honest rings keep the token-conservation invariants (hop <= n, d < n at
  // non-active receivers) as hard ABE_CHECKs — a violation there is a bug.
  // Under Byzantine profiles (adversary/behavior.h: equivocation injects
  // duplicate tokens that drive d past n at passive nodes) the invariants
  // can be violated by DESIGN; setting this drops the offending message
  // (counted in overflow_drops()) instead of aborting the process, so
  // safety probing can observe what the protocol does under attack.
  bool tolerate_protocol_violation = false;
};

class ElectionNode final : public Node {
 public:
  explicit ElectionNode(ElectionOptions options);

  void on_start(Context& ctx) override;
  void on_tick(Context& ctx, std::uint64_t tick) override;
  void on_message(Context& ctx, std::size_t in_index,
                  const Payload& payload) override;

  std::string state_string() const override {
    return election_state_name(state_);
  }
  bool is_terminated() const override {
    return state_ == ElectionState::kLeader;
  }
  // Only an idle node uses its ticks, and on each one it activates with the
  // same probability until a message moves it out of idle.
  TickDemand tick_demand() const override;

  // --- observable state (tests & metrics) --------------------------------
  ElectionState state() const { return state_; }
  std::uint64_t d() const { return d_; }
  // How many times this node entered the active state.
  std::uint64_t activations() const { return activations_; }
  // Messages this node purged while active (competitor knockouts).
  std::uint64_t purges() const { return purges_; }
  // Messages forwarded while idle or passive.
  std::uint64_t forwards() const { return forwards_; }
  // Protocol-violating messages dropped under tolerate_protocol_violation.
  std::uint64_t overflow_drops() const { return overflow_drops_; }

 private:
  void set_state(Context& ctx, ElectionState next);

  ElectionOptions options_;
  ElectionState state_ = ElectionState::kIdle;
  std::uint64_t d_ = 1;
  std::uint64_t activations_ = 0;
  std::uint64_t purges_ = 0;
  std::uint64_t forwards_ = 0;
  std::uint64_t overflow_drops_ = 0;
};

}  // namespace abe
