#include "core/election.h"

#include <algorithm>

#include "util/check.h"

namespace abe {

const char* election_state_name(ElectionState s) {
  switch (s) {
    case ElectionState::kIdle:
      return "idle";
    case ElectionState::kActive:
      return "active";
    case ElectionState::kPassive:
      return "passive";
    case ElectionState::kLeader:
      return "leader";
  }
  return "?";
}

double linear_regime_a0(std::size_t n, double c) {
  ABE_CHECK_GE(n, 1u);
  ABE_CHECK_GT(c, 0.0);
  const double a0 = c / (static_cast<double>(n) * static_cast<double>(n));
  // Clamp into the open interval (0,1); tiny rings want a sane ceiling.
  return std::min(a0, 0.5);
}

ElectionNode::ElectionNode(ElectionOptions options) : options_(options) {
  ABE_CHECK_GT(options_.a0, 0.0);
  ABE_CHECK_LT(options_.a0, 1.0);
}

void ElectionNode::on_start(Context& ctx) {
  // Unidirectional ring: exactly one outgoing and one incoming channel
  // (degenerate n = 1 rings have none).
  if (ctx.network_size() > 1) {
    ABE_CHECK_EQ(ctx.out_degree(), 1u);
    ABE_CHECK_EQ(ctx.in_degree(), 1u);
  }
}

void ElectionNode::set_state(Context& ctx, ElectionState next) {
  if (state_ == next) return;
  ctx.log(std::string(election_state_name(state_)) + "->" +
          election_state_name(next));
  const ElectionState prev = state_;
  state_ = next;
  if (options_.observer != nullptr) {
    options_.observer->on_state_change(ctx.self(), prev, next,
                                       ctx.real_now());
  }
}

TickDemand ElectionNode::tick_demand() const {
  if (state_ != ElectionState::kIdle) return TickDemand::none();
  return TickDemand::bernoulli(
      activation_probability_for(options_.policy, options_.a0, d_));
}

void ElectionNode::on_tick(Context& ctx, std::uint64_t /*tick*/) {
  if (state_ != ElectionState::kIdle) return;
  const double p =
      activation_probability_for(options_.policy, options_.a0, d_);
  if (!ctx.rng().bernoulli(p)) return;

  ++activations_;
  // Degenerate ring of one node: our own message would traverse zero
  // channels and come straight home with hop = n = 1; elect immediately.
  if (ctx.network_size() == 1) {
    set_state(ctx, ElectionState::kLeader);
    return;
  }
  set_state(ctx, ElectionState::kActive);
  ctx.send(0, std::make_unique<HopPayload>(1));
}

void ElectionNode::on_message(Context& ctx, std::size_t /*in_index*/,
                              const Payload& payload) {
  const auto& msg = payload_as<HopPayload>(payload);
  const std::uint64_t n = ctx.network_size();
  ABE_CHECK_GE(msg.hop(), 1u);
  if (msg.hop() > n && options_.tolerate_protocol_violation) {
    // An equivocated token over-counted the passive stretch; a correct
    // node discards what the honest protocol could never have sent.
    ++overflow_drops_;
    return;
  }
  ABE_CHECK_LE(msg.hop(), n) << "hop counter exceeded ring size";

  // Every receipt first folds the hop count into d(A).
  d_ = std::max(d_, msg.hop());

  switch (state_) {
    case ElectionState::kIdle:
    case ElectionState::kPassive:
      // (i)/(ii) idle nodes are knocked out and turn passive; passive nodes
      // forward. Either way the message moves on as ⟨d+1⟩, advertising the
      // knocked-out stretch behind this node. d < n here: a hop of n can
      // only reach an active node (the count of live messages always equals
      // the count of active nodes, so a non-active receiver implies another
      // active node exists, i.e. at most n−2 passives) — except under
      // equivocation, where a duplicated token can legitimately drive d to
      // n at a passive node; tolerance drops it (the knockout stands).
      if (d_ >= n && options_.tolerate_protocol_violation) {
        ++overflow_drops_;
        set_state(ctx, ElectionState::kPassive);
        break;
      }
      ABE_CHECK_LT(d_, n) << "forwarding would exceed ring size";
      set_state(ctx, ElectionState::kPassive);
      ++forwards_;
      ctx.send(0, std::make_unique<HopPayload>(d_ + 1));
      break;
    case ElectionState::kActive:
      // (iii) purge; hop = n certifies all n−1 others are passive.
      ++purges_;
      if (msg.hop() == n) {
        set_state(ctx, ElectionState::kLeader);
      } else {
        set_state(ctx, ElectionState::kIdle);
      }
      break;
    case ElectionState::kLeader:
      // Stale messages still circulating die here, like at any active node.
      ++purges_;
      break;
  }
}

}  // namespace abe
