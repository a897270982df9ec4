#include "syncr/alpha.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace abe {

AlphaSyncNode::AlphaSyncNode(std::unique_ptr<SyncApp> app,
                             std::uint64_t max_rounds)
    : SyncNode(std::move(app), max_rounds) {}

void AlphaSyncNode::on_start(Context& ctx) {
  emit_round(ctx, 1, start_app(ctx));
  // Degenerate shapes (no in-channels) never receive; advance on the spot.
  try_advance(ctx);
}

void AlphaSyncNode::emit_round(Context& ctx, std::uint64_t round,
                               std::vector<SyncOutgoing> app_msgs) {
  // At most one app message per out-channel per round (synchronous model).
  std::vector<PayloadPtr> per_channel(ctx.out_degree());
  for (auto& msg : app_msgs) {
    ABE_CHECK_LT(msg.out_index, per_channel.size());
    ABE_CHECK(!per_channel[msg.out_index])
        << "app sent two messages on one channel in one round";
    ABE_CHECK(static_cast<bool>(msg.payload));
    per_channel[msg.out_index] = std::move(msg.payload);
  }
  for (std::size_t c = 0; c < per_channel.size(); ++c) {
    if (per_channel[c]) {
      ctx.send(c, std::make_unique<SyncEnvelope>(
                      round, std::move(per_channel[c])));
    } else {
      ctx.send(c, std::make_unique<SyncEnvelope>(round));  // null marker
    }
  }
}

void AlphaSyncNode::on_message(Context& ctx, std::size_t in_index,
                               const Payload& payload) {
  if (finished_) return;
  const auto& env = payload_as<SyncEnvelope>(payload);
  ABE_CHECK_GE(env.round(), current_round_)
      << "round already closed; α requires exactly one envelope per channel "
         "per round";
  auto& slots = pending_[env.round()];
  if (slots.empty()) slots.resize(ctx.in_degree());
  ABE_CHECK_LT(in_index, slots.size());
  ABE_CHECK(!slots[in_index]) << "duplicate envelope for round "
                              << env.round();
  slots[in_index] = std::shared_ptr<const SyncEnvelope>(
      static_cast<const SyncEnvelope*>(env.clone().release()));
  ++pending_count_[env.round()];
  try_advance(ctx);
}

void AlphaSyncNode::try_advance(Context& ctx) {
  while (!finished_) {
    if (ctx.in_degree() > 0 &&
        pending_count_[current_round_] < ctx.in_degree()) {
      return;  // round incomplete; wait
    }
    std::vector<SyncIncoming> inbox;
    auto it = pending_.find(current_round_);
    if (it != pending_.end()) {
      for (std::size_t k = 0; k < it->second.size(); ++k) {
        const auto& env = it->second[k];
        if (env && env->has_app()) {
          inbox.push_back(SyncIncoming{k, env->app()});
        }
      }
      pending_.erase(it);
    }
    pending_count_.erase(current_round_);

    auto next_msgs = run_round(current_round_, inbox);
    if (finished_) return;
    ++current_round_;
    emit_round(ctx, current_round_, std::move(next_msgs));
  }
}

std::string AlphaSyncNode::state_string() const {
  std::ostringstream os;
  os << "alpha r=" << current_round_ << (finished_ ? " done" : "");
  return os.str();
}

namespace {

class AlphaSyncDriver final : public SynchronizerDriver {
 public:
  using SynchronizerDriver::SynchronizerDriver;

  NodePtr make_node(std::size_t index) override {
    return std::make_unique<AlphaSyncNode>(factory_(index), rounds_);
  }
};

}  // namespace

std::unique_ptr<AlgorithmDriver> make_alpha_sync_driver(
    SyncAppFactory factory, std::uint64_t rounds, SynchronizerResult* sink) {
  return std::make_unique<AlphaSyncDriver>(std::move(factory), rounds, sink);
}

}  // namespace abe
