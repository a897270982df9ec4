#include "syncr/abd_sync.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace abe {

AbdSyncNode::AbdSyncNode(std::unique_ptr<SyncApp> app,
                         std::uint64_t max_rounds, double period_local)
    : SyncNode(std::move(app), max_rounds), period_local_(period_local) {
  ABE_CHECK_GT(period_local, 0.0);
}

void AbdSyncNode::on_start(Context& ctx) {
  // Only real app messages are sent — the whole point of the ABD
  // synchronizer is zero overhead (no null markers, no acks).
  send_app_messages(ctx, 1, start_app(ctx));
  // Close round 1 at local time P.
  ctx.set_timer_local(period_local_, 1);
}

void AbdSyncNode::on_message(Context& ctx, std::size_t in_index,
                             const Payload& payload) {
  const auto& env = payload_as<SyncEnvelope>(payload);
  if (!env.has_app()) return;  // defensive; ABD peers never send nulls
  if (env.round() <= closed_rounds_) {
    // The round window already ended: the delay exceeded the assumed bound.
    ++late_;
    ctx.log("late envelope r=" + std::to_string(env.round()));
    return;
  }
  inbox_[env.round()].push_back(SyncIncoming{in_index, env.app()});
}

void AbdSyncNode::on_timer(Context& ctx, TimerId /*id*/, std::uint64_t tag) {
  if (finished_) return;
  const std::uint64_t round = tag;
  ABE_CHECK_EQ(round, closed_rounds_ + 1);
  closed_rounds_ = round;

  std::vector<SyncIncoming> inbox;
  auto it = inbox_.find(round);
  if (it != inbox_.end()) {
    inbox = std::move(it->second);
    inbox_.erase(it);
  }
  auto next_msgs = run_round(round, inbox);
  if (finished_) return;
  send_app_messages(ctx, round + 1, std::move(next_msgs));
  ctx.set_timer_local(period_local_, round + 1);
}

std::string AbdSyncNode::state_string() const {
  std::ostringstream os;
  os << "abd r=" << closed_rounds_ + 1 << " late=" << late_
     << (finished_ ? " done" : "");
  return os.str();
}

namespace {

class AbdSyncDriver final : public SynchronizerDriver {
 public:
  AbdSyncDriver(SyncAppFactory factory, std::uint64_t rounds,
                double period_multiplier, SynchronizerResult* sink)
      : SynchronizerDriver(std::move(factory), rounds, sink),
        period_multiplier_(period_multiplier) {}

  void configure(RuntimeConfig& config) override {
    period_ = period_multiplier_ * config.delay->mean_delay();
    config.deadline = period_ * static_cast<double>(rounds_ + 2) /
                          std::max(config.clock_bounds.s_low, 1e-9) +
                      1.0;
  }

  NodePtr make_node(std::size_t index) override {
    return std::make_unique<AbdSyncNode>(factory_(index), rounds_, period_);
  }

 private:
  double period_multiplier_;
  double period_ = 0.0;
};

}  // namespace

std::unique_ptr<AlgorithmDriver> make_abd_sync_driver(
    SyncAppFactory factory, std::uint64_t rounds, double period_multiplier,
    SynchronizerResult* sink) {
  return std::make_unique<AbdSyncDriver>(std::move(factory), rounds,
                                         period_multiplier, sink);
}

}  // namespace abe
