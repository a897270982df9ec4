#include "syncr/sync_app.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace abe {

SyncEnvelope::SyncEnvelope(std::uint64_t round, PayloadPtr app)
    : round_(round), app_(app.release()) {}

std::unique_ptr<Payload> SyncEnvelope::clone() const {
  auto copy = std::make_unique<SyncEnvelope>(round_);
  copy->app_ = app_;  // immutable payloads share safely
  return copy;
}

std::string SyncEnvelope::describe() const {
  std::ostringstream os;
  os << "Sync(r=" << round_ << ", "
     << (app_ ? app_->describe() : std::string("null")) << ")";
  return os.str();
}

SyncNode::SyncNode(std::unique_ptr<SyncApp> app, std::uint64_t max_rounds)
    : app_(std::move(app)), max_rounds_(max_rounds) {
  ABE_CHECK(static_cast<bool>(app_));
  ABE_CHECK_GT(max_rounds, 0u);
}

std::vector<SyncOutgoing> SyncNode::start_app(Context& ctx) {
  app_ctx_ = SyncAppContext{static_cast<std::size_t>(ctx.self().value()),
                            ctx.out_degree(), ctx.in_degree(),
                            ctx.network_size(), &ctx.rng()};
  return app_->on_init(app_ctx_);
}

std::vector<SyncOutgoing> SyncNode::run_round(
    std::uint64_t round, const std::vector<SyncIncoming>& inbox) {
  auto next = app_->on_round(app_ctx_, round, inbox);
  ++rounds_completed_;
  if (rounds_completed_ >= max_rounds_) finished_ = true;
  return next;
}

std::size_t SyncNode::send_app_messages(Context& ctx, std::uint64_t round,
                                        std::vector<SyncOutgoing> msgs) {
  for (auto& msg : msgs) {
    ABE_CHECK_LT(msg.out_index, ctx.out_degree());
    ABE_CHECK(static_cast<bool>(msg.payload));
    ctx.send(msg.out_index,
             std::make_unique<SyncEnvelope>(round, std::move(msg.payload)));
  }
  return msgs.size();
}

bool SynchronizerDriver::done(const Runtime& rt) {
  // A node that ran its last round stays terminated, so each call resumes
  // at the first node not yet seen terminated.
  while (finished_nodes_ < rt.size() && rt.terminated(finished_nodes_)) {
    ++finished_nodes_;
  }
  return finished_nodes_ == rt.size();
}

TrialOutcome SynchronizerDriver::extract(Runtime& rt, bool completed) {
  const RunStats stats = rt.stats();
  sink_->completed = completed;
  sink_->rounds = rounds_;
  sink_->messages_total = stats.messages_sent;
  sink_->messages_per_round = static_cast<double>(sink_->messages_total) /
                              static_cast<double>(rounds_);
  sink_->completion_time = rt.now();
  sink_->outputs.resize(rt.size());
  sink_->late_messages = 0;
  for (std::size_t i = 0; i < rt.size(); ++i) {
    const auto& node =
        static_cast<const SyncNode&>(rt.node(i).algorithm_node());
    sink_->outputs[i] = node.app().output();
    sink_->late_messages += node.late_messages();
  }

  TrialOutcome out;
  out.completed = completed;
  out.safety_ok = completed;
  out.time = sink_->completion_time;
  out.messages = sink_->messages_total;
  return out;
}

}  // namespace abe
