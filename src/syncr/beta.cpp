#include "syncr/beta.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace abe {

std::string BetaControl::describe() const {
  const char* name = kind_ == Kind::kAck    ? "ACK"
                     : kind_ == Kind::kSafe ? "SAFE"
                                            : "GO";
  std::ostringstream os;
  os << "Beta" << name << "(r=" << round_ << ")";
  return os.str();
}

BetaWiring beta_wiring(const NetworkPlan& plan, std::size_t node) {
  const PlanTree& tree = plan.tree();
  BetaWiring w;
  w.is_root = node == tree.root;
  if (!w.is_root) w.parent_out = tree.up[node];
  w.children_out = tree.children_out(node);
  w.reverse_of_in = plan.reverse_of_in(node);
  const Adjacency::Span in = plan.in().of(node);
  for (std::size_t k = 0; k < in.size(); ++k) {
    ABE_CHECK(w.reverse_of_in[k] != OutChannelIndex::kNone)
        << "edge " << plan.topology().edges[in[k]].from << "->" << node
        << " lacks the reverse ack channel";
  }
  return w;
}

BetaSyncNode::BetaSyncNode(std::unique_ptr<SyncApp> app,
                           std::uint64_t max_rounds, BetaWiring wiring)
    : SyncNode(std::move(app), max_rounds), wiring_(wiring) {}

void BetaSyncNode::on_start(Context& ctx) {
  pending_sends_ = start_app(ctx);
  begin_round(ctx, 1);
}

void BetaSyncNode::begin_round(Context& ctx, std::uint64_t round) {
  round_ = round;
  safe_reported_ = false;
  // SAFE/ACK cannot outrun our own round start (we forward GO before
  // beginning), so the counters start clean.
  children_safe_ = 0;
  unacked_ = send_app_messages(ctx, round_, std::move(pending_sends_));
  pending_sends_.clear();
  // Buffered app messages that raced ahead of our GO.
  auto it = buffered_.find(round_);
  if (it != buffered_.end()) {
    for (auto& incoming : it->second) inbox_.push_back(std::move(incoming));
    buffered_.erase(it);
  }
  maybe_report_safe(ctx);
}

void BetaSyncNode::maybe_report_safe(Context& ctx) {
  if (finished_ || safe_reported_) return;
  if (unacked_ != 0) return;
  if (children_safe_ != wiring_.children_out.size()) return;
  safe_reported_ = true;
  if (wiring_.is_root) {
    advance(ctx);  // the whole tree is safe: move to the next round
  } else {
    ctx.send(wiring_.parent_out,
             std::make_unique<BetaControl>(BetaControl::Kind::kSafe, round_));
  }
}

void BetaSyncNode::advance(Context& ctx) {
  // Release the subtree first so deeper nodes overlap with our compute.
  const std::uint64_t next = round_ + 1;
  for (std::size_t out : wiring_.children_out) {
    ctx.send(out, std::make_unique<BetaControl>(BetaControl::Kind::kGo,
                                                next));
  }
  std::vector<SyncIncoming> inbox;
  inbox.swap(inbox_);
  auto msgs = run_round(round_, inbox);
  if (finished_) return;
  pending_sends_ = std::move(msgs);
  begin_round(ctx, next);
}

void BetaSyncNode::on_message(Context& ctx, std::size_t in_index,
                              const Payload& payload) {
  if (const auto* env = payload_cast<SyncEnvelope>(payload)) {
    // Ack on receipt, regardless of the round relationship: acks certify
    // delivery, which is all the sender's safety needs.
    ctx.send(wiring_.reverse_of_in[in_index],
             std::make_unique<BetaControl>(BetaControl::Kind::kAck,
                                           env->round()));
    if (!env->has_app()) return;
    if (env->round() == round_ && !finished_) {
      inbox_.push_back(SyncIncoming{in_index, env->app()});
    } else {
      ABE_CHECK_EQ(env->round(), round_ + 1)
          << "app message from an impossible round";
      buffered_[env->round()].push_back(SyncIncoming{in_index, env->app()});
    }
    return;
  }

  const auto& ctl = payload_as<BetaControl>(payload);
  switch (ctl.kind()) {
    case BetaControl::Kind::kAck:
      if (finished_) return;
      ABE_CHECK_EQ(ctl.round(), round_) << "stray ack";
      ABE_CHECK_GT(unacked_, 0u);
      --unacked_;
      maybe_report_safe(ctx);
      return;
    case BetaControl::Kind::kSafe:
      if (finished_) return;
      ABE_CHECK_EQ(ctl.round(), round_) << "SAFE outran its round";
      ++children_safe_;
      maybe_report_safe(ctx);
      return;
    case BetaControl::Kind::kGo:
      if (finished_) return;
      ABE_CHECK_EQ(ctl.round(), round_ + 1) << "GO for an impossible round";
      advance(ctx);
      return;
  }
}

std::string BetaSyncNode::state_string() const {
  std::ostringstream os;
  os << "beta r=" << round_ << (safe_reported_ ? " safe" : "")
     << (finished_ ? " done" : "");
  return os.str();
}

namespace {

class BetaSyncDriver final : public SynchronizerDriver {
 public:
  using SynchronizerDriver::SynchronizerDriver;

  void configure(RuntimeConfig& config) override {
    plan_ = config.plan;
    plan_->tree();  // built here on the plan's first trial
  }

  NodePtr make_node(std::size_t index) override {
    // The node's views point into plan_, which this driver keeps until
    // after the runtime has destroyed its nodes.
    return std::make_unique<BetaSyncNode>(factory_(index), rounds_,
                                          beta_wiring(*plan_, index));
  }

 private:
  std::shared_ptr<const NetworkPlan> plan_;
};

}  // namespace

std::unique_ptr<AlgorithmDriver> make_beta_sync_driver(
    SyncAppFactory factory, std::uint64_t rounds, SynchronizerResult* sink) {
  return std::make_unique<BetaSyncDriver>(std::move(factory), rounds, sink);
}

}  // namespace abe
