#include "algo/itai_rodeh.h"

#include <atomic>
#include <sstream>
#include <string>
#include <utility>

namespace abe {

std::string IrToken::describe() const {
  std::ostringstream os;
  os << "IR(r=" << round_ << ",id=" << id_ << ",hop=" << hop_
     << (clean_ ? ",clean" : ",dirty") << ")";
  return os.str();
}

ItaiRodehNode::ItaiRodehNode(std::uint64_t id_range,
                             std::function<void(NodeId, SimTime)> on_leader)
    : id_range_(id_range), on_leader_(std::move(on_leader)) {}

void ItaiRodehNode::on_start(Context& ctx) {
  if (ctx.network_size() == 1) {
    leader_ = true;
    if (on_leader_) on_leader_(ctx.self(), ctx.real_now());
    return;
  }
  start_round(ctx);
}

void ItaiRodehNode::start_round(Context& ctx) {
  ++round_;
  const std::uint64_t range =
      id_range_ == 0 ? ctx.network_size() : id_range_;
  id_ = 1 + ctx.rng().uniform_int(range);
  ctx.send(0, std::make_unique<IrToken>(round_, id_, 1, true));
}

void ItaiRodehNode::on_message(Context& ctx, std::size_t /*in_index*/,
                               const Payload& payload) {
  const auto& token = payload_as<IrToken>(payload);
  const std::uint64_t n = ctx.network_size();

  if (passive_) {
    // Relay unchanged except for the hop count.
    ctx.send(0, std::make_unique<IrToken>(token.round(), token.id(),
                                          token.hop() + 1, token.clean()));
    return;
  }
  if (leader_) {
    return;  // stale tokens die at the leader
  }

  // Candidate: compare (round, id) lexicographically.
  const bool own_pair = token.round() == round_ && token.id() == id_;
  if (own_pair && token.hop() == n) {
    // Our token made it all the way around.
    if (token.clean()) {
      leader_ = true;
      if (on_leader_) on_leader_(ctx.self(), ctx.real_now());
    } else {
      start_round(ctx);  // tie this round; redraw
    }
    return;
  }
  const bool greater = token.round() > round_ ||
                       (token.round() == round_ && token.id() > id_);
  if (greater) {
    passive_ = true;
    ctx.send(0, std::make_unique<IrToken>(token.round(), token.id(),
                                          token.hop() + 1, token.clean()));
    return;
  }
  if (own_pair) {
    // Same (round, id) but hop < n: another candidate drew our id. Dirty the
    // token so its originator (and ours, symmetrically) redraws.
    ctx.send(0, std::make_unique<IrToken>(token.round(), token.id(),
                                          token.hop() + 1, false));
    return;
  }
  // Strictly smaller (round, id): purge.
}

std::string ItaiRodehNode::state_string() const {
  std::ostringstream os;
  if (leader_) {
    os << "leader";
  } else if (passive_) {
    os << "passive";
  } else {
    os << "candidate r=" << round_ << " id=" << id_;
  }
  return os.str();
}

namespace {

class ItaiRodehDriver final : public AlgorithmDriver {
 public:
  ItaiRodehDriver(std::uint64_t id_range, std::uint64_t* leader_round)
      : id_range_(id_range), leader_round_(leader_round) {}

  void configure(RuntimeConfig& config) override {
    config.ordering = ChannelOrdering::kFifo;
    drain_window_ = 64.0 * config.delay->mean_delay() *
                    static_cast<double>(config.plan->size());
  }

  NodePtr make_node(std::size_t /*index*/) override {
    return std::make_unique<ItaiRodehNode>(
        id_range_,
        [this](NodeId node, SimTime when) { on_leader(node, when); });
  }

  bool done(const Runtime& /*rt*/) override {
    return leader_.load() >= 0;
  }

  void on_complete(Runtime& rt) override {
    messages_ = rt.stats().messages_sent;
  }

  void settle(Runtime& rt, bool completed) override {
    if (completed) rt.drain(drain_window_);
  }

  TrialOutcome extract(Runtime& rt, bool completed) override {
    TrialOutcome out;
    if (!completed) {
      out.messages = rt.stats().messages_sent;
      out.safety_detail = "no leader before the deadline";
      return out;
    }
    const std::int64_t leader = leader_.load();
    out.completed = true;
    out.time = elected_at_;
    out.messages = messages_;
    out.decision_node = leader;
    if (leader_round_ != nullptr) {
      *leader_round_ =
          static_cast<const ItaiRodehNode&>(
              rt.node(static_cast<std::size_t>(leader)).algorithm_node())
              .round();
    }
    std::size_t leaders = 0;  // a node is terminated once it is leader
    for (std::size_t i = 0; i < rt.size(); ++i) leaders += rt.terminated(i);
    const std::uint64_t elections = elections_.load();
    out.safety_ok = leaders == 1 && elections == 1;
    if (!out.safety_ok) {
      out.safety_detail = std::to_string(leaders) + " leader(s) at the end, " +
                          std::to_string(elections) + " election(s)";
    }
    return out;
  }

 private:
  // Runs in the electing node's handler; keeps the first leader and counts
  // every election.
  void on_leader(NodeId node, SimTime when) {
    std::int64_t none = -1;
    if (leader_.compare_exchange_strong(none, node.value())) {
      elected_at_ = when;
    }
    elections_.fetch_add(1);
  }

  std::uint64_t id_range_;
  std::uint64_t* leader_round_;
  SimTime drain_window_ = 0.0;
  std::atomic<std::int64_t> leader_{-1};
  std::atomic<std::uint64_t> elections_{0};
  SimTime elected_at_ = 0.0;
  std::uint64_t messages_ = 0;
};

}  // namespace

std::unique_ptr<AlgorithmDriver> make_itai_rodeh_driver(
    std::uint64_t id_range, std::uint64_t* leader_round) {
  return std::make_unique<ItaiRodehDriver>(id_range, leader_round);
}

}  // namespace abe
