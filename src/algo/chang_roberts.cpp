#include "algo/chang_roberts.h"

#include <atomic>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace abe {

ChangRobertsNode::ChangRobertsNode(
    std::uint64_t id, std::function<void(NodeId, SimTime)> on_leader)
    : id_(id), on_leader_(std::move(on_leader)) {}

void ChangRobertsNode::on_start(Context& ctx) {
  if (ctx.network_size() == 1) {
    leader_ = true;
    if (on_leader_) on_leader_(ctx.self(), ctx.real_now());
    return;
  }
  ctx.send(0, std::make_unique<CrToken>(id_));
}

void ChangRobertsNode::on_message(Context& ctx, std::size_t /*in_index*/,
                                  const Payload& payload) {
  const auto& token = payload_as<CrToken>(payload);
  if (leader_) return;  // nothing can still be circulating legitimately
  if (token.id() == id_) {
    // Our id survived a full circle: every other id was smaller.
    leader_ = true;
    if (on_leader_) on_leader_(ctx.self(), ctx.real_now());
    return;
  }
  if (token.id() > id_) {
    passive_ = true;  // a bigger id is out there; stop competing
    ctx.send(0, std::make_unique<CrToken>(token.id()));
  }
  // Smaller id: purge.
}

std::string ChangRobertsNode::state_string() const {
  std::ostringstream os;
  if (leader_) {
    os << "leader id=" << id_;
  } else {
    os << (passive_ ? "passive" : "candidate") << " id=" << id_;
  }
  return os.str();
}

namespace {

class ChangRobertsDriver final : public AlgorithmDriver {
 public:
  void configure(RuntimeConfig& config) override {
    const std::size_t n = config.plan->size();
    drain_window_ =
        64.0 * config.delay->mean_delay() * static_cast<double>(n);
    ids_ = Rng(config.seed).substream("cr-ids").permutation(n);
  }

  NodePtr make_node(std::size_t index) override {
    return std::make_unique<ChangRobertsNode>(
        static_cast<std::uint64_t>(ids_[index] + 1),
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
    std::size_t leaders = 0;  // a node is terminated once it is leader
    for (std::size_t i = 0; i < rt.size(); ++i) leaders += rt.terminated(i);
    // Chang–Roberts must elect exactly the node holding the maximum id, n.
    const std::uint64_t id = ids_[static_cast<std::size_t>(leader)] + 1;
    out.safety_ok = leaders == 1 && id == ids_.size();
    if (!out.safety_ok) {
      out.safety_detail = std::to_string(leaders) +
                          " leader(s); the first holds id " +
                          std::to_string(id);
    }
    return out;
  }

 private:
  // Runs in the electing node's handler; keeps the first leader.
  void on_leader(NodeId node, SimTime when) {
    std::int64_t none = -1;
    if (leader_.compare_exchange_strong(none, node.value())) {
      elected_at_ = when;
    }
  }

  std::vector<std::size_t> ids_;  // node i holds id ids_[i] + 1
  SimTime drain_window_ = 0.0;
  std::atomic<std::int64_t> leader_{-1};
  SimTime elected_at_ = 0.0;
  std::uint64_t messages_ = 0;
};

}  // namespace

std::unique_ptr<AlgorithmDriver> make_chang_roberts_driver() {
  return std::make_unique<ChangRobertsDriver>();
}

}  // namespace abe
