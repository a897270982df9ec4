#include "algo/polling_election.h"

#include <atomic>
#include <sstream>

#include "util/check.h"

namespace abe {

const char* polling_state_name(PollingState s) {
  switch (s) {
    case PollingState::kAsleep:
      return "asleep";
    case PollingState::kPolled:
      return "polled";
    case PollingState::kPassive:
      return "passive";
    case PollingState::kLeader:
      return "leader";
  }
  return "?";
}

std::string PollPayload::describe() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kWake:
      os << "Wake(r=" << round_ << ")";
      break;
    case Kind::kEcho:
      os << "Echo(r=" << round_ << ", best=" << id_ << ", count=" << count_
         << ")";
      break;
    case Kind::kResult:
      os << "Result(r=" << round_ << ", winner=" << id_ << ")";
      break;
  }
  return os.str();
}

PollingWiring polling_wiring(const NetworkPlan& plan, std::size_t node) {
  const PlanTree& tree = plan.tree();
  PollingWiring w;
  w.is_root = node == tree.root;
  if (!w.is_root) w.parent_out = tree.up[node];
  w.children_out = tree.children_out(node);
  return w;
}

PollingElectionNode::PollingElectionNode(PollingWiring wiring,
                                         PollingOptions options)
    : wiring_(wiring), options_(std::move(options)) {
  ABE_CHECK_GE(options_.id_bits, 1u);
  ABE_CHECK_LE(options_.id_bits, 64u);
}

std::uint64_t PollingElectionNode::draw_id(Context& ctx) {
  if (options_.id_bits == 64) return ctx.rng().next_u64();
  return ctx.rng().uniform_int(std::uint64_t{1} << options_.id_bits);
}

void PollingElectionNode::on_start(Context& ctx) {
  if (wiring_.is_root) begin_round(ctx, 0);
}

void PollingElectionNode::begin_round(Context& ctx, std::uint64_t round) {
  woken_ = true;
  state_ = PollingState::kPolled;
  round_ = round;
  id_ = draw_id(ctx);
  best_ = id_;
  best_count_ = 1;
  children_reported_ = 0;
  for (std::size_t out : wiring_.children_out) {
    ctx.send(out, std::make_unique<PollPayload>(PollPayload::Kind::kWake,
                                                round, 0, 0));
  }
  if (wiring_.children_out.empty()) report_or_decide(ctx);
}

void PollingElectionNode::on_message(Context& ctx, std::size_t /*in_index*/,
                                     const Payload& payload) {
  const auto& msg = payload_as<PollPayload>(payload);
  switch (msg.kind()) {
    case PollPayload::Kind::kWake:
      // Rounds are strictly sequenced by the convergecast: a parent only
      // starts r+1 after every child echoed r, so no Wake can skip ahead.
      ABE_CHECK_EQ(msg.round(), woken_ ? round_ + 1 : 0u);
      begin_round(ctx, msg.round());
      break;
    case PollPayload::Kind::kEcho: {
      ABE_CHECK_EQ(msg.round(), round_);
      // Extinction: only the largest id's wave survives the combine.
      if (msg.id() > best_) {
        best_ = msg.id();
        best_count_ = msg.count();
      } else if (msg.id() == best_) {
        best_count_ += msg.count();
      }
      ++children_reported_;
      if (children_reported_ == wiring_.children_out.size()) {
        report_or_decide(ctx);
      }
      break;
    }
    case PollPayload::Kind::kResult:
      ABE_CHECK_EQ(msg.round(), round_);
      finish(ctx, msg.id());
      break;
  }
}

void PollingElectionNode::report_or_decide(Context& ctx) {
  if (!wiring_.is_root) {
    ctx.send(wiring_.parent_out,
             std::make_unique<PollPayload>(PollPayload::Kind::kEcho, round_,
                                           best_, best_count_));
    return;
  }
  if (best_count_ == 1) {
    finish(ctx, best_);
  } else {
    // Tie among best_count_ nodes: poll everyone again with fresh ids.
    begin_round(ctx, round_ + 1);
  }
}

void PollingElectionNode::finish(Context& ctx, std::uint64_t winner) {
  for (std::size_t out : wiring_.children_out) {
    ctx.send(out, std::make_unique<PollPayload>(PollPayload::Kind::kResult,
                                                round_, winner, 0));
  }
  if (id_ == winner) {
    state_ = PollingState::kLeader;
    if (options_.on_leader) options_.on_leader(ctx.self(), ctx.real_now());
  } else {
    state_ = PollingState::kPassive;
  }
}

namespace {

// Leader observation shared between nodes and the run loop; atomics because
// on the thread runtime on_leader fires concurrently from node threads.
struct PollingWatch {
  std::atomic<std::uint64_t> leader_count{0};
  std::atomic<std::uint64_t> last_leader{0};
};

class PollingDriver final : public AlgorithmDriver {
 public:
  PollingDriver(unsigned id_bits, PollingRunResult* sink)
      : id_bits_(id_bits), sink_(sink) {
    ABE_CHECK(sink_ != nullptr);
  }

  void configure(RuntimeConfig& config) override {
    // Coordination structure is infrastructure, not anonymous algorithm
    // state: the tree comes precomputed with the plan (cf. BetaWiring),
    // built here on the plan's first trial.
    plan_ = config.plan;
    plan_->tree();
    lossy_ = config.loss_probability > 0.0;
  }

  NodePtr make_node(std::size_t index) override {
    PollingOptions options;
    options.id_bits = id_bits_;
    PollingWatch* watch = &watch_;
    options.on_leader = [watch](NodeId node, SimTime /*when*/) {
      watch->last_leader.store(static_cast<std::uint64_t>(node.value()),
                               std::memory_order_relaxed);
      watch->leader_count.fetch_add(1, std::memory_order_release);
    };
    // The node's children_out is a view into plan_, which this driver
    // keeps until after the runtime has destroyed its nodes.
    return std::make_unique<PollingElectionNode>(
        polling_wiring(*plan_, index), std::move(options));
  }

  bool done(const Runtime& /*rt*/) override {
    return watch_.leader_count.load(std::memory_order_acquire) > 0;
  }

  void on_complete(Runtime& rt) override {
    sink_->elected = true;
    sink_->leader_index = static_cast<std::size_t>(
        watch_.last_leader.load(std::memory_order_relaxed));
    sink_->election_time = rt.now();
    sink_->messages = rt.stats().messages_sent;
  }

  void settle(Runtime& rt, bool completed) override {
    // Let the RESULT broadcast drain so the terminal configuration (and
    // any second leader a bug would produce) is observable. The protocol
    // has no tick generators and the broadcast sends a bounded message
    // count, so the queue always drains — no settle window to tune (a
    // timed window would truncate deep trees: the RESULT descends
    // depth-many channels in sequence, an Erlang-depth tail). On the
    // thread runtime the drain is bounded by the trial's wall budget.
    if (completed) rt.drain(kTimeInfinity);
  }

  TrialOutcome extract(Runtime& rt, bool completed) override {
    TrialOutcome out;
    if (!completed) {
      sink_->safety_detail = "no leader before deadline";
      out.safety_detail = sink_->safety_detail;
      return out;
    }

    const RunStats stats = rt.stats();
    sink_->messages_total = stats.messages_sent;
    sink_->max_leaders_ever =
        watch_.leader_count.load(std::memory_order_acquire);

    std::ostringstream detail;
    std::size_t leaders = 0;
    std::size_t passives = 0;
    for (std::size_t i = 0; i < rt.size(); ++i) {
      const auto& node = static_cast<const PollingElectionNode&>(
          rt.node(i).algorithm_node());
      if (node.woken()) ++sink_->woken;
      if (node.state() == PollingState::kLeader) {
        ++leaders;
        sink_->rounds = node.round() + 1;
      } else if (node.state() == PollingState::kPassive) {
        ++passives;
      }
    }

    // Safety proper: the protocol must never mint two leaders, lossy or
    // not (a RESULT names one winner id and only its holder leads).
    bool safe = true;
    if (leaders > 1 || sink_->max_leaders_ever > 1) {
      safe = false;
      detail << "more than one leader (" << leaders << " now, "
             << sink_->max_leaders_ever << " ever); ";
    }

    // Termination completeness: guaranteed on reliable channels; loss can
    // strand kPolled nodes behind a dropped RESULT (or unwoken ones behind
    // a dropped WAKE), which is the injected failure, not an algorithm bug.
    bool terminated = true;
    if (leaders != 1) {
      terminated = false;
      detail << "expected exactly 1 leader, found " << leaders << "; ";
    }
    if (passives != rt.size() - 1) {
      terminated = false;
      detail << "expected " << rt.size() - 1 << " passive nodes, found "
             << passives << "; ";
    }
    if (sink_->woken != rt.size()) {
      terminated = false;
      detail << "polling incomplete: only " << sink_->woken << " of "
             << rt.size() << " nodes were woken; ";
    }
    if (stats.in_flight() != 0) {
      terminated = false;
      detail << stats.in_flight() << " messages still in flight; ";
    }

    sink_->terminated = terminated;
    sink_->safety_ok = lossy_ ? safe : safe && terminated;
    sink_->safety_detail = detail.str();

    out.completed = true;
    out.safety_ok = sink_->safety_ok;
    out.safety_detail = sink_->safety_detail;
    out.time = sink_->election_time;
    out.messages = sink_->messages;
    // Critical-path anchor (obs/causal.h): the winner's becoming-leader
    // handler at election_time terminates the causal chain.
    out.decision_node = static_cast<std::int64_t>(sink_->leader_index);
    return out;
  }

 private:
  unsigned id_bits_;
  bool lossy_ = false;
  PollingRunResult* sink_;
  PollingWatch watch_;
  std::shared_ptr<const NetworkPlan> plan_;
};

}  // namespace

std::unique_ptr<AlgorithmDriver> make_polling_driver(unsigned id_bits,
                                                     PollingRunResult* sink) {
  return std::make_unique<PollingDriver>(id_bits, sink);
}

}  // namespace abe
