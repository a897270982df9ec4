#include "algo/gossip.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "util/check.h"

namespace abe {

GossipNode::GossipNode(bool initially_informed,
                       std::function<void()> on_informed)
    : informed_(initially_informed), on_informed_(std::move(on_informed)) {}

void GossipNode::on_tick(Context& ctx, std::uint64_t /*tick*/) {
  if (!informed_ || ctx.out_degree() == 0) return;
  const std::size_t target = ctx.rng().uniform_int(ctx.out_degree());
  ++pushes_;
  ctx.send(target, std::make_unique<RumorPayload>());
}

void GossipNode::on_message(Context& ctx, std::size_t /*in_index*/,
                            const Payload& payload) {
  payload_as<RumorPayload>(payload);  // type check
  if (!informed_) {
    informed_ = true;
    informed_at_ = ctx.real_now();
    if (on_informed_) on_informed_();
  }
}

std::string GossipNode::state_string() const {
  std::ostringstream os;
  os << (informed_ ? "informed" : "susceptible") << " pushes=" << pushes_;
  return os.str();
}

namespace {

class GossipDriver final : public AlgorithmDriver {
 public:
  GossipDriver(const GossipExperiment& experiment, GossipResult* sink)
      : source_(experiment.source), sink_(sink) {
    ABE_CHECK(sink_ != nullptr);
  }

  void configure(RuntimeConfig& config) override {
    ABE_CHECK_LT(source_, config.plan->size());
    n_ = config.plan->size();
    config.enable_ticks = true;  // informed nodes push on local ticks
  }

  NodePtr make_node(std::size_t index) override {
    const bool informed = index == source_;
    if (informed) {
      // The source never transitions; count it here so the done predicate
      // tracks exactly "nodes informed so far".
      informed_count_.fetch_add(1, std::memory_order_relaxed);
      return std::make_unique<GossipNode>(true);
    }
    std::atomic<std::size_t>* count = &informed_count_;
    return std::make_unique<GossipNode>(false, [count] {
      count->fetch_add(1, std::memory_order_release);
    });
  }

  bool done(const Runtime& /*rt*/) override {
    return informed_count_.load(std::memory_order_acquire) >= n_;
  }

  TrialOutcome extract(Runtime& rt, bool completed) override {
    const RunStats stats = rt.stats();
    sink_->all_informed = completed;
    sink_->messages = stats.messages_sent;

    TrialOutcome out;
    out.messages = sink_->messages;
    if (!completed) {
      out.safety_detail = "rumor did not reach everyone";
      return out;
    }

    Summary inform_times;
    SimTime last = 0.0;
    for (std::size_t i = 0; i < rt.size(); ++i) {
      const auto& node =
          static_cast<const GossipNode&>(rt.node(i).algorithm_node());
      inform_times.add(node.informed_at());
      last = std::max(last, node.informed_at());
    }
    sink_->spread_time = last;
    sink_->mean_inform_time = inform_times.mean();

    out.completed = true;
    // Gossip's safety postcondition is total dissemination itself.
    out.safety_ok = true;
    out.time = sink_->spread_time;
    return out;
  }

 private:
  std::size_t source_;
  GossipResult* sink_;
  std::size_t n_ = 0;
  std::atomic<std::size_t> informed_count_{0};
};

}  // namespace

RuntimeConfig gossip_runtime_config(const GossipExperiment& experiment) {
  RuntimeConfig config;
  config.plan = make_plan(experiment.topology);
  config.delay = experiment.delay
                     ? experiment.delay
                     : make_delay_model(experiment.delay_name,
                                        experiment.mean_delay);
  config.clock_bounds = experiment.clock_bounds;
  config.drift = experiment.drift;
  config.processing = experiment.processing;
  config.loss_probability = experiment.loss_probability;
  config.seed = experiment.seed;
  config.equeue = experiment.equeue;
  config.deadline = experiment.deadline;
  return config;
}

std::unique_ptr<AlgorithmDriver> make_gossip_driver(
    const GossipExperiment& experiment, GossipResult* sink) {
  return std::make_unique<GossipDriver>(experiment, sink);
}

GossipResult run_gossip(const GossipExperiment& experiment) {
  GossipResult result;
  const auto driver = make_gossip_driver(experiment, &result);
  run_algorithm_trial(RuntimeKind::kSim, gossip_runtime_config(experiment),
                      *driver);
  return result;
}

}  // namespace abe
