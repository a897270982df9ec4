#include "core/harness.h"

#include <atomic>
#include <sstream>

#include "util/check.h"

namespace abe {

namespace {

// Watches state changes via the node counters; the run loop polls this
// through the cheap leader_count below rather than scanning all nodes.
// Atomics because on the thread runtime on_state_change fires concurrently
// from node threads. leader_count never decrements, so it doubles as
// "leaders ever elected" (the max_leaders_ever safety figure). Lock-free by
// design — a driver observer runs inside node event handlers, so a mutex
// here would serialise the runtime; any future non-atomic observer state
// must move behind an AnnotatedMutex with GUARDED_BY annotations
// (util/thread_annotations.h) to keep the TSan job and -Wthread-safety
// meaningful.
struct LeaderWatch final : ElectionObserver {
  std::atomic<std::uint64_t> leader_count{0};
  std::atomic<std::uint64_t> last_leader{0};

  void on_state_change(NodeId node, ElectionState /*from*/, ElectionState to,
                       SimTime /*when*/) override {
    if (to == ElectionState::kLeader) {
      last_leader.store(static_cast<std::uint64_t>(node.value()),
                        std::memory_order_relaxed);
      leader_count.fetch_add(1, std::memory_order_release);
    }
  }
};

class RingElectionDriver final : public AlgorithmDriver {
 public:
  RingElectionDriver(const ElectionOptions& options, SimTime settle_time,
                     bool adversarial, ElectionRunResult* sink)
      : options_(options),
        settle_time_(settle_time),
        adversarial_(adversarial),
        sink_(sink) {
    ABE_CHECK(sink_ != nullptr);
    options_.observer = &watch_;
  }

  void configure(RuntimeConfig& config) override {
    config.enable_ticks = true;
    lossy_ = config.loss_probability > 0.0;
  }

  NodePtr make_node(std::size_t /*index*/) override {
    return std::make_unique<ElectionNode>(options_);
  }

  bool done(const Runtime& /*rt*/) override {
    return watch_.leader_count.load(std::memory_order_acquire) > 0;
  }

  void on_complete(Runtime& rt) override {
    const RunStats stats = rt.stats();
    sink_->elected = true;
    sink_->leader_index = static_cast<std::size_t>(
        watch_.last_leader.load(std::memory_order_relaxed));
    sink_->election_time = rt.now();
    sink_->messages = stats.messages_sent;
    sink_->ticks = stats.ticks_fired;
  }

  void settle(Runtime& rt, bool completed) override {
    // Extra time after the election confirms stability: no second leader
    // can appear and the network goes quiet.
    if (completed && settle_time_ > 0.0) rt.run_for(settle_time_);
  }

  TrialOutcome extract(Runtime& rt, bool completed) override {
    TrialOutcome out;
    if (!completed) {
      sink_->elected = false;
      sink_->safety_ok = false;
      sink_->safety_detail = "no leader before deadline";
      // Distinguish the all-passive deadlock (possible under loss: every
      // token died in a channel and every node was knocked out) from a run
      // that was still working at the deadline. Quiescent + no idle node
      // left means no future activation is possible — the trial STALLED
      // rather than timed out. Simulator-only: thread runs freeze
      // mid-flight, so their in_flight snapshot cannot prove quiescence.
      if (rt.kind() == RuntimeKind::kSim) {
        const RunStats stats = rt.stats();
        std::size_t can_activate = 0;
        for (std::size_t i = 0; i < rt.size(); ++i) {
          const Node& node = rt.node(i);
          const auto& inner =
              static_cast<const ElectionNode&>(node.algorithm_node());
          if (inner.state() == ElectionState::kIdle &&
              !node.is_terminated()) {
            ++can_activate;
          }
        }
        if (stats.in_flight() == 0 && can_activate == 0) {
          sink_->stalled = true;
          sink_->safety_detail =
              "stalled: quiescent with no leader and no idle node left";
          out.stalled = true;
          out.safety_detail = sink_->safety_detail;
          return out;
        }
      }
      if (rt.kind() == RuntimeKind::kThread) {
        // Wall-clock timeouts are diagnosed post mortem ("how far did it
        // get before the budget expired?"), so report the progress
        // counters; the simulator keeps the historical zeros — failed
        // trials never feed aggregates there.
        const RunStats stats = rt.stats();
        sink_->messages = stats.messages_sent;
        sink_->messages_total = stats.messages_sent;
        sink_->ticks = stats.ticks_fired;
        sink_->election_time = stats.now;
      }
      out.safety_detail = sink_->safety_detail;
      return out;
    }

    const RunStats stats = rt.stats();
    sink_->messages_total = stats.messages_sent;
    sink_->max_leaders_ever =
        watch_.leader_count.load(std::memory_order_acquire);

    // --- safety postconditions ------------------------------------------
    std::ostringstream detail;
    bool ok = true;
    std::size_t leaders = 0;
    std::size_t passives = 0;
    for (std::size_t i = 0; i < rt.size(); ++i) {
      // algorithm_node() sees through a FaultyNode decorator when the
      // scenario engine injected behavior profiles.
      const auto& node =
          static_cast<const ElectionNode&>(rt.node(i).algorithm_node());
      sink_->activations += node.activations();
      sink_->purges += node.purges();
      switch (node.state()) {
        case ElectionState::kLeader:
          ++leaders;
          break;
        case ElectionState::kPassive:
          ++passives;
          break;
        default:
          break;
      }
    }
    if (leaders != 1) {
      ok = false;
      detail << "expected exactly 1 leader, found " << leaders << "; ";
    }
    if (sink_->max_leaders_ever > 1) {
      ok = false;
      detail << "more than one leader was ever elected; ";
    }
    // The passive-count and in-flight postconditions describe the HONEST
    // ring environment: crashed nodes are never knocked out, and
    // equivocated tokens may still circulate at quiescence. Under injected
    // behavior profiles or adversarial delays only the actual safety
    // property remains — exactly one leader, never two leaders ever.
    if (!adversarial_ && passives != rt.size() - 1) {
      ok = false;
      detail << "expected " << rt.size() - 1 << " passive nodes, found "
             << passives << "; ";
    }
    // Dropped messages mean a token died in the channel — with failure
    // injection the run can still elect by luck, but quiescence is no
    // longer token conservation, so only require in-flight == 0 on
    // lossless runs. Wall-clock runs freeze mid-flight by design, so the
    // check is simulator-only.
    if (!adversarial_ && rt.kind() == RuntimeKind::kSim &&
        !lossy_ && stats.in_flight() != 0) {
      ok = false;
      detail << stats.in_flight() << " messages still in flight; ";
    }
    sink_->safety_ok = ok;
    sink_->safety_detail = detail.str();

    out.completed = true;
    out.safety_ok = sink_->safety_ok;
    out.safety_detail = sink_->safety_detail;
    out.time = sink_->election_time;
    out.messages = sink_->messages;
    // The leader's becoming-leader event terminates the trial's causal
    // chain (obs/causal.h): the trial loop extracts the critical path
    // ending at this node at election_time.
    out.decision_node = static_cast<std::int64_t>(sink_->leader_index);
    return out;
  }

 private:
  LeaderWatch watch_;
  ElectionOptions options_;
  SimTime settle_time_;
  bool adversarial_;
  bool lossy_ = false;
  ElectionRunResult* sink_;
};

}  // namespace

std::unique_ptr<AlgorithmDriver> make_ring_election_driver(
    const ElectionOptions& options, SimTime settle_time, bool adversarial,
    ElectionRunResult* sink) {
  return std::make_unique<RingElectionDriver>(options, settle_time,
                                              adversarial, sink);
}

}  // namespace abe
