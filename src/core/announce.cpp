#include "core/announce.h"

#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"

namespace abe {

AnnouncingElectionNode::AnnouncingElectionNode(ElectionOptions options)
    : inner_(options) {}

void AnnouncingElectionNode::on_start(Context& ctx) { inner_.on_start(ctx); }

void AnnouncingElectionNode::on_tick(Context& ctx, std::uint64_t tick) {
  if (done_) return;
  inner_.on_tick(ctx, tick);
  // A 1-ring's node elects itself on a tick with no message traffic.
  if (inner_.state() == ElectionState::kLeader && ctx.network_size() == 1) {
    announced_ = true;
    done_ = true;
  }
}

void AnnouncingElectionNode::on_message(Context& ctx,
                                        std::size_t in_index,
                                        const Payload& payload) {
  if (const auto* announce = payload_cast<AnnouncePayload>(payload)) {
    const std::uint64_t n = ctx.network_size();
    ABE_CHECK_LE(announce->hop(), n);
    if (inner_.state() == ElectionState::kLeader) {
      // Wave completed the circle; everyone knows now.
      ABE_CHECK_EQ(announce->hop(), n) << "announce returned early";
      done_ = true;
      return;
    }
    ABE_CHECK(inner_.state() == ElectionState::kPassive)
        << "announce met a non-passive non-leader ("
        << inner_.state_string() << ")";
    done_ = true;
    distance_ = announce->hop();
    ctx.send(0, std::make_unique<AnnouncePayload>(announce->hop() + 1));
    return;
  }

  inner_.on_message(ctx, in_index, payload);
  if (inner_.state() == ElectionState::kLeader && !announced_) {
    announced_ = true;
    distance_ = 0;
    if (ctx.network_size() > 1) {
      ctx.send(0, std::make_unique<AnnouncePayload>(1));
    } else {
      done_ = true;
    }
  }
}

std::string AnnouncingElectionNode::state_string() const {
  std::ostringstream os;
  os << inner_.state_string();
  if (done_) os << " done(d=" << distance_ << ")";
  return os.str();
}

namespace {

class AnnouncedElectionDriver final : public AlgorithmDriver {
 public:
  explicit AnnouncedElectionDriver(ElectionOptions options)
      : options_(options) {}

  void configure(RuntimeConfig& config) override {
    config.enable_ticks = true;
  }

  NodePtr make_node(std::size_t /*index*/) override {
    return std::make_unique<AnnouncingElectionNode>(options_);
  }

  bool done(const Runtime& rt) override {
    // A node that knows the outcome stays terminated, so each call resumes
    // at the first node not yet seen terminated.
    while (known_ < rt.size() && rt.terminated(known_)) ++known_;
    return known_ == rt.size();
  }

  TrialOutcome extract(Runtime& rt, bool completed) override {
    TrialOutcome out;
    out.messages = rt.stats().messages_sent;
    if (!completed) {
      out.safety_detail = "some node never learned the outcome";
      return out;
    }
    out.completed = true;
    out.time = rt.now();
    const std::size_t n = rt.size();
    std::vector<std::uint64_t> distance(n);
    std::size_t leader = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& node = static_cast<const AnnouncingElectionNode&>(
          rt.node(i).algorithm_node());
      distance[i] = node.distance_from_leader();
      if (node.is_leader()) leader = i;
    }
    out.decision_node = static_cast<std::int64_t>(leader);
    out.safety_ok = true;
    for (std::size_t i = 0; i < n && out.safety_ok; ++i) {
      const std::size_t expected = (i + n - leader) % n;
      out.safety_ok = distance[i] == expected;
      if (!out.safety_ok) {
        out.safety_detail = "node " + std::to_string(i) + " learned distance " +
                            std::to_string(distance[i]) + ", expected " +
                            std::to_string(expected);
      }
    }
    return out;
  }

 private:
  ElectionOptions options_;
  std::size_t known_ = 0;  // nodes 0..known_-1 are terminated
};

}  // namespace

std::unique_ptr<AlgorithmDriver> make_announced_election_driver(
    ElectionOptions options) {
  return std::make_unique<AnnouncedElectionDriver>(options);
}

}  // namespace abe
