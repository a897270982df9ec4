#include "adversary/faulty_node.h"

#include <utility>

#include "util/check.h"

namespace abe {

// Context shim that duplicates every outbound send: the original payload
// goes out, then a clone on the same channel. Everything else forwards.
// Stack-constructed per callback (stateless beyond the two pointers), so it
// needs no lifetime management and inherits the wrapped Context's thread
// confinement.
class FaultyNode::EquivocatingContext final : public Context {
 public:
  EquivocatingContext(Context& wrapped, std::uint64_t* duplicated)
      : wrapped_(wrapped), duplicated_(duplicated) {}

  NodeId self() const override { return wrapped_.self(); }
  std::size_t out_degree() const override { return wrapped_.out_degree(); }
  std::size_t in_degree() const override { return wrapped_.in_degree(); }
  std::size_t network_size() const override {
    return wrapped_.network_size();
  }

  void send(std::size_t out_index, PayloadPtr payload) override {
    PayloadPtr duplicate = payload->clone();
    wrapped_.send(out_index, std::move(payload));
    wrapped_.send(out_index, std::move(duplicate));
    ++*duplicated_;
  }

  double local_now() override { return wrapped_.local_now(); }
  SimTime real_now() const override { return wrapped_.real_now(); }
  TimerId set_timer_local(double local_delay, std::uint64_t tag) override {
    return wrapped_.set_timer_local(local_delay, tag);
  }
  bool cancel_timer(TimerId id) override { return wrapped_.cancel_timer(id); }
  Rng& rng() override { return wrapped_.rng(); }
  void log(const std::string& detail) override { wrapped_.log(detail); }

 private:
  Context& wrapped_;
  std::uint64_t* duplicated_;
};

FaultyNode::FaultyNode(NodePtr inner, BehaviorProfile profile,
                       double crash_time, std::size_t reorder_window)
    : inner_(std::move(inner)),
      profile_(profile),
      crash_time_(crash_time),
      reorder_window_(reorder_window) {
  ABE_CHECK(static_cast<bool>(inner_));
  ABE_CHECK_NE(static_cast<int>(profile),
               static_cast<int>(BehaviorProfile::kHonest))
      << "honest nodes are not wrapped";
  if (profile == BehaviorProfile::kCrashAtT ||
      profile == BehaviorProfile::kCrashRandom) {
    ABE_CHECK_GE(crash_time_, 0.0);
  }
  if (profile == BehaviorProfile::kReorder) {
    ABE_CHECK_GE(reorder_window_, 1u);
    reorder_buffer_.reserve(reorder_window_);
  }
}

bool FaultyNode::check_crashed(Context& ctx) {
  if (crashed_) return true;
  if ((profile_ == BehaviorProfile::kCrashAtT ||
       profile_ == BehaviorProfile::kCrashRandom) &&
      ctx.real_now() >= crash_time_) {
    crashed_ = true;
  }
  return crashed_;
}

void FaultyNode::deliver_inner(Context& ctx, std::size_t in_index,
                               const Payload& payload) {
  if (profile_ == BehaviorProfile::kEquivocate) {
    EquivocatingContext equivocating(ctx, &duplicated_sends_);
    inner_->on_message(equivocating, in_index, payload);
  } else {
    inner_->on_message(ctx, in_index, payload);
  }
}

void FaultyNode::flush_reordered(Context& ctx) {
  // Reverse arrival order: the freshest message is delivered first. The
  // buffer is drained via a local move so a delivery that re-enters
  // on_message (impossible today, cheap to guard) cannot corrupt it.
  std::vector<Buffered> pending = std::move(reorder_buffer_);
  reorder_buffer_.clear();
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    ++reordered_deliveries_;
    deliver_inner(ctx, it->in_index, *it->payload);
  }
}

void FaultyNode::on_start(Context& ctx) {
  if (check_crashed(ctx)) return;
  if (profile_ == BehaviorProfile::kEquivocate) {
    EquivocatingContext equivocating(ctx, &duplicated_sends_);
    inner_->on_start(equivocating);
  } else {
    inner_->on_start(ctx);
  }
}

void FaultyNode::on_message(Context& ctx, std::size_t in_index,
                            const Payload& payload) {
  if (check_crashed(ctx)) return;
  if (profile_ == BehaviorProfile::kReorder) {
    reorder_buffer_.push_back({in_index, payload.clone()});
    if (reorder_buffer_.size() >= reorder_window_) flush_reordered(ctx);
    return;
  }
  deliver_inner(ctx, in_index, payload);
}

void FaultyNode::on_tick(Context& ctx, std::uint64_t tick) {
  if (check_crashed(ctx)) return;
  // A partially-filled reorder buffer drains on the next tick so buffered
  // messages cannot be withheld forever (ticks are the liveness source the
  // afflicted algorithms already rely on).
  if (profile_ == BehaviorProfile::kReorder && !reorder_buffer_.empty()) {
    flush_reordered(ctx);
  }
  if (profile_ == BehaviorProfile::kEquivocate) {
    EquivocatingContext equivocating(ctx, &duplicated_sends_);
    inner_->on_tick(equivocating, tick);
  } else {
    inner_->on_tick(ctx, tick);
  }
}

void FaultyNode::on_timer(Context& ctx, TimerId id, std::uint64_t tag) {
  if (check_crashed(ctx)) return;
  if (profile_ == BehaviorProfile::kEquivocate) {
    EquivocatingContext equivocating(ctx, &duplicated_sends_);
    inner_->on_timer(equivocating, id, tag);
  } else {
    inner_->on_timer(ctx, id, tag);
  }
}

std::string FaultyNode::state_string() const {
  if (crashed_) return "crashed";
  return inner_->state_string();
}

bool FaultyNode::is_terminated() const {
  return crashed_ || inner_->is_terminated();
}

TickDemand FaultyNode::tick_demand() const {
  if (crashed_) return TickDemand::none();
  if (profile_ == BehaviorProfile::kEquivocate) return inner_->tick_demand();
  return inner_->is_terminated() ? TickDemand::none() : TickDemand::every();
}

NodePtr maybe_wrap_faulty(NodePtr inner, const BehaviorSpec& spec,
                          std::size_t index, std::size_t n,
                          double crash_time) {
  if (!spec.afflicts(index, n)) return inner;
  const std::size_t window =
      spec.profile == BehaviorProfile::kReorder
          ? static_cast<std::size_t>(spec.param)
          : 0;
  const double when =
      spec.profile == BehaviorProfile::kCrashAtT ? spec.param : crash_time;
  return std::make_unique<FaultyNode>(std::move(inner), spec.profile, when,
                                      window);
}

}  // namespace abe
