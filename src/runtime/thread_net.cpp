#include "runtime/thread_net.h"

#include <algorithm>

#include "util/check.h"

namespace abe {

// Context implementation whose methods run exclusively on the node's thread.
class ThreadNetwork::ThreadContext final : public Context {
 public:
  ThreadContext(ThreadNetwork* net, std::size_t index)
      : net_(net), index_(index) {}

  NodeId self() const override {
    return NodeId{static_cast<std::int64_t>(index_)};
  }
  std::size_t out_degree() const override {
    return net_->out_channels_.degree(index_);
  }
  std::size_t in_degree() const override {
    return net_->in_channels_.degree(index_);
  }
  std::size_t network_size() const override { return net_->size(); }

  void send(std::size_t out_index, PayloadPtr payload) override {
    ABE_CHECK_LT(out_index, net_->out_channels_.degree(index_));
    ABE_CHECK(static_cast<bool>(payload));
    Slot& self_slot = net_->slots_[index_];
    const std::size_t edge = net_->out_channels_.of(index_)[out_index];
    const std::size_t to = net_->config_.topology.edges[edge].to;

    net_->messages_sent_.fetch_add(1, std::memory_order_relaxed);
    // The send's cause is the handler this thread is currently running; the
    // send's id rides the mail item so the pop-side DELIVER links back.
    const std::int64_t send_id = net_->record_trace(
        TraceKind::kSend, self(), static_cast<std::int64_t>(edge),
        net_->trace_detail(*payload, edge), self_slot.current_cause);
    // Silent loss (failure injection): the message vanishes in transit.
    // Sent-then-dropped counting mirrors NetworkMetrics, so in-flight
    // arithmetic (sent - delivered - dropped) works on both runtimes.
    if (net_->config_.loss_probability > 0.0 &&
        self_slot.rng.bernoulli(net_->config_.loss_probability)) {
      net_->messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      net_->record_trace(TraceKind::kDrop,
                         NodeId{static_cast<std::int64_t>(to)},
                         static_cast<std::int64_t>(edge),
                         net_->trace_detail(*payload, edge), send_id);
      return;
    }

    // Policies synchronise internally (make_bounded_adversary) — this call
    // runs concurrently from every node thread.
    const double delay =
        net_->config_.adversary_delay != nullptr
            ? net_->config_.adversary_delay->next_delay(index_, to)
            : net_->config_.delay->sample(self_slot.rng);
    MailItem item;
    item.kind = MailItem::Kind::kMessage;
    item.due = net_->sim_to_wall(delay);
    item.cause = send_id;
    item.in_index = net_->in_index_of_edge_[edge];
    item.edge = edge;
    item.payload = std::shared_ptr<const Payload>(payload.release());
    item.delay_sim = delay;
    net_->slots_[to].mailbox->push(std::move(item));
  }

  double local_now() override {
    return net_->now_sim() * net_->slots_[index_].clock_rate;
  }
  SimTime real_now() const override { return net_->now_sim(); }

  TimerId set_timer_local(double local_delay, std::uint64_t tag) override {
    ABE_CHECK_GE(local_delay, 0.0);
    const double real_delay =
        local_delay / net_->slots_[index_].clock_rate;
    const std::int64_t id =
        net_->next_timer_id_.fetch_add(1, std::memory_order_relaxed);
    MailItem item;
    item.kind = MailItem::Kind::kTimer;
    item.due = net_->sim_to_wall(real_delay);
    // set_timer_local runs on the node's own thread: the arming handler is
    // this slot's current event.
    item.cause = net_->slots_[index_].current_cause;
    item.timer_id = id;
    item.tag = tag;
    net_->slots_[index_].mailbox->push(std::move(item));
    return TimerId{id};
  }

  bool cancel_timer(TimerId id) override {
    net_->slots_[index_].mailbox->cancel_timer(id.value());
    return true;
  }

  Rng& rng() override { return net_->slots_[index_].rng; }

  void log(const std::string& detail) override {
    net_->record_trace(TraceKind::kCustom, self(), -1, detail,
                       net_->slots_[index_].current_cause);
  }

 private:
  ThreadNetwork* net_;
  std::size_t index_;
};

ThreadNetwork::ThreadNetwork(ThreadNetConfig config)
    : config_(std::move(config)), root_rng_(config_.seed) {
  validate_topology(config_.topology);
  config_.clock_bounds.validate();
  if (!config_.delay) config_.delay = exponential_delay(1.0);
  ABE_CHECK_GT(config_.time_scale_us, 0.0);
  ABE_CHECK_GE(config_.loss_probability, 0.0);
  ABE_CHECK_LT(config_.loss_probability, 1.0)
      << "loss probability 1 would never deliver";

  const std::size_t n = config_.topology.n;
  out_channels_ = out_adjacency(config_.topology);
  in_channels_ = in_adjacency(config_.topology);
  in_index_of_edge_ = in_channels_.local_indices();
  ABE_CHECK(config_.drift != DriftModel::kPiecewiseRandom)
      << "thread runtime realises clocks as scaled wall time; only kNone "
         "and kFixedRandomRate are possible";

  slots_ = std::vector<Slot>(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i].mailbox = std::make_unique<Mailbox>();
    slots_[i].context = std::make_unique<ThreadContext>(this, i);
    slots_[i].rng = root_rng_.substream("thread-node", i);
    if (config_.drift == DriftModel::kFixedRandomRate) {
      Rng clock_rng = root_rng_.substream("thread-clock", i);
      slots_[i].clock_rate = clock_rng.uniform(config_.clock_bounds.s_low,
                                               config_.clock_bounds.s_high);
    } else {
      slots_[i].clock_rate = 1.0;
    }
  }
  {
    MutexLock lock(trace_mutex_);
    if (config_.trace) trace_.enable();
    // Lite records at full capacity: enough retained history for complete
    // cause chains without the detail-string cost.
    if (config_.causal_history) trace_.set_capacity(Trace::kFullCapacity);
  }
}

std::string ThreadNetwork::trace_detail(const Payload& payload,
                                        std::size_t edge) const {
  if (!config_.trace) return std::string();
  return "edge=" + std::to_string(edge) + " " + payload.describe();
}

std::int64_t ThreadNetwork::record_trace(TraceKind kind, NodeId node,
                                         std::int64_t arg,
                                         const std::string& detail,
                                         std::int64_t cause, double delay,
                                         double work) {
  // Delivery-side records are stamped with now_sim() at the moment the
  // consumer popped the item — mailbox delivery time, the thread runtime's
  // analogue of the simulator's event time.
  const double t = now_sim();
  MutexLock lock(trace_mutex_);
  if (detail.empty()) {
    return trace_.record(t, kind, node, arg, cause, delay, work);
  }
  return trace_.record(t, kind, node, detail, arg, cause, delay, work);
}

Trace ThreadNetwork::trace_copy() const {
  MutexLock lock(trace_mutex_);
  return trace_;
}

MetricsSnapshot ThreadNetwork::metrics_snapshot() const {
  MetricsSnapshot snap;
  snap.add_counter("net.sent", static_cast<double>(messages_sent_.load()));
  snap.add_counter("net.delivered",
                   static_cast<double>(messages_delivered_.load()));
  snap.add_counter("net.dropped",
                   static_cast<double>(messages_dropped_.load()));
  snap.add_counter("net.ticks", static_cast<double>(ticks_fired_.load()));
  snap.add_counter("net.timers", static_cast<double>(timers_fired_.load()));
  snap.add_counter("thread.cv_wakeups",
                   static_cast<double>(cv_wakeups_.load()));
  std::size_t mailbox_high_water = 0;
  for (const auto& slot : slots_) {
    mailbox_high_water = std::max(mailbox_high_water,
                                  slot.mailbox->high_water());
  }
  snap.add_gauge("thread.mailbox_high_water",
                 static_cast<double>(mailbox_high_water));
  if (config_.metrics) {
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    for (const auto& slot : slots_) {
      const std::uint64_t ns =
          slot.handler_ns.load(std::memory_order_relaxed);
      total_ns += ns;
      max_ns = std::max(max_ns, ns);
    }
    snap.add_counter("thread.handler_us.sum",
                     static_cast<double>(total_ns) / 1e3);
    snap.add_gauge("thread.handler_us.max",
                   static_cast<double>(max_ns) / 1e3);
  }
  {
    MutexLock lock(trace_mutex_);
    snap.add_counter("trace.recorded",
                     static_cast<double>(trace_.total_recorded()));
  }
  return snap;
}

ThreadNetwork::~ThreadNetwork() { stop(); }

void ThreadNetwork::add_node(NodePtr node) {
  ABE_CHECK(!started_.load());
  ABE_CHECK(static_cast<bool>(node));
  ABE_CHECK_LT(next_slot_, slots_.size()) << "more nodes than topology slots";
  slots_[next_slot_++].node = std::move(node);
}

void ThreadNetwork::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  for (std::size_t i = 0; i < size(); ++i) add_node(factory(i));
}

MailItem::Clock::time_point ThreadNetwork::sim_to_wall(
    double sim_delay_from_now) const {
  return MailItem::Clock::now() +
         std::chrono::microseconds(static_cast<std::int64_t>(
             sim_delay_from_now * config_.time_scale_us));
}

double ThreadNetwork::now_sim() const {
  const auto elapsed = MailItem::Clock::now() - start_time_;
  const double us =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count());
  return us / config_.time_scale_us;
}

void ThreadNetwork::start() {
  ABE_CHECK(!started_.exchange(true)) << "start() called twice";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ABE_CHECK(static_cast<bool>(slots_[i].node)) << "node " << i << " missing";
  }
  start_time_ = MailItem::Clock::now();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].thread = std::thread([this, i] { thread_main(i); });
  }
}

void ThreadNetwork::signal_progress() {
  // The empty critical section pairs with the wait in wait_until: a
  // predicate flip made by this thread can never slip between the waiter's
  // pred() check and its block (classic missed-wakeup fence).
  cv_wakeups_.fetch_add(1, std::memory_order_relaxed);
  { MutexLock lock(progress_mutex_); }
  progress_cv_.notify_all();
}

void ThreadNetwork::thread_main(std::size_t index) {
  Slot& slot = slots_[index];
  Context& ctx = *slot.context;
  active_handlers_.fetch_add(1, std::memory_order_acq_rel);
  slot.node->on_start(ctx);
  slot.terminated.store(slot.node->is_terminated(),
                        std::memory_order_release);
  nodes_started_.fetch_add(1, std::memory_order_acq_rel);
  active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
  signal_progress();

  // Self-generated ticks: computed from the node's local clock.
  std::uint64_t tick_seq = 0;
  auto next_tick_due = [&]() {
    const double next_local =
        static_cast<double>(tick_seq + 1) * config_.tick_local_period;
    const double real = next_local / slot.clock_rate;  // sim units
    return start_time_ + std::chrono::microseconds(static_cast<std::int64_t>(
                             real * config_.time_scale_us));
  };
  if (config_.enable_ticks) {
    MailItem tick;
    tick.kind = MailItem::Kind::kTimer;
    tick.timer_id = -1;  // sentinel: tick, not a user timer
    tick.due = next_tick_due();
    slot.mailbox->push(std::move(tick));
  }

  MailItem item;
  while (slot.mailbox->pop(item)) {
    // The handler scope participates in quiescence detection: in-flight can
    // read 0 while a just-delivered message is still being handled (and may
    // yet send), so wait_quiescent also requires active_handlers_ == 0.
    // Ordering matters — the increment must precede messages_delivered_.
    active_handlers_.fetch_add(1, std::memory_order_acq_rel);
    // Handler-time accounting (metrics mode): wall-clock reads bracket the
    // handler body only, not the mailbox wait.
    const auto handler_start = config_.metrics
                                   ? MailItem::Clock::now()
                                   : MailItem::Clock::time_point{};
    if (item.kind == MailItem::Kind::kMessage) {
      messages_delivered_.fetch_add(1, std::memory_order_relaxed);
      // The processing draw happens before the record so the DELIVER can
      // carry its `work` attribution; same per-thread draw sequence either
      // way (this thread's rng sees no other draw in between).
      double ptime = 0.0;
      if (config_.processing.kind != ProcessingModel::Kind::kZero) {
        ptime = config_.processing.sample(slot.rng);
      }
      // arg is the global edge id, as on the simulator, so cross-runtime
      // edge attribution and the SEND->DELIVER edge match line up.
      slot.current_cause = record_trace(
          TraceKind::kDeliver, ctx.self(),
          static_cast<std::int64_t>(item.edge),
          config_.trace ? "edge=" + std::to_string(item.edge) + " " +
                              item.payload->describe()
                        : std::string(),
          item.cause, item.delay_sim, ptime);
      // Definition 1(3): handling occupies the node for the sampled time.
      if (ptime > 0.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(ptime * config_.time_scale_us)));
      }
      slot.node->on_message(ctx, item.in_index, *item.payload);
    } else if (item.kind == MailItem::Kind::kTimer) {
      if (item.timer_id == -1) {
        ++tick_seq;
        ticks_fired_.fetch_add(1, std::memory_order_relaxed);
        slot.current_cause = record_trace(TraceKind::kTick, ctx.self(),
                                          static_cast<std::int64_t>(tick_seq),
                                          std::string(), item.cause);
        slot.node->on_tick(ctx, tick_seq);
        if (!slot.node->is_terminated()) {
          MailItem tick;
          tick.kind = MailItem::Kind::kTimer;
          tick.timer_id = -1;
          tick.cause = slot.current_cause;  // this tick schedules the next
          tick.due = next_tick_due();
          slot.mailbox->push(std::move(tick));
        }
      } else {
        timers_fired_.fetch_add(1, std::memory_order_relaxed);
        slot.current_cause = record_trace(TraceKind::kTimer, ctx.self(),
                                          static_cast<std::int64_t>(item.tag),
                                          std::string(), item.cause);
        slot.node->on_timer(ctx, TimerId{item.timer_id}, item.tag);
      }
    }
    if (config_.metrics) {
      const auto handler_ns = std::chrono::duration_cast<
          std::chrono::nanoseconds>(MailItem::Clock::now() - handler_start);
      slot.handler_ns.fetch_add(
          static_cast<std::uint64_t>(handler_ns.count()),
          std::memory_order_relaxed);
    }
    slot.terminated.store(slot.node->is_terminated(),
                          std::memory_order_release);
    active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
    signal_progress();
  }
}

bool ThreadNetwork::wait_until(const std::function<bool()>& pred,
                               std::chrono::milliseconds timeout) {
  const auto deadline = MailItem::Clock::now() + timeout;
  MutexLock lock(progress_mutex_);
  return progress_cv_.wait_until(progress_mutex_, deadline,
                                 [&] { return pred(); });
}

bool ThreadNetwork::wait_quiescent(std::chrono::milliseconds timeout) {
  return wait_until(
      [&] {
        // Freshly spawned threads look quiescent before their on_start has
        // run (and sent anything), so quiescence starts counting only once
        // every node came up.
        if (nodes_started_.load(std::memory_order_acquire) != size()) {
          return false;
        }
        // Consistent-snapshot dance: counters balanced → no handler active
        // → counters unchanged. The three reads happen at different times,
        // so each alone can race a node popping the last in-flight message
        // (delivered++ lands between our reads while its handler, which
        // may yet send, is still running). The re-read closes that window
        // for message-driven protocols: a handler active at the middle
        // read would have bumped `delivered` between the two counter
        // snapshots (its increment precedes the handler body), and any
        // message still in a mailbox keeps sent > delivered + dropped in
        // both snapshots.
        const std::uint64_t sent1 = messages_sent_.load();
        const std::uint64_t done1 =
            messages_delivered_.load() + messages_dropped_.load();
        if (sent1 != done1) return false;
        if (active_handlers_.load(std::memory_order_acquire) != 0) {
          return false;
        }
        const std::uint64_t sent2 = messages_sent_.load();
        const std::uint64_t done2 =
            messages_delivered_.load() + messages_dropped_.load();
        return sent2 == sent1 && done2 == done1;
      },
      timeout);
}

void ThreadNetwork::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  for (auto& slot : slots_) {
    slot.mailbox->close();
  }
  for (auto& slot : slots_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
}

Node& ThreadNetwork::node(std::size_t i) {
  ABE_CHECK_LT(i, slots_.size());
  return *slots_[i].node;
}

bool ThreadNetwork::terminated(std::size_t i) const {
  ABE_CHECK_LT(i, slots_.size());
  return slots_[i].terminated.load(std::memory_order_acquire);
}

}  // namespace abe
