#include "runtime/wall_net.h"

#include <algorithm>

#include "runtime/udp_transport.h"
#include "util/check.h"

namespace abe {

// Context implementation whose methods run exclusively on the node's
// dispatcher thread.
class WallNetwork::WallContext final : public Context {
 public:
  WallContext(WallNetwork* net, std::size_t index) : net_(net), index_(index) {}

  NodeId self() const override {
    return NodeId{static_cast<std::int64_t>(index_)};
  }
  std::size_t out_degree() const override {
    return net_->config_.plan->out().degree(index_);
  }
  std::size_t in_degree() const override {
    return net_->config_.plan->in().degree(index_);
  }
  std::size_t network_size() const override { return net_->size(); }

  void send(std::size_t out_index, PayloadPtr payload) override {
    const NetworkPlan& plan = *net_->config_.plan;
    ABE_CHECK_LT(out_index, plan.out().degree(index_));
    ABE_CHECK(static_cast<bool>(payload));
    Slot& self_slot = net_->slots_[index_];
    const std::size_t edge = plan.out().of(index_)[out_index];
    const std::size_t to = plan.end(edge).to;

    net_->messages_sent_.fetch_add(1, std::memory_order_relaxed);
    // The send's cause is the handler this thread is currently running; the
    // send's id rides the mail item (or datagram) so the pop-side DELIVER
    // links back.
    const std::int64_t send_id = net_->record_trace(
        TraceKind::kSend, self(), static_cast<std::int64_t>(edge),
        net_->trace_detail(*payload, edge), self_slot.current_cause);
    // Silent loss (failure injection): the message vanishes in transit.
    // Sent-then-dropped counting mirrors NetworkMetrics, so in-flight
    // arithmetic (sent - delivered - dropped) works on every runtime. The
    // udp reliable layer draws loss per ATTEMPT in its transport instead.
    if (!net_->config_.udp_reliable && net_->config_.loss_probability > 0.0 &&
        self_slot.rng.bernoulli(net_->config_.loss_probability)) {
      net_->messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      net_->record_trace(TraceKind::kDrop,
                         NodeId{static_cast<std::int64_t>(to)},
                         static_cast<std::int64_t>(edge),
                         net_->trace_detail(*payload, edge), send_id);
      return;
    }

    // Policies synchronise internally (make_bounded_adversary) — this call
    // runs concurrently from every dispatcher thread.
    const double delay =
        net_->config_.adversary_delay != nullptr
            ? net_->config_.adversary_delay->next_delay(index_, to)
            : net_->config_.delay->sample(self_slot.rng);
    std::shared_ptr<const Payload> shared(payload.release());
    if (net_->udp_ != nullptr) {
      net_->udp_->send(index_, out_index, edge, send_id, delay,
                       std::move(shared));
      return;
    }
    MailItem item;
    item.kind = MailItem::Kind::kMessage;
    item.due = net_->sim_to_wall(delay);
    item.cause = send_id;
    item.in_index = plan.end(edge).in_index;
    item.edge = edge;
    item.payload = std::move(shared);
    item.delay_sim = delay;
    net_->slots_[to].mailbox->push(std::move(item));
  }

  double local_now() override {
    return net_->now_sim() * net_->slots_[index_].clock_rate;
  }
  SimTime real_now() const override { return net_->now_sim(); }

  TimerId set_timer_local(double local_delay, std::uint64_t tag) override {
    ABE_CHECK_GE(local_delay, 0.0);
    const double real_delay = local_delay / net_->slots_[index_].clock_rate;
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

  // False once the timer has fired (including from inside its own
  // on_timer), as Scheduler::cancel answers on the simulator.
  bool cancel_timer(TimerId id) override {
    return net_->slots_[index_].mailbox->cancel_timer(id.value());
  }

  Rng& rng() override { return net_->slots_[index_].rng; }

  void log(const std::string& detail) override {
    net_->record_trace(TraceKind::kCustom, self(), -1, detail,
                       net_->slots_[index_].current_cause);
  }

 private:
  WallNetwork* net_;
  std::size_t index_;
};

WallNetwork::WallNetwork(RuntimeKind kind, RuntimeConfig config)
    : kind_(kind), config_(std::move(config)), root_rng_(config_.seed) {
  ABE_CHECK(kind_ == RuntimeKind::kThread || kind_ == RuntimeKind::kUdp)
      << "wall-clock runtimes are thread and udp";
  ABE_CHECK(config_.plan != nullptr) << "RuntimeConfig::plan is required";
  const bool udp = kind_ == RuntimeKind::kUdp;
  if (udp) {
    ABE_CHECK_LE(size(), kMaxUdpRuntimeNodes)
        << "udp runtime opens one loopback socket and two OS threads per "
           "node";
  } else {
    ABE_CHECK_LE(size(), kMaxThreadRuntimeNodes)
        << "thread runtime spawns one OS thread per node";
    config_.udp_reliable = false;  // a udp-realisation knob
  }
  config_.clock_bounds.validate();
  if (!config_.delay) config_.delay = exponential_delay(1.0);
  ABE_CHECK_GT(config_.time_scale_us, 0.0);
  ABE_CHECK_GE(config_.loss_probability, 0.0);
  ABE_CHECK_LT(config_.loss_probability, 1.0)
      << "loss probability 1 would never deliver";
  ABE_CHECK(config_.drift != DriftModel::kPiecewiseRandom)
      << runtime_kind_name(kind_)
      << " runtime realises clocks as scaled wall time; only kNone and "
         "kFixedRandomRate are possible";

  const std::size_t n = size();

  slots_ = std::vector<Slot>(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i].mailbox = std::make_unique<Mailbox>();
    slots_[i].context = std::make_unique<WallContext>(this, i);
    slots_[i].rng = root_rng_.substream(udp ? "udp-node" : "thread-node", i);
    if (config_.drift == DriftModel::kFixedRandomRate) {
      Rng clock_rng =
          root_rng_.substream(udp ? "udp-clock" : "thread-clock", i);
      slots_[i].clock_rate = clock_rng.uniform(config_.clock_bounds.s_low,
                                               config_.clock_bounds.s_high);
    }
  }
  if (udp) udp_ = std::make_unique<UdpTransport>(*this);
  {
    MutexLock lock(trace_mutex_);
    if (config_.trace) trace_.enable();
    // Lite records at full capacity: enough retained history for complete
    // cause chains without the detail-string cost.
    if (config_.causal_history) trace_.set_capacity(Trace::kFullCapacity);
  }
}

WallNetwork::~WallNetwork() { stop(); }

std::string WallNetwork::trace_detail(const Payload& payload,
                                      std::size_t edge) const {
  if (!config_.trace) return std::string();
  return "edge=" + std::to_string(edge) + " " + payload.describe();
}

std::int64_t WallNetwork::record_trace(TraceKind kind, NodeId node,
                                       std::int64_t arg,
                                       const std::string& detail,
                                       std::int64_t cause, double delay,
                                       double work) {
  // Delivery-side records are stamped with now_sim() at the moment the
  // consumer popped the item — mailbox delivery time, the wall runtime's
  // analogue of the simulator's event time.
  const double t = now_sim();
  MutexLock lock(trace_mutex_);
  if (detail.empty()) {
    return trace_.record(t, kind, node, arg, cause, delay, work);
  }
  return trace_.record(t, kind, node, detail, arg, cause, delay, work);
}

Trace WallNetwork::trace_copy() const {
  MutexLock lock(trace_mutex_);
  return trace_;
}

MetricsSnapshot WallNetwork::metrics_snapshot() const {
  // Start from the transport's histograms (kUdp) and layer the counters on
  // top — add_* upserts, so the merge is well defined.
  MetricsSnapshot snap = udp_ != nullptr ? udp_->histograms()
                                         : MetricsSnapshot{};
  const std::string prefix = udp_ != nullptr ? "udp." : "thread.";
  snap.add_counter("net.sent", static_cast<double>(messages_sent_.load()));
  snap.add_counter("net.delivered",
                   static_cast<double>(messages_delivered_.load()));
  snap.add_counter("net.dropped",
                   static_cast<double>(messages_dropped_.load()));
  snap.add_counter("net.ticks", static_cast<double>(ticks_fired_.load()));
  snap.add_counter("net.timers", static_cast<double>(timers_fired_.load()));
  snap.add_counter(prefix + "cv_wakeups",
                   static_cast<double>(cv_wakeups_.load()));
  if (udp_ != nullptr) udp_->add_counters(snap);
  std::size_t mailbox_high_water = 0;
  for (const auto& slot : slots_) {
    mailbox_high_water =
        std::max(mailbox_high_water, slot.mailbox->high_water());
  }
  snap.add_gauge(prefix + "mailbox_high_water",
                 static_cast<double>(mailbox_high_water));
  if (config_.metrics) {
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    for (const auto& slot : slots_) {
      const std::uint64_t ns = slot.handler_ns.load(std::memory_order_relaxed);
      total_ns += ns;
      max_ns = std::max(max_ns, ns);
    }
    snap.add_counter(prefix + "handler_us.sum",
                     static_cast<double>(total_ns) / 1e3);
    snap.add_gauge(prefix + "handler_us.max",
                   static_cast<double>(max_ns) / 1e3);
  }
  {
    MutexLock lock(trace_mutex_);
    snap.add_counter("trace.recorded",
                     static_cast<double>(trace_.total_recorded()));
  }
  return snap;
}

void WallNetwork::add_node(NodePtr node) {
  ABE_CHECK(!started_.load());
  ABE_CHECK(static_cast<bool>(node));
  ABE_CHECK_LT(next_slot_, slots_.size()) << "more nodes than topology slots";
  slots_[next_slot_++].node = std::move(node);
}

void WallNetwork::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  for (std::size_t i = 0; i < size(); ++i) add_node(factory(i));
}

MailItem::Clock::time_point WallNetwork::sim_to_wall(
    double sim_delay_from_now) const {
  return MailItem::Clock::now() +
         std::chrono::microseconds(static_cast<std::int64_t>(
             sim_delay_from_now * config_.time_scale_us));
}

double WallNetwork::now_sim() const {
  const auto elapsed = MailItem::Clock::now() - start_time_;
  const double us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  return us / config_.time_scale_us;
}

void WallNetwork::start() {
  ABE_CHECK(!started_.exchange(true)) << "start() called twice";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ABE_CHECK(static_cast<bool>(slots_[i].node)) << "node " << i << " missing";
  }
  start_time_ = MailItem::Clock::now();
  // Readers first: every socket must have someone draining it before any
  // on_start sends (datagrams would only buffer in the kernel, but prompt
  // draining keeps measured transits honest from the first message).
  if (udp_ != nullptr) udp_->start();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].dispatcher = std::thread([this, i] { dispatcher_main(i); });
  }
}

void WallNetwork::signal_progress() {
  // The empty critical section pairs with the wait in wait_until: a
  // predicate flip made by this thread can never slip between the waiter's
  // pred() check and its block (classic missed-wakeup fence).
  cv_wakeups_.fetch_add(1, std::memory_order_relaxed);
  { MutexLock lock(progress_mutex_); }
  progress_cv_.notify_all();
}

void WallNetwork::dispatcher_main(std::size_t index) {
  Slot& slot = slots_[index];
  Context& ctx = *slot.context;
  active_handlers_.fetch_add(1, std::memory_order_acq_rel);
  slot.node->on_start(ctx);
  slot.terminated.store(slot.node->is_terminated(), std::memory_order_release);
  nodes_started_.fetch_add(1, std::memory_order_acq_rel);
  active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
  signal_progress();

  // Self-generated ticks: computed from the node's local clock.
  std::uint64_t tick_seq = 0;
  auto push_next_tick = [&](std::int64_t cause) {
    const double next_local =
        static_cast<double>(tick_seq + 1) * config_.tick_local_period;
    const double real = next_local / slot.clock_rate;  // sim units
    const auto real_us =
        static_cast<std::int64_t>(real * config_.time_scale_us);
    MailItem tick;
    tick.kind = MailItem::Kind::kTimer;
    tick.timer_id = kTickTimerId;
    tick.cause = cause;
    tick.due = start_time_ + std::chrono::microseconds(real_us);
    slot.mailbox->push(std::move(tick));
  };
  if (config_.enable_ticks) push_next_tick(-1);

  MailItem item;
  while (slot.mailbox->pop(item)) {
    // The handler scope participates in quiescence detection: in-flight can
    // read 0 while a just-delivered message is still being handled (and may
    // yet send), so wait_quiescent also requires active_handlers_ == 0.
    // Ordering matters — the increment must precede messages_delivered_.
    active_handlers_.fetch_add(1, std::memory_order_acq_rel);
    // ARQ bookkeeping pops are not node events — no trace record, no timer
    // counter — but stay inside the handler window so a give-up's
    // dropped++ can never land outside it.
    if (item.kind == MailItem::Kind::kTimer &&
        item.timer_id == kRetransmitTimerId) {
      udp_->retransmit(index, item.tag);
      active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
      signal_progress();
      continue;
    }
    // Handler-time accounting (metrics mode): wall-clock reads bracket the
    // handler body only, not the mailbox wait.
    const auto handler_start = config_.metrics ? MailItem::Clock::now()
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
          trace_detail(*item.payload, item.edge), item.cause, item.delay_sim,
          ptime);
      // Definition 1(3): handling occupies the node for the sampled time.
      if (ptime > 0.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(ptime * config_.time_scale_us)));
      }
      slot.node->on_message(ctx, item.in_index, *item.payload);
    } else if (item.timer_id == kTickTimerId) {
      ++tick_seq;
      ticks_fired_.fetch_add(1, std::memory_order_relaxed);
      slot.current_cause = record_trace(TraceKind::kTick, ctx.self(),
                                        static_cast<std::int64_t>(tick_seq),
                                        std::string(), item.cause);
      slot.node->on_tick(ctx, tick_seq);
      // This tick schedules the next.
      if (!slot.node->is_terminated()) push_next_tick(slot.current_cause);
    } else {
      timers_fired_.fetch_add(1, std::memory_order_relaxed);
      slot.current_cause = record_trace(TraceKind::kTimer, ctx.self(),
                                        static_cast<std::int64_t>(item.tag),
                                        std::string(), item.cause);
      slot.node->on_timer(ctx, TimerId{item.timer_id}, item.tag);
    }
    if (config_.metrics) {
      const auto handler_ns = std::chrono::duration_cast<
          std::chrono::nanoseconds>(MailItem::Clock::now() - handler_start);
      slot.handler_ns.fetch_add(static_cast<std::uint64_t>(handler_ns.count()),
                                std::memory_order_relaxed);
    }
    slot.terminated.store(slot.node->is_terminated(),
                          std::memory_order_release);
    active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
    signal_progress();
  }
}

bool WallNetwork::wait_until(const std::function<bool()>& pred,
                             std::chrono::milliseconds timeout) {
  const auto deadline = MailItem::Clock::now() + timeout;
  MutexLock lock(progress_mutex_);
  return progress_cv_.wait_until(progress_mutex_, deadline,
                                 [&] { return pred(); });
}

bool WallNetwork::wait_quiescent(std::chrono::milliseconds timeout) {
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
        // both snapshots. The udp reliable layer needs no extra clause: an
        // unACKed message keeps sent > delivered + dropped until its
        // datagram is popped by the receiving dispatcher or its sender
        // gives up — both counted.
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

void WallNetwork::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  for (auto& slot : slots_) {
    slot.mailbox->close();
  }
  for (auto& slot : slots_) {
    if (slot.dispatcher.joinable()) slot.dispatcher.join();
  }
  // Readers last: one may still push into a closed mailbox, which nobody
  // pops any more.
  if (udp_ != nullptr) udp_->stop();
}

Node& WallNetwork::node(std::size_t i) {
  ABE_CHECK_LT(i, slots_.size());
  return *slots_[i].node;
}

bool WallNetwork::terminated(std::size_t i) const {
  ABE_CHECK_LT(i, slots_.size());
  return slots_[i].terminated.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// WallRuntime

WallRuntime::WallRuntime(RuntimeKind kind, RuntimeConfig config)
    : time_scale_us_(config.time_scale_us),
      wall_timeout_ms_(config.wall_timeout_ms),
      net_(kind, std::move(config)) {
  ABE_CHECK_GT(wall_timeout_ms_, 0.0);
}

void WallRuntime::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  net_.build_nodes(factory);
}

void WallRuntime::start() {
  net_.start();
  // Single clock read point: derive the wall deadline from the same
  // start_time_ read net_.start() took, rather than a second now() — so
  // the budget and now_sim() share one origin and cross-substrate wall
  // accounting lines up.
  wall_deadline_ =
      net_.start_time() +
      std::chrono::microseconds(
          static_cast<std::int64_t>(wall_timeout_ms_ * 1000.0));
  started_ = true;
}

std::chrono::milliseconds WallRuntime::budget_for(SimTime sim) const {
  double budget_ms = wall_timeout_ms_;
  if (started_) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        wall_deadline_ - std::chrono::steady_clock::now());
    budget_ms = std::max<double>(1.0, static_cast<double>(left.count()));
  }
  if (sim < kTimeInfinity) {
    budget_ms = std::min(budget_ms, sim * time_scale_us_ / 1000.0);
  }
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(budget_ms)));
}

bool WallRuntime::run_until_done(const std::function<bool()>& done,
                                 SimTime deadline) {
  // The deadline is absolute sim time (contract shared with SimRuntime),
  // so only the remainder beyond the current clock converts to wall time;
  // the per-trial wall budget caps it so a deadline meant for the
  // simulator (often 1e7 units) cannot turn into an hours-long wall hang.
  const SimTime sim_left = deadline < kTimeInfinity
                               ? std::max(0.0, deadline - net_.now_sim())
                               : kTimeInfinity;
  return net_.wait_until(done, budget_for(sim_left));
}

void WallRuntime::run_for(SimTime duration) {
  // Wall-clock floor: below ~kMinSettleWallMs of wall time, OS scheduling
  // jitter dominates and the requested settle window is not actually
  // realised (in-flight wakeups land later than any sim-unit conversion
  // suggests).
  const double ms =
      std::max(kMinSettleWallMs, duration * time_scale_us_ / 1000.0);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<std::int64_t>(ms)));
}

bool WallRuntime::drain(SimTime max_wait) {
  return net_.wait_quiescent(budget_for(max_wait));
}

void WallRuntime::stop() {
  if (!stopped_) {
    stop_time_ = net_.now_sim();
    stopped_ = true;
  }
  net_.stop();
}

SimTime WallRuntime::now() const {
  return stopped_ ? stop_time_ : net_.now_sim();
}

RunStats WallRuntime::stats() const {
  RunStats stats;
  stats.messages_sent = net_.messages_sent();
  stats.messages_delivered = net_.messages_delivered();
  stats.messages_dropped = net_.messages_dropped();
  stats.ticks_fired = net_.ticks_fired();
  stats.now = now();
  return stats;
}

}  // namespace abe
