#include "runtime/udp_runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace abe {

namespace {

std::int64_t steady_ns(MailItem::Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

MailItem::Clock::time_point from_steady_ns(std::int64_t ns) {
  return MailItem::Clock::time_point(
      std::chrono::duration_cast<MailItem::Clock::duration>(
          std::chrono::nanoseconds(ns)));
}

}  // namespace

// The fixed-size datagram header — the only bytes that cross the socket.
// Payload objects stay in the in-process inflight table (see the header
// file comment); `msg_id` is the key that reunites them at delivery.
struct UdpNetwork::UdpWire {
  static constexpr std::uint32_t kMagic = 0x41424544u;  // "ABED"
  static constexpr std::uint8_t kKindData = 0;
  static constexpr std::uint8_t kKindAck = 1;

  std::uint32_t magic = kMagic;
  std::uint8_t kind = kKindData;
  std::uint8_t pad[3] = {0, 0, 0};
  std::uint32_t from = 0;        // sending node index (ACKs route back here)
  std::uint32_t edge = 0;        // global channel id
  std::uint64_t seq = 0;         // per-channel ARQ sequence; 0 = unreliable
  std::uint64_t msg_id = 0;      // inflight-table key; ACKs echo it
  std::int64_t send_id = -1;     // SEND trace record (DELIVER's cause)
  std::int64_t send_ns = 0;      // steady-clock ns of THIS attempt
  std::int64_t first_send_ns = 0;  // first attempt (arq.rtt base; ACK echo)
  double delay_sim = 0.0;        // sampled model delay (sim units)
};

// Context implementation whose methods run exclusively on the node's
// dispatcher thread (mirrors ThreadNetwork::ThreadContext).
class UdpNetwork::UdpContext final : public Context {
 public:
  UdpContext(UdpNetwork* net, std::size_t index) : net_(net), index_(index) {}

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
    const std::int64_t send_id = net_->record_trace(
        TraceKind::kSend, self(), static_cast<std::int64_t>(edge),
        net_->trace_detail(*payload, edge), self_slot.current_cause);
    // Unreliable mode realises injected loss exactly like ThreadNetwork:
    // the message vanishes before the wire, sent-then-dropped counting.
    // (Reliable mode draws loss per ATTEMPT in transmit_data instead.)
    if (!net_->config_.reliable && net_->config_.loss_probability > 0.0 &&
        self_slot.rng.bernoulli(net_->config_.loss_probability)) {
      net_->messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      net_->record_trace(TraceKind::kDrop,
                         NodeId{static_cast<std::int64_t>(to)},
                         static_cast<std::int64_t>(edge),
                         net_->trace_detail(*payload, edge), send_id);
      return;
    }

    const double delay =
        net_->config_.adversary_delay != nullptr
            ? net_->config_.adversary_delay->next_delay(index_, to)
            : net_->config_.delay->sample(self_slot.rng);
    const std::uint64_t msg_id =
        net_->next_msg_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    {
      MutexLock lock(net_->inflight_mutex_);
      net_->inflight_[msg_id] =
          std::shared_ptr<const Payload>(payload.release());
    }

    UdpWire wire;
    wire.from = static_cast<std::uint32_t>(index_);
    wire.edge = static_cast<std::uint32_t>(edge);
    wire.msg_id = msg_id;
    wire.send_id = send_id;
    wire.first_send_ns = steady_ns(MailItem::Clock::now());
    wire.delay_sim = delay;
    if (net_->config_.reliable) {
      wire.seq = ++self_slot.next_seq[out_index];
      {
        MutexLock lock(self_slot.tx_mutex);
        PendingTx tx;
        tx.edge = edge;
        tx.seq = wire.seq;
        tx.to = to;
        tx.send_id = send_id;
        tx.delay_sim = delay;
        tx.first_send_ns = wire.first_send_ns;
        tx.attempts = 1;
        self_slot.unacked.emplace(msg_id, tx);
      }
      net_->transmit_data(index_, wire);
      net_->arm_retransmit(index_, msg_id);
    } else {
      wire.seq = 0;
      net_->transmit_data(index_, wire);
    }
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
  UdpNetwork* net_;
  std::size_t index_;
};

UdpNetwork::UdpNetwork(UdpNetConfig config)
    : config_(std::move(config)), root_rng_(config_.seed) {
  static_assert(sizeof(UdpWire) == 64,
                "wire header layout is part of the datagram format");
  static_assert(std::is_trivially_copyable<UdpWire>::value,
                "wire header is sent as raw bytes");
  validate_topology(config_.topology);
  config_.clock_bounds.validate();
  if (!config_.delay) config_.delay = exponential_delay(1.0);
  ABE_CHECK_GT(config_.time_scale_us, 0.0);
  ABE_CHECK_GE(config_.loss_probability, 0.0);
  ABE_CHECK_LT(config_.loss_probability, 1.0)
      << "loss probability 1 would never deliver";
  ABE_CHECK_GT(config_.arq_timeout, 0.0);
  ABE_CHECK_GE(config_.arq_max_attempts, 1);
  ABE_CHECK(config_.drift != DriftModel::kPiecewiseRandom)
      << "udp runtime realises clocks as scaled wall time; only kNone and "
         "kFixedRandomRate are possible";

  const std::size_t n = config_.topology.n;
  out_channels_ = out_adjacency(config_.topology);
  in_channels_ = in_adjacency(config_.topology);
  in_index_of_edge_ = in_channels_.local_indices();

  // Sockets open in the constructor so every sender knows every port before
  // the first datagram — start() only spawns threads.
  slots_ = std::vector<Slot>(n);
  port_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i].socket = std::make_unique<UdpSocket>();
    port_of_[i] = slots_[i].socket->port();
    slots_[i].mailbox = std::make_unique<Mailbox>();
    slots_[i].context = std::make_unique<UdpContext>(this, i);
    slots_[i].rng = root_rng_.substream("udp-node", i);
    if (config_.drift == DriftModel::kFixedRandomRate) {
      Rng clock_rng = root_rng_.substream("udp-clock", i);
      slots_[i].clock_rate = clock_rng.uniform(config_.clock_bounds.s_low,
                                               config_.clock_bounds.s_high);
    } else {
      slots_[i].clock_rate = 1.0;
    }
    slots_[i].next_seq.assign(out_channels_.degree(i), 0);
    slots_[i].rx.resize(in_channels_.degree(i));
  }

  // Measured-delay instruments live in the network's own registry and are
  // always on: the whole point of this substrate is the measurement, and
  // wall-clock transits are nondeterministic regardless.
  transit_hist_ = &registry_.histogram(
      "udp.transit_us", FixedHistogram::log2_bounds(64.0, 4, 10));
  if (config_.reliable) {
    rtt_hist_ = &registry_.histogram("arq.rtt",
                                     FixedHistogram::log2_bounds(1.0, 6, 10));
  }

  {
    MutexLock lock(trace_mutex_);
    if (config_.trace) trace_.enable();
    if (config_.causal_history) trace_.set_capacity(Trace::kFullCapacity);
  }
}

UdpNetwork::~UdpNetwork() { stop(); }

std::string UdpNetwork::trace_detail(const Payload& payload,
                                     std::size_t edge) const {
  if (!config_.trace) return std::string();
  return "edge=" + std::to_string(edge) + " " + payload.describe();
}

std::int64_t UdpNetwork::record_trace(TraceKind kind, NodeId node,
                                      std::int64_t arg,
                                      const std::string& detail,
                                      std::int64_t cause, double delay,
                                      double work) {
  const double t = now_sim();
  MutexLock lock(trace_mutex_);
  if (detail.empty()) {
    return trace_.record(t, kind, node, arg, cause, delay, work);
  }
  return trace_.record(t, kind, node, detail, arg, cause, delay, work);
}

Trace UdpNetwork::trace_copy() const {
  MutexLock lock(trace_mutex_);
  return trace_;
}

MetricsSnapshot UdpNetwork::metrics_snapshot() const {
  // Start from the registry harvest (udp.transit_us, arq.rtt) and layer the
  // counters on top — add_* upserts, so the merge is well defined.
  MetricsSnapshot snap = registry_.snapshot();
  snap.add_counter("net.sent", static_cast<double>(messages_sent_.load()));
  snap.add_counter("net.delivered",
                   static_cast<double>(messages_delivered_.load()));
  snap.add_counter("net.dropped",
                   static_cast<double>(messages_dropped_.load()));
  snap.add_counter("net.ticks", static_cast<double>(ticks_fired_.load()));
  snap.add_counter("net.timers", static_cast<double>(timers_fired_.load()));
  snap.add_counter("udp.cv_wakeups",
                   static_cast<double>(cv_wakeups_.load()));
  snap.add_counter("udp.datagrams_tx",
                   static_cast<double>(datagrams_tx_.load()));
  snap.add_counter("udp.datagrams_rx",
                   static_cast<double>(datagrams_rx_.load()));
  snap.add_counter("udp.acks_tx", static_cast<double>(acks_tx_.load()));
  snap.add_counter("udp.acks_rx", static_cast<double>(acks_rx_.load()));
  snap.add_counter("udp.retransmits",
                   static_cast<double>(retransmits_.load()));
  snap.add_counter("udp.duplicates", static_cast<double>(duplicates_.load()));
  snap.add_counter("udp.attempt_drops",
                   static_cast<double>(attempt_drops_.load()));
  snap.add_counter("udp.giveups", static_cast<double>(giveups_.load()));
  snap.add_counter("udp.orphans",
                   static_cast<double>(orphan_datagrams_.load()));
  std::size_t mailbox_high_water = 0;
  for (const auto& slot : slots_) {
    mailbox_high_water =
        std::max(mailbox_high_water, slot.mailbox->high_water());
  }
  snap.add_gauge("udp.mailbox_high_water",
                 static_cast<double>(mailbox_high_water));
  if (config_.metrics) {
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    for (const auto& slot : slots_) {
      const std::uint64_t ns = slot.handler_ns.load(std::memory_order_relaxed);
      total_ns += ns;
      max_ns = std::max(max_ns, ns);
    }
    snap.add_counter("udp.handler_us.sum",
                     static_cast<double>(total_ns) / 1e3);
    snap.add_gauge("udp.handler_us.max", static_cast<double>(max_ns) / 1e3);
  }
  {
    MutexLock lock(trace_mutex_);
    snap.add_counter("trace.recorded",
                     static_cast<double>(trace_.total_recorded()));
  }
  return snap;
}

void UdpNetwork::add_node(NodePtr node) {
  ABE_CHECK(!started_.load());
  ABE_CHECK(static_cast<bool>(node));
  ABE_CHECK_LT(next_slot_, slots_.size()) << "more nodes than topology slots";
  slots_[next_slot_++].node = std::move(node);
}

void UdpNetwork::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  for (std::size_t i = 0; i < size(); ++i) add_node(factory(i));
}

MailItem::Clock::time_point UdpNetwork::sim_to_wall(
    double sim_delay_from_now) const {
  return MailItem::Clock::now() +
         std::chrono::microseconds(static_cast<std::int64_t>(
             sim_delay_from_now * config_.time_scale_us));
}

double UdpNetwork::now_sim() const {
  const auto elapsed = MailItem::Clock::now() - start_time_;
  const double us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  return us / config_.time_scale_us;
}

void UdpNetwork::start() {
  ABE_CHECK(!started_.exchange(true)) << "start() called twice";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ABE_CHECK(static_cast<bool>(slots_[i].node)) << "node " << i << " missing";
  }
  start_time_ = MailItem::Clock::now();
  // Readers first: every socket must have someone draining it before any
  // on_start sends (datagrams would only buffer in the kernel, but prompt
  // draining keeps measured transits honest from the first message).
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].reader = std::thread([this, i] { reader_main(i); });
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].dispatcher = std::thread([this, i] { dispatcher_main(i); });
  }
}

void UdpNetwork::signal_progress() {
  // Same missed-wakeup fence as ThreadNetwork::signal_progress.
  cv_wakeups_.fetch_add(1, std::memory_order_relaxed);
  { MutexLock lock(progress_mutex_); }
  progress_cv_.notify_all();
}

void UdpNetwork::transmit_data(std::size_t from, const UdpWire& wire) {
  Slot& slot = slots_[from];
  UdpWire out = wire;
  out.send_ns = steady_ns(MailItem::Clock::now());
  // Reliable mode injects loss per transmission ATTEMPT: the datagram is
  // suppressed, the ARQ timer retries. (Unreliable injected loss was
  // already realised in send(), before the wire.)
  if (config_.reliable && config_.loss_probability > 0.0 &&
      slot.rng.bernoulli(config_.loss_probability)) {
    attempt_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t to = config_.topology.edges[wire.edge].to;
  if (slot.socket->send_to(port_of_[to], &out, sizeof(out))) {
    datagrams_tx_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Kernel refused the send (shutdown race, transient ENOBUFS): treat as
    // transit loss — ARQ retries it, unreliable mode genuinely loses it.
    attempt_drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

void UdpNetwork::arm_retransmit(std::size_t from, std::uint64_t msg_id) {
  MailItem item;
  item.kind = MailItem::Kind::kTimer;
  item.timer_id = kRetransmitTimerId;
  item.tag = msg_id;
  item.due = sim_to_wall(config_.arq_timeout);
  slots_[from].mailbox->push(std::move(item));
}

void UdpNetwork::handle_retransmit(std::size_t index, std::uint64_t msg_id) {
  Slot& slot = slots_[index];
  UdpWire wire;
  bool resend = false;
  bool give_up = false;
  std::int64_t drop_send_id = -1;
  std::size_t drop_to = 0;
  std::size_t drop_edge = 0;
  {
    MutexLock lock(slot.tx_mutex);
    auto it = slot.unacked.find(msg_id);
    if (it == slot.unacked.end()) return;  // ACKed since the timer armed
    PendingTx& tx = it->second;
    if (tx.attempts >= config_.arq_max_attempts) {
      // Attempt cap: with ACKs immune to injected loss, reaching it takes
      // ~loss^max_attempts consecutive data-attempt losses — the give-up
      // exists so a pathological channel cannot wedge quiescence forever.
      give_up = true;
      drop_send_id = tx.send_id;
      drop_to = tx.to;
      drop_edge = tx.edge;
      slot.unacked.erase(it);
    } else {
      tx.attempts += 1;
      wire.from = static_cast<std::uint32_t>(index);
      wire.edge = static_cast<std::uint32_t>(tx.edge);
      wire.seq = tx.seq;
      wire.msg_id = msg_id;
      wire.send_id = tx.send_id;
      wire.first_send_ns = tx.first_send_ns;
      wire.delay_sim = tx.delay_sim;
      resend = true;
    }
  }
  if (give_up) {
    {
      MutexLock lock(inflight_mutex_);
      inflight_.erase(msg_id);
    }
    giveups_.fetch_add(1, std::memory_order_relaxed);
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    record_trace(TraceKind::kDrop, NodeId{static_cast<std::int64_t>(drop_to)},
                 static_cast<std::int64_t>(drop_edge), std::string(),
                 drop_send_id);
    return;
  }
  if (resend) {
    retransmits_.fetch_add(1, std::memory_order_relaxed);
    transmit_data(index, wire);
    arm_retransmit(index, msg_id);
  }
}

void UdpNetwork::reader_main(std::size_t index) {
  Slot& slot = slots_[index];
  UdpWire wire;
  while (!stop_readers_.load(std::memory_order_acquire)) {
    const int got = slot.socket->receive(&wire, sizeof(wire));
    if (got == 0) continue;  // poll interval elapsed; re-check stop flag
    if (got < 0) return;     // unrecoverable socket error (shutdown)
    if (static_cast<std::size_t>(got) != sizeof(UdpWire) ||
        wire.magic != UdpWire::kMagic) {
      // Not ours (stray datagram on a reused port): drop silently.
      continue;
    }
    const std::int64_t recv_ns = steady_ns(MailItem::Clock::now());
    if (wire.kind == UdpWire::kKindAck) {
      handle_ack(index, wire, recv_ns);
    } else {
      handle_data(index, wire, recv_ns);
    }
  }
}

void UdpNetwork::handle_data(std::size_t index, const UdpWire& wire,
                             std::int64_t recv_ns) {
  Slot& slot = slots_[index];
  datagrams_rx_.fetch_add(1, std::memory_order_relaxed);
  // The measurement this substrate exists for: real kernel+loopback transit
  // of this datagram, in wall microseconds.
  transit_hist_->record(
      static_cast<double>(recv_ns - wire.send_ns) / 1e3);

  if (config_.reliable) {
    // Always ACK — duplicates too (the earlier ACK may have raced the
    // retransmit timer). ACKs are deliberately exempt from injected loss,
    // mirroring run_arq_experiment's lossless ack channel (net/arq.h):
    // this keeps sender give-up of an already-delivered message (which
    // would double-count it as both delivered and dropped) out of the
    // model, at ~loss^max_attempts residual probability.
    UdpWire ack;
    ack.kind = UdpWire::kKindAck;
    ack.from = static_cast<std::uint32_t>(index);
    ack.edge = wire.edge;
    ack.seq = wire.seq;
    ack.msg_id = wire.msg_id;
    ack.send_id = wire.send_id;
    ack.send_ns = steady_ns(MailItem::Clock::now());
    ack.first_send_ns = wire.first_send_ns;
    if (slot.socket->send_to(port_of_[wire.from], &ack, sizeof(ack))) {
      acks_tx_.fetch_add(1, std::memory_order_relaxed);
    }
    RxChannel& rx = slot.rx[in_index_of_edge_[wire.edge]];
    if (wire.seq <= rx.cum_delivered ||
        rx.delivered_ahead.count(wire.seq) != 0) {
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    rx.delivered_ahead.insert(wire.seq);
    while (rx.delivered_ahead.erase(rx.cum_delivered + 1) != 0) {
      rx.cum_delivered += 1;
    }
  }

  std::shared_ptr<const Payload> payload;
  {
    MutexLock lock(inflight_mutex_);
    auto it = inflight_.find(wire.msg_id);
    if (it != inflight_.end()) {
      payload = it->second;
      inflight_.erase(it);
    }
  }
  if (!payload) {
    // The sender already reclaimed the payload (give-up racing a late
    // datagram) or the kernel duplicated an unreliable datagram. The
    // message was accounted for elsewhere; this wire copy is inert.
    orphan_datagrams_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // The sampled model delay is realised against the SEND instant, so real
  // transit slower than the sampled delay degrades into immediate dispatch
  // rather than stacking on top (hybrid semantics; see README).
  MailItem item;
  item.kind = MailItem::Kind::kMessage;
  item.due = from_steady_ns(wire.send_ns) +
             std::chrono::microseconds(static_cast<std::int64_t>(
                 wire.delay_sim * config_.time_scale_us));
  item.cause = wire.send_id;
  item.in_index = in_index_of_edge_[wire.edge];
  item.edge = wire.edge;
  item.payload = std::move(payload);
  item.delay_sim = wire.delay_sim;
  slot.mailbox->push(std::move(item));
}

void UdpNetwork::handle_ack(std::size_t index, const UdpWire& wire,
                            std::int64_t recv_ns) {
  Slot& slot = slots_[index];
  acks_rx_.fetch_add(1, std::memory_order_relaxed);
  bool newly_acked = false;
  {
    MutexLock lock(slot.tx_mutex);
    newly_acked = slot.unacked.erase(wire.msg_id) > 0;
  }
  if (newly_acked && rtt_hist_ != nullptr) {
    // First-send -> ACK round trip, converted to sim units so arq.rtt is
    // comparable with the simulated ARQ experiments.
    rtt_hist_->record(static_cast<double>(recv_ns - wire.first_send_ns) /
                      1e3 / config_.time_scale_us);
  }
}

void UdpNetwork::dispatcher_main(std::size_t index) {
  Slot& slot = slots_[index];
  Context& ctx = *slot.context;
  active_handlers_.fetch_add(1, std::memory_order_acq_rel);
  slot.node->on_start(ctx);
  slot.terminated.store(slot.node->is_terminated(), std::memory_order_release);
  nodes_started_.fetch_add(1, std::memory_order_acq_rel);
  active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
  signal_progress();

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
    tick.timer_id = kTickTimerId;
    tick.due = next_tick_due();
    slot.mailbox->push(std::move(tick));
  }

  MailItem item;
  while (slot.mailbox->pop(item)) {
    // ARQ bookkeeping pops: not node events — no trace record, no timer
    // counter — but bracketed by active_handlers_ like everything else so
    // a give-up's dropped++ can never land outside a handler window.
    if (item.kind == MailItem::Kind::kTimer &&
        item.timer_id == kRetransmitTimerId) {
      active_handlers_.fetch_add(1, std::memory_order_acq_rel);
      handle_retransmit(index, item.tag);
      active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
      signal_progress();
      continue;
    }
    active_handlers_.fetch_add(1, std::memory_order_acq_rel);
    const auto handler_start = config_.metrics ? MailItem::Clock::now()
                                               : MailItem::Clock::time_point{};
    if (item.kind == MailItem::Kind::kMessage) {
      messages_delivered_.fetch_add(1, std::memory_order_relaxed);
      double ptime = 0.0;
      if (config_.processing.kind != ProcessingModel::Kind::kZero) {
        ptime = config_.processing.sample(slot.rng);
      }
      slot.current_cause = record_trace(
          TraceKind::kDeliver, ctx.self(),
          static_cast<std::int64_t>(item.edge),
          config_.trace ? "edge=" + std::to_string(item.edge) + " " +
                              item.payload->describe()
                        : std::string(),
          item.cause, item.delay_sim, ptime);
      if (ptime > 0.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(ptime * config_.time_scale_us)));
      }
      slot.node->on_message(ctx, item.in_index, *item.payload);
    } else if (item.kind == MailItem::Kind::kTimer) {
      if (item.timer_id == kTickTimerId) {
        ++tick_seq;
        ticks_fired_.fetch_add(1, std::memory_order_relaxed);
        slot.current_cause = record_trace(TraceKind::kTick, ctx.self(),
                                          static_cast<std::int64_t>(tick_seq),
                                          std::string(), item.cause);
        slot.node->on_tick(ctx, tick_seq);
        if (!slot.node->is_terminated()) {
          MailItem tick;
          tick.kind = MailItem::Kind::kTimer;
          tick.timer_id = kTickTimerId;
          tick.cause = slot.current_cause;
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
      slot.handler_ns.fetch_add(static_cast<std::uint64_t>(handler_ns.count()),
                                std::memory_order_relaxed);
    }
    slot.terminated.store(slot.node->is_terminated(),
                          std::memory_order_release);
    active_handlers_.fetch_sub(1, std::memory_order_acq_rel);
    signal_progress();
  }
}

bool UdpNetwork::wait_until(const std::function<bool()>& pred,
                            std::chrono::milliseconds timeout) {
  const auto deadline = MailItem::Clock::now() + timeout;
  MutexLock lock(progress_mutex_);
  return progress_cv_.wait_until(progress_mutex_, deadline,
                                 [&] { return pred(); });
}

bool UdpNetwork::wait_quiescent(std::chrono::milliseconds timeout) {
  return wait_until(
      [&] {
        // Same consistent-snapshot dance as ThreadNetwork::wait_quiescent
        // (see the commentary there). The reliable layer needs no extra
        // clause: an unACKed message keeps sent > delivered + dropped
        // until its datagram is popped by the receiving dispatcher or its
        // sender gives up — both counted.
        if (nodes_started_.load(std::memory_order_acquire) != size()) {
          return false;
        }
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

void UdpNetwork::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  // Readers first so no new mailbox items appear while dispatchers drain;
  // they exit within one poll interval. Closed mailboxes then unblock the
  // dispatchers.
  stop_readers_.store(true, std::memory_order_release);
  for (auto& slot : slots_) {
    slot.mailbox->close();
  }
  for (auto& slot : slots_) {
    if (slot.dispatcher.joinable()) slot.dispatcher.join();
  }
  for (auto& slot : slots_) {
    if (slot.reader.joinable()) slot.reader.join();
  }
}

Node& UdpNetwork::node(std::size_t i) {
  ABE_CHECK_LT(i, slots_.size());
  return *slots_[i].node;
}

bool UdpNetwork::terminated(std::size_t i) const {
  ABE_CHECK_LT(i, slots_.size());
  return slots_[i].terminated.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// UdpRuntime

UdpNetConfig UdpRuntime::to_udp_config(const RuntimeConfig& config) {
  ABE_CHECK_LE(config.topology.n, kMaxUdpRuntimeNodes)
      << "udp runtime opens one loopback socket and two OS threads per node";
  UdpNetConfig net;
  net.topology = config.topology;
  net.delay = config.delay;
  net.adversary_delay = config.adversary_delay;
  net.time_scale_us = config.time_scale_us;
  net.clock_bounds = config.clock_bounds;
  net.drift = config.drift;
  net.processing = config.processing;
  net.loss_probability = config.loss_probability;
  net.reliable = config.udp_reliable;
  net.enable_ticks = config.enable_ticks;
  net.tick_local_period = config.tick_local_period;
  net.seed = config.seed;
  net.trace = config.trace;
  net.metrics = config.metrics;
  net.causal_history = config.causal_history;
  return net;
}

UdpRuntime::UdpRuntime(RuntimeConfig config)
    : time_scale_us_(config.time_scale_us),
      wall_timeout_ms_(config.wall_timeout_ms),
      net_(to_udp_config(config)) {
  ABE_CHECK_GT(wall_timeout_ms_, 0.0);
}

void UdpRuntime::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  net_.build_nodes(factory);
}

void UdpRuntime::start() {
  net_.start();
  // Single clock read point per phase: the wall deadline derives from the
  // same start_time_ read net_.start() took, so now()/budget arithmetic
  // share one origin (the ISSUE's cross-substrate wall-accounting fix).
  wall_deadline_ =
      net_.start_time() +
      std::chrono::microseconds(
          static_cast<std::int64_t>(wall_timeout_ms_ * 1000.0));
  started_ = true;
}

double UdpRuntime::remaining_budget_ms() const {
  if (!started_) return wall_timeout_ms_;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      wall_deadline_ - std::chrono::steady_clock::now());
  return std::max<double>(1.0, static_cast<double>(left.count()));
}

bool UdpRuntime::run_until_done(const std::function<bool()>& done,
                                SimTime deadline) {
  double budget_ms = remaining_budget_ms();
  if (deadline < kTimeInfinity) {
    const SimTime sim_left = std::max(0.0, deadline - net_.now_sim());
    budget_ms = std::min(budget_ms, sim_left * time_scale_us_ / 1000.0);
  }
  return net_.wait_until(
      done,
      std::chrono::milliseconds(
          std::max<std::int64_t>(1, static_cast<std::int64_t>(budget_ms))));
}

void UdpRuntime::run_for(SimTime duration) {
  const double ms =
      std::max(kMinSettleWallMs, duration * time_scale_us_ / 1000.0);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<std::int64_t>(ms)));
}

bool UdpRuntime::drain(SimTime max_wait) {
  double budget_ms = remaining_budget_ms();
  if (max_wait < kTimeInfinity) {
    budget_ms = std::min(budget_ms, max_wait * time_scale_us_ / 1000.0);
  }
  return net_.wait_quiescent(std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(budget_ms))));
}

void UdpRuntime::stop() {
  if (!stopped_) {
    stop_time_ = net_.now_sim();
    stopped_ = true;
  }
  net_.stop();
}

SimTime UdpRuntime::now() const {
  return stopped_ ? stop_time_ : net_.now_sim();
}

RunStats UdpRuntime::stats() const {
  RunStats stats;
  stats.messages_sent = net_.messages_sent();
  stats.messages_delivered = net_.messages_delivered();
  stats.messages_dropped = net_.messages_dropped();
  stats.ticks_fired = net_.ticks_fired();
  stats.now = now();
  return stats;
}

// ---------------------------------------------------------------------------
// Calibration

UdpCalibration fit_udp_calibration(const MetricsSnapshot& snapshot) {
  UdpCalibration cal;
  const MetricValue* mv = snapshot.find("udp.transit_us");
  if (mv == nullptr || mv->kind != MetricKind::kHistogram) return cal;
  std::uint64_t total = 0;
  for (const std::uint64_t c : mv->buckets) total += c;
  if (total == 0) return cal;
  cal.samples = total;
  // Offset: the 5th-percentile transit. The true minimum is noisier than a
  // low quantile under scheduler jitter, and the shifted-exponential fit
  // only needs "the deterministic floor, roughly".
  cal.offset_us = FixedHistogram::quantile_of(mv->bounds, mv->buckets, 0.05);
  // Mean from bucket midpoints; the overflow bucket contributes at the last
  // bound (a deliberate under-estimate — tail samples there are outliers
  // the fit should not chase).
  double weighted_sum = 0.0;
  double lower = 0.0;
  for (std::size_t i = 0; i < mv->bounds.size(); ++i) {
    weighted_sum += static_cast<double>(mv->buckets[i]) * 0.5 *
                    (lower + mv->bounds[i]);
    lower = mv->bounds[i];
  }
  weighted_sum +=
      static_cast<double>(mv->buckets.back()) * mv->bounds.back();
  const double mean = weighted_sum / static_cast<double>(total);
  cal.mean_extra_us = std::max(0.0, mean - cal.offset_us);
  cal.ok = true;
  return cal;
}

DelayModelPtr UdpCalibration::to_delay_model(double time_scale_us) const {
  ABE_CHECK(ok) << "no transit samples to fit";
  ABE_CHECK_GT(time_scale_us, 0.0);
  // A degenerate all-one-bucket histogram can fit mean_extra == 0; keep the
  // model a genuine (if tiny) exponential rather than a point mass.
  const double mean_extra = std::max(mean_extra_us, 1e-6);
  return shifted_exponential_delay(offset_us / time_scale_us,
                                   mean_extra / time_scale_us);
}

}  // namespace abe
