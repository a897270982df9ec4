#include "runtime/udp_transport.h"

#include <algorithm>
#include <chrono>
#include <type_traits>
#include <utility>

#include "runtime/wall_net.h"
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
struct UdpTransport::Wire {
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

UdpTransport::UdpTransport(WallNetwork& net)
    : net_(net), reliable_(net.config_.udp_reliable) {
  static_assert(sizeof(Wire) == 64,
                "wire header layout is part of the datagram format");
  static_assert(std::is_trivially_copyable<Wire>::value,
                "wire header is sent as raw bytes");
  const std::size_t n = net_.size();
  endpoints_ = std::vector<Endpoint>(n);
  port_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    endpoints_[i].socket = std::make_unique<UdpSocket>();
    port_of_[i] = endpoints_[i].socket->port();
    endpoints_[i].next_seq.assign(net_.config_.plan->out().degree(i), 0);
    endpoints_[i].rx.resize(net_.config_.plan->in().degree(i));
  }
  transit_hist_ = &registry_.histogram(
      "udp.transit_us", FixedHistogram::log2_bounds(64.0, 4, 10));
  if (reliable_) {
    rtt_hist_ = &registry_.histogram("arq.rtt",
                                     FixedHistogram::log2_bounds(1.0, 6, 10));
  }
}

UdpTransport::~UdpTransport() { stop(); }

void UdpTransport::start() {
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    endpoints_[i].reader = std::thread([this, i] { reader_main(i); });
  }
}

void UdpTransport::stop() {
  stop_readers_.store(true, std::memory_order_release);
  for (auto& endpoint : endpoints_) {
    if (endpoint.reader.joinable()) endpoint.reader.join();
  }
}

void UdpTransport::add_counters(MetricsSnapshot& snap) const {
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
}

void UdpTransport::send(std::size_t from, std::size_t out_index,
                        std::size_t edge, std::int64_t send_id,
                        double delay_sim,
                        std::shared_ptr<const Payload> payload) {
  const std::uint64_t msg_id =
      next_msg_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    MutexLock lock(inflight_mutex_);
    inflight_[msg_id] = std::move(payload);
  }

  Wire wire;
  wire.from = static_cast<std::uint32_t>(from);
  wire.edge = static_cast<std::uint32_t>(edge);
  wire.msg_id = msg_id;
  wire.send_id = send_id;
  wire.first_send_ns = steady_ns(MailItem::Clock::now());
  wire.delay_sim = delay_sim;
  if (!reliable_) {
    transmit_data(from, wire);
    return;
  }
  Endpoint& endpoint = endpoints_[from];
  wire.seq = ++endpoint.next_seq[out_index];
  {
    MutexLock lock(endpoint.tx_mutex);
    PendingTx tx;
    tx.edge = edge;
    tx.seq = wire.seq;
    tx.to = net_.config_.plan->end(edge).to;
    tx.send_id = send_id;
    tx.delay_sim = delay_sim;
    tx.first_send_ns = wire.first_send_ns;
    tx.attempts = 1;
    endpoint.unacked.emplace(msg_id, tx);
  }
  transmit_data(from, wire);
  arm_retransmit(from, msg_id);
}

void UdpTransport::transmit_data(std::size_t from, const Wire& wire) {
  Wire out = wire;
  out.send_ns = steady_ns(MailItem::Clock::now());
  // Reliable mode injects loss per transmission ATTEMPT: the datagram is
  // suppressed, the ARQ timer retries. (Unreliable injected loss was
  // already realised in WallNetwork's send, before the wire.)
  const double loss = net_.config_.loss_probability;
  if (reliable_ && loss > 0.0 && net_.slots_[from].rng.bernoulli(loss)) {
    attempt_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t to = net_.config_.plan->end(wire.edge).to;
  if (endpoints_[from].socket->send_to(port_of_[to], &out, sizeof(out))) {
    datagrams_tx_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Kernel refused the send (shutdown race, transient ENOBUFS): treat as
    // transit loss — ARQ retries it, unreliable mode genuinely loses it.
    attempt_drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

void UdpTransport::arm_retransmit(std::size_t from, std::uint64_t msg_id) {
  MailItem item;
  item.kind = MailItem::Kind::kTimer;
  item.timer_id = WallNetwork::kRetransmitTimerId;
  item.tag = msg_id;
  item.due = net_.sim_to_wall(kArqTimeout);
  net_.slots_[from].mailbox->push(std::move(item));
}

void UdpTransport::retransmit(std::size_t from, std::uint64_t msg_id) {
  Endpoint& endpoint = endpoints_[from];
  Wire wire;
  bool give_up = false;
  PendingTx dropped;
  {
    MutexLock lock(endpoint.tx_mutex);
    auto it = endpoint.unacked.find(msg_id);
    if (it == endpoint.unacked.end()) return;  // ACKed since the timer armed
    PendingTx& tx = it->second;
    if (tx.attempts >= kArqMaxAttempts) {
      // Attempt cap: with ACKs immune to injected loss, reaching it takes
      // ~loss^max_attempts consecutive data-attempt losses — the give-up
      // exists so a pathological channel cannot wedge quiescence forever.
      give_up = true;
      dropped = tx;
      endpoint.unacked.erase(it);
    } else {
      tx.attempts += 1;
      wire.from = static_cast<std::uint32_t>(from);
      wire.edge = static_cast<std::uint32_t>(tx.edge);
      wire.seq = tx.seq;
      wire.msg_id = msg_id;
      wire.send_id = tx.send_id;
      wire.first_send_ns = tx.first_send_ns;
      wire.delay_sim = tx.delay_sim;
    }
  }
  if (give_up) {
    {
      MutexLock lock(inflight_mutex_);
      inflight_.erase(msg_id);
    }
    giveups_.fetch_add(1, std::memory_order_relaxed);
    net_.messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    net_.record_trace(TraceKind::kDrop,
                      NodeId{static_cast<std::int64_t>(dropped.to)},
                      static_cast<std::int64_t>(dropped.edge), std::string(),
                      dropped.send_id);
    return;
  }
  retransmits_.fetch_add(1, std::memory_order_relaxed);
  transmit_data(from, wire);
  arm_retransmit(from, msg_id);
}

void UdpTransport::reader_main(std::size_t index) {
  const UdpSocket& socket = *endpoints_[index].socket;
  Wire wire;
  while (!stop_readers_.load(std::memory_order_acquire)) {
    const int got = socket.receive(&wire, sizeof(wire));
    if (got == 0) continue;  // poll interval elapsed; re-check stop flag
    if (got < 0) return;     // unrecoverable socket error (shutdown)
    if (static_cast<std::size_t>(got) != sizeof(Wire) ||
        wire.magic != Wire::kMagic) {
      // Not ours (stray datagram on a reused port): drop silently.
      continue;
    }
    const std::int64_t recv_ns = steady_ns(MailItem::Clock::now());
    if (wire.kind == Wire::kKindAck) {
      handle_ack(index, wire, recv_ns);
    } else {
      handle_data(index, wire, recv_ns);
    }
  }
}

void UdpTransport::handle_data(std::size_t index, const Wire& wire,
                               std::int64_t recv_ns) {
  Endpoint& endpoint = endpoints_[index];
  datagrams_rx_.fetch_add(1, std::memory_order_relaxed);
  // The measurement this substrate exists for: real kernel+loopback transit
  // of this datagram, in wall microseconds.
  transit_hist_->record(static_cast<double>(recv_ns - wire.send_ns) / 1e3);

  const std::size_t in_index = net_.config_.plan->end(wire.edge).in_index;
  if (reliable_) {
    // Always ACK — duplicates too (the earlier ACK may have raced the
    // retransmit timer). ACKs are deliberately exempt from injected loss:
    // this keeps sender give-up of an already-delivered message (which
    // would double-count it as both delivered and dropped) out of the
    // model, at ~loss^max_attempts residual probability.
    Wire ack;
    ack.kind = Wire::kKindAck;
    ack.from = static_cast<std::uint32_t>(index);
    ack.edge = wire.edge;
    ack.seq = wire.seq;
    ack.msg_id = wire.msg_id;
    ack.send_id = wire.send_id;
    ack.send_ns = steady_ns(MailItem::Clock::now());
    ack.first_send_ns = wire.first_send_ns;
    if (endpoint.socket->send_to(port_of_[wire.from], &ack, sizeof(ack))) {
      acks_tx_.fetch_add(1, std::memory_order_relaxed);
    }
    RxChannel& rx = endpoint.rx[in_index];
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
      payload = std::move(it->second);
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
                 wire.delay_sim * net_.config_.time_scale_us));
  item.cause = wire.send_id;
  item.in_index = in_index;
  item.edge = wire.edge;
  item.payload = std::move(payload);
  item.delay_sim = wire.delay_sim;
  net_.slots_[index].mailbox->push(std::move(item));
}

void UdpTransport::handle_ack(std::size_t index, const Wire& wire,
                              std::int64_t recv_ns) {
  Endpoint& endpoint = endpoints_[index];
  acks_rx_.fetch_add(1, std::memory_order_relaxed);
  bool newly_acked = false;
  {
    MutexLock lock(endpoint.tx_mutex);
    newly_acked = endpoint.unacked.erase(wire.msg_id) > 0;
  }
  if (newly_acked && rtt_hist_ != nullptr) {
    // First-send -> ACK round trip, converted to sim units so arq.rtt is
    // comparable with the simulated ARQ experiments.
    rtt_hist_->record(static_cast<double>(recv_ns - wire.first_send_ns) /
                      1e3 / net_.config_.time_scale_us);
  }
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
