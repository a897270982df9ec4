#include "net/network.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace abe {

const char* channel_ordering_name(ChannelOrdering o) {
  switch (o) {
    case ChannelOrdering::kFifo:
      return "fifo";
    case ChannelOrdering::kArbitrary:
      return "arbitrary";
  }
  return "?";
}

const char* tick_phase_name(TickPhase p) {
  switch (p) {
    case TickPhase::kRandomPerNode:
      return "random";
    case TickPhase::kAligned:
      return "aligned";
  }
  return "?";
}

double ProcessingModel::sample(Rng& rng) const {
  switch (kind) {
    case Kind::kZero:
      return 0.0;
    case Kind::kFixed:
      return mean;
    case Kind::kExponential:
      return mean > 0.0 ? rng.exponential(mean) : 0.0;
  }
  return 0.0;
}

// Per-node Context implementation; a thin forwarding shim into the Network.
class Network::ContextImpl final : public Context {
 public:
  ContextImpl(Network* net, std::size_t index) : net_(net), index_(index) {}

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
    net_->send_from(index_, out_index, std::move(payload));
  }

  double local_now() override {
    return net_->slots_[index_].clock.local_at(net_->now());
  }
  SimTime real_now() const override { return net_->now(); }

  TimerId set_timer_local(double local_delay, std::uint64_t tag) override {
    return net_->set_timer(index_, local_delay, tag);
  }
  bool cancel_timer(TimerId id) override {
    return net_->cancel_timer_impl(id);
  }

  Rng& rng() override { return net_->slots_[index_].rng; }

  void log(const std::string& detail) override {
    net_->trace_.record(net_->now(), TraceKind::kCustom, self(), detail,
                        /*arg=*/-1, net_->current_cause_);
  }

 private:
  Network* net_;
  std::size_t index_;
};

Network::Network(NetworkConfig config)
    : config_(std::move(config)),
      scheduler_(config_.equeue),
      root_rng_(config_.seed),
      channel_rng_(root_rng_.substream("channels")) {
  validate_topology(config_.topology);
  config_.clock_bounds.validate();
  if (!config_.delay) {
    config_.delay = exponential_delay(1.0);
  }
  ABE_CHECK_GE(config_.loss_probability, 0.0);
  ABE_CHECK_LT(config_.loss_probability, 1.0)
      << "loss probability 1 would never deliver";
  ABE_CHECK_GT(config_.tick_local_period, 0.0);
  ABE_CHECK_GE(config_.timeseries_interval, 0.0);
  if (config_.causal_history) {
    // Capacity and full mode are independent knobs: this keeps records lite
    // (numeric, allocation-free) but retains enough of them for causal
    // chains to reach their roots.
    trace_.set_capacity(Trace::kFullCapacity);
  }
  timeseries_.interval = config_.timeseries_interval;
  next_sample_ = config_.timeseries_interval;

  const std::size_t n = config_.topology.n;
  const std::size_t edge_count = config_.topology.edges.size();
  ABE_CHECK_LE(std::max(n, edge_count), std::size_t{UINT32_MAX})
      << "channel records hold node and in-channel indices in 32 bits";
  out_channels_ = out_adjacency(config_.topology);
  in_channels_ = in_adjacency(config_.topology);
  channels_.resize(edge_count);
  for (std::size_t v = 0; v < n; ++v) {
    const Adjacency::Span in = in_channels_.of(v);
    for (std::size_t k = 0; k < in.size(); ++k) {
      ChannelState& ch = channels_[in[k]];
      ch.delay = config_.delay.get();
      ch.loss_probability = config_.loss_probability;
      ch.to = static_cast<std::uint32_t>(v);
      ch.in_index = static_cast<std::uint32_t>(k);
    }
  }
  if (config_.metrics) {
    // Geometric buckets around the configured mean delay δ — the scale the
    // ABE contract promises — with a deep 2^6 tail (the part "bounded
    // EXPECTED delay" leaves unbounded).
    const double mean = config_.delay->mean_delay();
    delay_hist_ = &registry_.histogram(
        "net.delay", FixedHistogram::log2_bounds(mean > 0.0 ? mean : 1.0,
                                                 /*below=*/3, /*above=*/6));
  }
  slots_.reserve(n);
  contexts_.reserve(n);
  // Tick phases are read only by tick events; each is its own substream, so
  // skipping them when ticks are off leaves every other stream unchanged.
  const bool draw_tick_phase = config_.enable_ticks &&
                               config_.tick_phase == TickPhase::kRandomPerNode;
  for (std::size_t i = 0; i < n; ++i) {
    NodeSlot& slot = slots_.emplace_back(
        root_rng_.substream("node", i),
        LocalClock(config_.clock_bounds, config_.drift,
                   root_rng_.substream("clock", i),
                   config_.clock_segment_mean));
    contexts_.emplace_back(this, i);
    if (draw_tick_phase) {
      slot.tick_phase = root_rng_.substream("tick-phase", i).uniform01() *
                        config_.tick_local_period;
    }
  }
}

Network::~Network() = default;

void Network::add_node(NodePtr node) {
  ABE_CHECK(!started_) << "nodes must be added before start()";
  ABE_CHECK(static_cast<bool>(node));
  ABE_CHECK_LT(next_slot_, slots_.size())
      << "more nodes than topology slots (" << size() << ")";
  slots_[next_slot_++].node = std::move(node);
}

void Network::build_nodes(const std::function<NodePtr(std::size_t)>& factory) {
  for (std::size_t i = 0; i < size(); ++i) {
    add_node(factory(i));
  }
}

void Network::set_channel_delay(std::size_t edge_index, DelayModelPtr delay) {
  ABE_CHECK(!started_);
  ABE_CHECK_LT(edge_index, channels_.size());
  ABE_CHECK(static_cast<bool>(delay));
  channels_[edge_index].delay = delay.get();
  delay_overrides_.push_back(std::move(delay));
}

void Network::set_channel_loss(std::size_t edge_index,
                               double loss_probability) {
  ABE_CHECK(!started_);
  ABE_CHECK_LT(edge_index, channels_.size());
  ABE_CHECK_GE(loss_probability, 0.0);
  ABE_CHECK_LT(loss_probability, 1.0);
  channels_[edge_index].loss_probability = loss_probability;
}

void Network::start() {
  ABE_CHECK(!started_) << "start() called twice";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    ABE_CHECK(static_cast<bool>(slots_[i].node))
        << "node " << i << " missing before start()";
  }
  started_ = true;
  scheduler_.schedule_at(0.0, [this] {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      current_cause_ = -1;  // on_start is a causal root: no trace record
      slots_[i].node->on_start(contexts_[i]);
    }
  });
  if (config_.enable_ticks) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].ticking = true;
      schedule_next_tick(i);
    }
  }
}

void Network::schedule_next_tick(std::size_t node_index) {
  NodeSlot& slot = slots_[node_index];
  const double next_local =
      slot.tick_phase +
      static_cast<double>(slot.ticks + 1) * config_.tick_local_period;
  const SimTime fire = slot.clock.real_at(next_local);
  // The causing event: the tick (or start()) that scheduled this fire.
  const std::int64_t cause = current_cause_;
  scheduler_.schedule_at(fire, [this, node_index, cause] {
    NodeSlot& s = slots_[node_index];
    ++s.ticks;
    ++metrics_.ticks_fired;
    current_cause_ = trace_.record(now(), TraceKind::kTick,
                                   NodeId{static_cast<std::int64_t>(node_index)},
                                   static_cast<std::int64_t>(s.ticks),
                                   cause);
    s.node->on_tick(contexts_[node_index], s.ticks);
    if (s.node->is_terminated()) {
      s.ticking = false;  // terminal nodes stop consuming tick events
    } else {
      schedule_next_tick(node_index);
    }
  });
}

TimerId Network::set_timer(std::size_t node_index, double local_delay,
                           std::uint64_t tag) {
  ABE_CHECK_GE(local_delay, 0.0);
  NodeSlot& slot = slots_[node_index];
  const double local_now = slot.clock.local_at(now());
  const SimTime fire = slot.clock.real_at(local_now + local_delay);
  // A timer handle IS its scheduler event handle: generation-counted ids
  // make cancel-after-fire safe without any timer bookkeeping of our own.
  const TimerId timer_id{scheduler_.peek_next_id().value()};
  // The causing event: the handler that armed the timer.
  const std::int64_t cause = current_cause_;
  scheduler_.schedule_at(
      std::max(fire, now()), [this, node_index, tag, timer_id, cause] {
        ++metrics_.timers_fired;
        current_cause_ =
            trace_.record(now(), TraceKind::kTimer,
                          NodeId{static_cast<std::int64_t>(node_index)},
                          static_cast<std::int64_t>(tag), cause);
        slots_[node_index].node->on_timer(contexts_[node_index], timer_id,
                                          tag);
      });
  return timer_id;
}

bool Network::cancel_timer_impl(TimerId id) {
  return scheduler_.cancel(EventId{id.value()});
}

void Network::send_from(std::size_t node_index, std::size_t out_index,
                        PayloadPtr payload) {
  ABE_CHECK(started_) << "send before start()";
  ABE_CHECK(static_cast<bool>(payload));
  ABE_CHECK_LT(out_index, out_channels_.degree(node_index));
  const std::size_t edge_index = out_channels_.of(node_index)[out_index];
  ChannelState& ch = channels_[edge_index];

  ++metrics_.messages_sent;
  ++ch.sent;
  // Flight recorder: the lite record (numeric edge arg) is always on; the
  // payload string is formatted only in full trace mode. The send's cause is
  // the handler that issued it.
  std::int64_t send_id;
  if (trace_.enabled()) {
    send_id = trace_.record(now(), TraceKind::kSend,
                            NodeId{static_cast<std::int64_t>(node_index)},
                            "edge=" + std::to_string(edge_index) + " " +
                                payload->describe(),
                            static_cast<std::int64_t>(edge_index),
                            current_cause_);
  } else {
    send_id = trace_.record(now(), TraceKind::kSend,
                            NodeId{static_cast<std::int64_t>(node_index)},
                            static_cast<std::int64_t>(edge_index),
                            current_cause_);
  }

  // Silent loss (ARQ substrate): the message vanishes in transit.
  if (ch.loss_probability > 0.0 &&
      channel_rng_.bernoulli(ch.loss_probability)) {
    ++metrics_.messages_dropped;
    ++ch.dropped;
    if (trace_.enabled()) {
      trace_.record(now(), TraceKind::kDrop,
                    NodeId{static_cast<std::int64_t>(ch.to)},
                    "edge=" + std::to_string(edge_index) + " " +
                        payload->describe(),
                    static_cast<std::int64_t>(edge_index), send_id);
    } else {
      trace_.record(now(), TraceKind::kDrop,
                    NodeId{static_cast<std::int64_t>(ch.to)},
                    static_cast<std::int64_t>(edge_index), send_id);
    }
    return;  // `payload` is freed here
  }

  const double delay =
      config_.adversary_delay != nullptr
          ? config_.adversary_delay->next_delay(node_index, ch.to)
          : ch.delay->sample(channel_rng_);
  ABE_CHECK_GE(delay, 0.0);
  SimTime arrival = now() + delay;
  if (config_.ordering == ChannelOrdering::kFifo) {
    arrival = std::max(arrival, ch.last_arrival);
    ch.last_arrival = arrival;
  }
  const SimTime sent_at = now();
  auto on_arrival = [this, edge_index, payload = std::move(payload), sent_at,
                     send_id]() mutable {
    deliver(edge_index, std::move(payload), sent_at, send_id);
  };
  static_assert(InlineAction::stores_inline<decltype(on_arrival)>(),
                "the delivery event must not allocate");
  scheduler_.schedule_at(arrival, std::move(on_arrival));
}

void Network::deliver(std::size_t edge_index, PayloadPtr payload,
                      SimTime sent_at, std::int64_t send_id) {
  const double channel_delay = now() - sent_at;
  if (config_.processing.kind == ProcessingModel::Kind::kZero) {
    finish_delivery(edge_index, *payload, channel_delay, send_id, 0.0);
    return;
  }
  // Definition 1(3): handling occupies the node; queue behind earlier work.
  NodeSlot& slot = slots_[channels_[edge_index].to];
  const SimTime start = std::max(now(), slot.busy_until);
  const double ptime = config_.processing.sample(slot.rng);
  const SimTime finish = start + ptime;
  slot.busy_until = finish;
  if (finish <= now()) {
    finish_delivery(edge_index, *payload, channel_delay, send_id, ptime);
    return;
  }
  auto on_processed = [this, edge_index, payload = std::move(payload),
                       channel_delay, send_id, ptime] {
    finish_delivery(edge_index, *payload, channel_delay, send_id, ptime);
  };
  static_assert(InlineAction::stores_inline<decltype(on_processed)>(),
                "the processing continuation must not allocate");
  scheduler_.schedule_at(finish, std::move(on_processed));
}

void Network::finish_delivery(std::size_t edge_index, const Payload& payload,
                              double channel_delay, std::int64_t send_id,
                              double work) {
  ChannelState& ch = channels_[edge_index];
  const std::size_t to = ch.to;
  ++ch.delivered;
  ++metrics_.messages_delivered;
  metrics_.total_channel_delay += channel_delay;
  metrics_.max_channel_delay =
      std::max(metrics_.max_channel_delay, channel_delay);
  if (delay_hist_ != nullptr) delay_hist_->record(channel_delay);
  // The deliver's cause is its send; the delay/work fields attribute the
  // send->deliver gap for the critical-path profiler (obs/causal.h).
  if (trace_.enabled()) {
    current_cause_ = trace_.record(now(), TraceKind::kDeliver,
                                   NodeId{static_cast<std::int64_t>(to)},
                                   "edge=" + std::to_string(edge_index) + " " +
                                       payload.describe(),
                                   static_cast<std::int64_t>(edge_index),
                                   send_id, channel_delay, work);
  } else {
    current_cause_ = trace_.record(now(), TraceKind::kDeliver,
                                   NodeId{static_cast<std::int64_t>(to)},
                                   static_cast<std::int64_t>(edge_index),
                                   send_id, channel_delay, work);
  }
  slots_[to].node->on_message(contexts_[to], ch.in_index, payload);
}

void Network::sample_timeseries() {
  // Sim-time-driven sampling: after each processed event, emit one sample
  // per grid point the clock has crossed, labelled with the grid time. Pure
  // observation — no events scheduled, no randomness consumed — so enabling
  // it cannot change any aggregate.
  while (next_sample_ <= now() &&
         timeseries_.samples.size() < TimeSeries::kMaxSamples) {
    TimeSeriesSample sample;
    sample.t = next_sample_;
    sample.pending = static_cast<double>(scheduler_.pending());
    sample.in_flight = static_cast<double>(metrics_.in_flight());
    std::uint64_t live = 0;
    for (const NodeSlot& slot : slots_) {
      if (slot.node != nullptr && !slot.node->is_terminated()) ++live;
    }
    sample.live = static_cast<double>(live);
    timeseries_.samples.push_back(sample);
    next_sample_ += timeseries_.interval;
  }
}

bool Network::run_until(const std::function<bool()>& pred, SimTime deadline) {
  ABE_CHECK(started_) << "run before start()";
  while (!pred()) {
    // Peek so no event beyond the deadline is ever executed.
    const SimTime next = scheduler_.next_event_time();
    if (next == kTimeInfinity || next > deadline) return false;
    scheduler_.run_steps(1);
    if (timeseries_.interval > 0.0) sample_timeseries();
  }
  return true;
}

void Network::run_until_quiescent(SimTime deadline) {
  ABE_CHECK(started_);
  if (deadline == kTimeInfinity) {
    ABE_CHECK(!config_.enable_ticks)
        << "tick generation never quiesces; pass a finite deadline";
    scheduler_.run();
  } else {
    scheduler_.run_until(deadline);
  }
}

Node& Network::node(std::size_t i) {
  ABE_CHECK_LT(i, slots_.size());
  return *slots_[i].node;
}

const Node& Network::node(std::size_t i) const {
  ABE_CHECK_LT(i, slots_.size());
  return *slots_[i].node;
}

LocalClock& Network::clock(std::size_t i) {
  ABE_CHECK_LT(i, slots_.size());
  return slots_[i].clock;
}

std::vector<std::uint64_t> Network::channel_counts(
    std::uint64_t ChannelState::*count) const {
  std::vector<std::uint64_t> out;
  out.reserve(channels_.size());
  for (const ChannelState& ch : channels_) out.push_back(ch.*count);
  return out;
}

std::vector<std::uint64_t> Network::sent_by_node() const {
  std::vector<std::uint64_t> out(size(), 0);
  for (std::size_t e = 0; e < channels_.size(); ++e) {
    out[config_.topology.edges[e].from] += channels_[e].sent;
  }
  return out;
}

double Network::expected_delay_bound() const {
  double bound = 0.0;
  for (const auto& ch : channels_) {
    bound = std::max(bound, ch.delay->mean_delay());
  }
  return bound;
}

MetricsSnapshot Network::metrics_snapshot() const {
  // Registry instruments first (the delay histogram, when enabled) …
  MetricsSnapshot snap = registry_.snapshot();
  // … then the always-on pull-model counters: the scheduler and the
  // NetworkMetrics aggregate keep plain fields on their hot paths (cheaper
  // than even a relaxed atomic in the single-threaded simulator) and the
  // snapshot harvests them here, at collection time.
  snap.add_counter("net.sent",
                   static_cast<double>(metrics_.messages_sent));
  snap.add_counter("net.delivered",
                   static_cast<double>(metrics_.messages_delivered));
  snap.add_counter("net.dropped",
                   static_cast<double>(metrics_.messages_dropped));
  snap.add_counter("net.ticks", static_cast<double>(metrics_.ticks_fired));
  snap.add_counter("net.timers", static_cast<double>(metrics_.timers_fired));
  snap.add_counter("net.delay.sum", metrics_.total_channel_delay);
  snap.add_gauge("net.delay.max", metrics_.max_channel_delay);
  snap.add_counter("sched.scheduled",
                   static_cast<double>(scheduler_.scheduled_count()));
  snap.add_counter("sched.cancelled",
                   static_cast<double>(scheduler_.cancelled_count()));
  snap.add_counter("sched.popped",
                   static_cast<double>(scheduler_.processed_count()));
  snap.add_gauge("sched.queue_high_water",
                 static_cast<double>(scheduler_.queue_high_water()));
  snap.add_counter("trace.recorded",
                   static_cast<double>(trace_.total_recorded()));
  if (config_.metrics) {
    // Scalar rollups of the per-channel drop counts (the vectors themselves
    // are exposed via dropped_by_channel(); at n = 10^4 they would dwarf the
    // rest of the sweep JSON). Without a drop both are 0: skip the scan.
    std::uint64_t lossy = 0;
    std::uint64_t worst = 0;
    if (metrics_.messages_dropped > 0) {
      for (const ChannelState& ch : channels_) {
        if (ch.dropped > 0) ++lossy;
        worst = std::max(worst, ch.dropped);
      }
    }
    snap.add_counter("net.channels.lossy", static_cast<double>(lossy));
    snap.add_gauge("net.channels.max_dropped", static_cast<double>(worst));
  }
  return snap;
}

}  // namespace abe
