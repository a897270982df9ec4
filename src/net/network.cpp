#include "net/network.h"

#include <algorithm>
#include <cmath>
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

// The Context every handler call gets: a thin forwarding shim into the
// Network, pointed at the node about to run by context_for. The simulator
// runs one handler at a time and never re-enters one, so one suffices.
class Network::SimContext final : public Context {
 public:
  explicit SimContext(Network* net) : net_(net) {}

  NodeId self() const override {
    return NodeId{static_cast<std::int64_t>(index_)};
  }
  std::size_t out_degree() const override {
    return net_->plan_->out().degree(index_);
  }
  std::size_t in_degree() const override {
    return net_->plan_->in().degree(index_);
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
  friend class Network;
  Network* net_;
  std::size_t index_ = 0;
};

Network::Network(NetworkConfig config)
    : config_(std::move(config)),
      scheduler_(config_.equeue),
      root_rng_(config_.seed),
      channel_rng_(root_rng_.substream("channels")) {
  if (config_.plan) {
    ABE_CHECK_EQ(config_.topology.n, 0u)
        << "NetworkConfig takes a plan or a topology, not both";
    plan_ = std::move(config_.plan);
  } else {
    plan_ = make_plan(std::move(config_.topology));
  }
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
  sampling_ = timeseries_.enabled();
  bracket_handlers_ = config_.enable_ticks || sampling_;
  // One constant allocation holds the series of the small sweep cells (at
  // most 161 samples); a longer series grows by doubling up to the cap.
  if (sampling_) timeseries_.samples.reserve(256);

  const std::size_t n = plan_->size();
  const std::size_t edge_count = plan_->edge_count();
  traffic_.resize(edge_count);
  if (config_.ordering == ChannelOrdering::kFifo) {
    last_arrival_.assign(edge_count, 0.0);
  }
  if (config_.metrics) {
    // Geometric buckets around the configured mean delay δ — the scale the
    // ABE contract promises — with a deep 2^6 tail (the part "bounded
    // EXPECTED delay" leaves unbounded).
    const double mean = config_.delay->mean_delay();
    delay_hist_ = std::make_unique<FixedHistogram>(FixedHistogram::log2_bounds(
        mean > 0.0 ? mean : 1.0, /*below=*/3, /*above=*/6));
  }
  nodes_.reserve(n);
  slots_.reserve(n);
  context_ = std::make_unique<SimContext>(this);
  // Tick phases are read only by tick events; each is its own substream, so
  // skipping them when ticks are off leaves every other stream unchanged.
  const bool draw_tick_phase = config_.enable_ticks &&
                               config_.tick_phase == TickPhase::kRandomPerNode;
  if (config_.enable_ticks) trains_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_.emplace_back(root_rng_.substream("node", i),
                        LocalClock(config_.clock_bounds, config_.drift,
                                   root_rng_.substream("clock", i),
                                   config_.clock_segment_mean));
    if (draw_tick_phase) {
      trains_[i].phase = root_rng_.substream("tick-phase", i).uniform01() *
                         config_.tick_local_period;
    }
  }
}

Network::~Network() = default;

void Network::add_node(NodePtr node) {
  ABE_CHECK(!started_) << "nodes must be added before start()";
  ABE_CHECK(static_cast<bool>(node));
  ABE_CHECK_LT(nodes_.size(), size())
      << "more nodes than topology slots (" << size() << ")";
  nodes_.push_back(std::move(node));
}

void Network::build_nodes(const std::function<NodePtr(std::size_t)>& factory) {
  for (std::size_t i = 0; i < size(); ++i) {
    add_node(factory(i));
  }
}

void Network::set_channel_delay(std::size_t edge_index, DelayModelPtr delay) {
  ABE_CHECK(!started_);
  ABE_CHECK_LT(edge_index, traffic_.size());
  ABE_CHECK(static_cast<bool>(delay));
  if (delay_of_.empty()) delay_of_.assign(traffic_.size(), config_.delay.get());
  delay_of_[edge_index] = delay.get();
  delay_overrides_.push_back(std::move(delay));
}

void Network::set_channel_loss(std::size_t edge_index,
                               double loss_probability) {
  ABE_CHECK(!started_);
  ABE_CHECK_LT(edge_index, traffic_.size());
  ABE_CHECK_GE(loss_probability, 0.0);
  ABE_CHECK_LT(loss_probability, 1.0);
  if (loss_of_.empty()) {
    loss_of_.assign(traffic_.size(), config_.loss_probability);
  }
  loss_of_[edge_index] = loss_probability;
}

Context& Network::context_for(std::size_t node_index) {
  context_->index_ = node_index;
  return *context_;
}

void Network::start() {
  ABE_CHECK(!started_) << "start() called twice";
  ABE_CHECK_EQ(nodes_.size(), size())
      << "node " << nodes_.size() << " missing before start()";
  started_ = true;
  live_ = nodes_.size();
  scheduler_.schedule_at(0.0, [this] {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      current_cause_ = -1;  // on_start is a causal root: no trace record
      nodes_[i]->on_start(context_for(i));
      recount_live(i, /*was_live=*/true);
      if (config_.enable_ticks) rearm_ticks(i);
    }
  });
  if (config_.enable_ticks) {
    // kEvery trains start here, so their first ticks keep the sequence
    // numbers of a per-tick train; the others arm after on_start.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->tick_demand().kind != TickDemand::Kind::kEvery) {
        continue;
      }
      trains_[i].state = Train::kEvery;
      trains_[i].event = scheduler_.schedule_at(lattice_time(i, 1),
                                                [this, i] { fire_tick(i); });
    }
  }
}

namespace {
// Lattice ticks one kBernoulli run covers before its checkpoint. Each
// checkpoint of one idle stretch doubles the next run, up to the cap: a
// longer run saves checkpoint events but wastes more draws made ahead when
// a message pauses the train (on ring-election, n = 1024 and 4096, a cap of
// 1024 beat both 64 and 16384 in wall time).
constexpr std::uint32_t kLazyHorizon = 64;
constexpr std::uint32_t kMaxLazyHorizon = 1u << 10;
}  // namespace

SimTime Network::lattice_time(std::size_t node_index, std::uint64_t k) {
  return slots_[node_index].clock.real_at(
      trains_[node_index].phase +
      static_cast<double>(k) * config_.tick_local_period);
}

Network::LatticeTick Network::first_tick_at_or_after(std::size_t node_index,
                                                    std::uint64_t from,
                                                    SimTime t) {
  const SimTime first = lattice_time(node_index, from);
  if (first >= t) return {from, first};
  // Jump by the local clock, then settle the rounding at the boundary
  // against the exact lattice times.
  std::uint64_t k = from;
  const double x =
      (slots_[node_index].clock.local_at(t) - trains_[node_index].phase) /
      config_.tick_local_period;
  if (x > static_cast<double>(k)) {
    k = static_cast<std::uint64_t>(std::ceil(x));
  }
  while (k > from + 1 && lattice_time(node_index, k - 1) >= t) --k;
  SimTime at = lattice_time(node_index, k);
  while (at < t) at = lattice_time(node_index, ++k);
  return {k, at};
}

void Network::pause_ticks(std::size_t node_index) {
  TickTrain& train = trains_[node_index];
  if (train.state != Train::kLazy) return;
  scheduler_.cancel(train.event);
  train.state = Train::kOff;
  // Replay the failed draws of the lattice ticks strictly before now(); a
  // tick at exactly now() counts after the handler about to run.
  const std::uint64_t next =
      first_tick_at_or_after(node_index, train.ticks + 1, now()).k;
  if (next <= train.ticks + 1) return;
  const std::uint64_t failed = next - 1 - train.ticks;
  ABE_CHECK_EQ(slots_[node_index].rng.skip_bernoulli_failures(train.p, failed),
               failed)
      << "tick train replay diverged at node " << node_index;
  train.ticks += failed;
}

void Network::rearm_ticks(std::size_t node_index, bool after_tick) {
  const Node& node = *nodes_[node_index];
  TickTrain& train = trains_[node_index];
  if (sampling_ && train.stop == kTimeInfinity && node.is_terminated()) {
    // A per-tick train stops after the first tick that sees the node
    // terminated: this one, or the next lattice tick.
    train.stop =
        after_tick
            ? now()
            : first_tick_at_or_after(node_index, train.ticks + 1, now()).at;
  }
  const TickDemand demand = node.tick_demand();
  if (demand.kind == TickDemand::Kind::kEvery) {
    if (train.state == Train::kEvery) return;  // its next tick stays pending
    const LatticeTick next =
        first_tick_at_or_after(node_index, train.ticks + 1, now());
    train.ticks = next.k - 1;
    train.state = Train::kEvery;
    train.event = scheduler_.schedule_at(
        next.at, [this, node_index] { fire_tick(node_index); });
    return;
  }
  if (train.state == Train::kEvery) scheduler_.cancel(train.event);
  train.state = Train::kOff;
  // bernoulli(p <= 0) draws nothing and fails: the same as kNone.
  if (demand.kind == TickDemand::Kind::kBernoulli && demand.p > 0.0) {
    train.ticks =
        first_tick_at_or_after(node_index, train.ticks + 1, now()).k - 1;
    train.p = demand.p;
    arm_lazy(node_index, kLazyHorizon);
  }
}

void Network::arm_lazy(std::size_t node_index, std::uint32_t horizon) {
  TickTrain& train = trains_[node_index];
  // Draw ahead on a copy of the node's stream, one bernoulli(p) per lattice
  // tick, exactly as on_tick would; stop before the first success (on_tick
  // redraws it) or after `horizon` failures (the checkpoint).
  train.rng = slots_[node_index].rng;
  const std::uint64_t failures =
      train.rng.skip_bernoulli_failures(train.p, horizon);
  const bool success = failures < horizon;
  const std::uint64_t k = train.ticks + (success ? failures + 1 : horizon);
  train.state = Train::kLazy;
  train.horizon = horizon;
  train.event = scheduler_.schedule_at(
      lattice_time(node_index, k), [this, node_index, k, success] {
        TickTrain& t = trains_[node_index];
        t.state = Train::kOff;
        slots_[node_index].rng = t.rng;
        if (success) {
          t.ticks = k - 1;
          fire_tick(node_index);
        } else {
          t.ticks = k;
          arm_lazy(node_index, std::min(2 * t.horizon, kMaxLazyHorizon));
        }
      });
}

void Network::fire_tick(std::size_t node_index) {
  TickTrain& train = trains_[node_index];
  train.state = Train::kOff;
  ++train.ticks;
  ++metrics_.ticks_fired;
  // Each tick record's cause is the node's previous tick record, so a chain
  // of ticks telescopes from the first one (a causal root).
  current_cause_ = trace_.record(
      now(), TraceKind::kTick, NodeId{static_cast<std::int64_t>(node_index)},
      static_cast<std::int64_t>(train.ticks), train.last_record);
  train.last_record = current_cause_;
  const bool was_live = counts_live(node_index);
  nodes_[node_index]->on_tick(context_for(node_index), train.ticks);
  recount_live(node_index, was_live);
  rearm_ticks(node_index, /*after_tick=*/true);
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
        if (config_.enable_ticks) pause_ticks(node_index);
        ++metrics_.timers_fired;
        current_cause_ =
            trace_.record(now(), TraceKind::kTimer,
                          NodeId{static_cast<std::int64_t>(node_index)},
                          static_cast<std::int64_t>(tag), cause);
        const bool was_live = counts_live(node_index);
        nodes_[node_index]->on_timer(context_for(node_index), timer_id, tag);
        recount_live(node_index, was_live);
        if (config_.enable_ticks) rearm_ticks(node_index);
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
  const Adjacency& out = plan_->out();
  ABE_CHECK_LT(out_index, out.degree(node_index));
  const std::size_t edge_index = out.of(node_index)[out_index];

  ++metrics_.messages_sent;
  ++traffic_[edge_index].sent;
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
  const double loss =
      loss_of_.empty() ? config_.loss_probability : loss_of_[edge_index];
  if (loss > 0.0 && channel_rng_.bernoulli(loss)) {
    ++metrics_.messages_dropped;
    if (dropped_.empty()) dropped_.assign(traffic_.size(), 0);
    ++dropped_[edge_index];
    const NodeId to{static_cast<std::int64_t>(plan_->end(edge_index).to)};
    if (trace_.enabled()) {
      trace_.record(now(), TraceKind::kDrop, to,
                    "edge=" + std::to_string(edge_index) + " " +
                        payload->describe(),
                    static_cast<std::int64_t>(edge_index), send_id);
    } else {
      trace_.record(now(), TraceKind::kDrop, to,
                    static_cast<std::int64_t>(edge_index), send_id);
    }
    return;  // `payload` is freed here
  }

  double delay;
  if (config_.adversary_delay != nullptr) {
    delay = config_.adversary_delay->next_delay(node_index,
                                                plan_->end(edge_index).to);
  } else {
    const DelayModel& model =
        delay_of_.empty() ? *config_.delay : *delay_of_[edge_index];
    delay = model.sample(channel_rng_);
  }
  ABE_CHECK_GE(delay, 0.0);
  SimTime arrival = now() + delay;
  if (config_.ordering == ChannelOrdering::kFifo) {
    arrival = std::max(arrival, last_arrival_[edge_index]);
    last_arrival_[edge_index] = arrival;
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
  const std::size_t to = plan_->end(edge_index).to;
  NodeSlot& slot = slots_[to];
  const SimTime start = std::max(now(), slot.busy_until);
  // The processing draw comes from the node's own stream, so a lazy tick
  // train must catch up first and re-arm after.
  const bool draws =
      config_.enable_ticks &&
      config_.processing.kind == ProcessingModel::Kind::kExponential;
  if (draws) pause_ticks(to);
  const double ptime = config_.processing.sample(slot.rng);
  if (draws) rearm_ticks(to);
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
  const NetworkPlan::EdgeEnd end = plan_->end(edge_index);
  const std::size_t to = end.to;
  ++traffic_[edge_index].delivered;
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
  if (bracket_handlers_) {
    if (config_.enable_ticks) pause_ticks(to);
    const bool was_live = counts_live(to);
    nodes_[to]->on_message(context_for(to), end.in_index, payload);
    recount_live(to, was_live);
    if (config_.enable_ticks) rearm_ticks(to);
  } else {
    nodes_[to]->on_message(context_for(to), end.in_index, payload);
  }
}

void Network::take_sample() {
  TimeSeriesSample sample;
  sample.t = next_sample_;
  sample.pending = static_cast<double>(scheduler_.pending());
  sample.in_flight = static_cast<double>(metrics_.in_flight());
  sample.live = static_cast<double>(live_);
  timeseries_.samples.push_back(sample);
  next_sample_ += timeseries_.interval;
}

void Network::sample_timeseries() {
  // Sim-time-driven sampling: after each processed event, emit one sample
  // per grid point the clock has crossed, labelled with the grid time. Pure
  // observation — no events scheduled, no randomness consumed — so enabling
  // it cannot change any aggregate.
  while (next_sample_ <= now() &&
         timeseries_.samples.size() < TimeSeries::kMaxSamples) {
    take_sample();
  }
}

bool Network::skipped_tick_in(SimTime from, SimTime limit, bool inclusive) {
  for (std::size_t i = 0; i < trains_.size(); ++i) {
    const TickTrain& train = trains_[i];
    if (train.stop < from) continue;
    const SimTime at = first_tick_at_or_after(i, train.ticks + 1, from).at;
    if (at <= train.stop && (at < limit || (inclusive && at == limit))) {
      return true;
    }
  }
  return false;
}

void Network::sample_skipped_ticks(SimTime limit, bool inclusive) {
  // The grid stays where a per-tick train put it. There, a lattice tick
  // with no on_tick call was an event too, and the sampler ran after it:
  // a grid point followed by such a tick before the next real event (or
  // before the deadline) is sampled now, with the state that tick saw.
  while ((next_sample_ < limit || (inclusive && next_sample_ == limit)) &&
         timeseries_.samples.size() < TimeSeries::kMaxSamples &&
         skipped_tick_in(next_sample_, limit, inclusive)) {
    take_sample();
  }
}

bool Network::run_until(const std::function<bool()>& pred, SimTime deadline) {
  ABE_CHECK(started_) << "run before start()";
  const bool skipped_ticks = sampling_ && config_.enable_ticks;
  while (!pred()) {
    // Peek so no event beyond the deadline is ever executed.
    const SimTime next = scheduler_.next_event_time();
    if (next == kTimeInfinity || next > deadline) {
      if (skipped_ticks) sample_skipped_ticks(deadline, /*inclusive=*/true);
      return false;
    }
    if (skipped_ticks) sample_skipped_ticks(next, /*inclusive=*/false);
    scheduler_.run_steps(1);
    if (sampling_) sample_timeseries();
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
  ABE_CHECK_LT(i, nodes_.size());
  return *nodes_[i];
}

const Node& Network::node(std::size_t i) const {
  ABE_CHECK_LT(i, nodes_.size());
  return *nodes_[i];
}

LocalClock& Network::clock(std::size_t i) {
  ABE_CHECK_LT(i, slots_.size());
  return slots_[i].clock;
}

std::vector<std::uint64_t> Network::channel_counts(
    std::uint64_t ChannelTraffic::*count) const {
  std::vector<std::uint64_t> out;
  out.reserve(traffic_.size());
  for (const ChannelTraffic& ch : traffic_) out.push_back(ch.*count);
  return out;
}

std::vector<std::uint64_t> Network::dropped_by_channel() const {
  if (dropped_.empty()) return std::vector<std::uint64_t>(traffic_.size(), 0);
  return dropped_;
}

std::vector<std::uint64_t> Network::sent_by_node() const {
  std::vector<std::uint64_t> out(size(), 0);
  const std::vector<Edge>& edges = plan_->topology().edges;
  for (std::size_t e = 0; e < traffic_.size(); ++e) {
    out[edges[e].from] += traffic_[e].sent;
  }
  return out;
}

double Network::expected_delay_bound() const {
  if (traffic_.empty()) return 0.0;
  if (delay_of_.empty()) return config_.delay->mean_delay();
  double bound = 0.0;
  for (const DelayModel* delay : delay_of_) {
    bound = std::max(bound, delay->mean_delay());
  }
  return bound;
}

MetricsSnapshot Network::metrics_snapshot() const {
  // The always-on pull-model counters: the scheduler and the NetworkMetrics
  // aggregate keep plain fields on their hot paths (cheaper than even a
  // relaxed atomic in the single-threaded simulator) and the snapshot
  // harvests them here, at collection time, added in name order so each
  // row appends.
  MetricsSnapshot snap;
  if (config_.metrics) {
    // Scalar rollups of the per-channel drop counts (the vectors themselves
    // are exposed via dropped_by_channel(); at n = 10^4 they would dwarf the
    // rest of the sweep JSON). Without a drop dropped_ is empty: both are 0.
    std::uint64_t lossy = 0;
    std::uint64_t worst = 0;
    for (std::uint64_t dropped : dropped_) {
      if (dropped > 0) ++lossy;
      worst = std::max(worst, dropped);
    }
    snap.add_counter("net.channels.lossy", static_cast<double>(lossy));
    snap.add_gauge("net.channels.max_dropped", static_cast<double>(worst));
    snap.add_histogram("net.delay", delay_hist_->bounds(),
                       delay_hist_->bucket_counts());
  }
  snap.add_gauge("net.delay.max", metrics_.max_channel_delay);
  snap.add_counter("net.delay.sum", metrics_.total_channel_delay);
  snap.add_counter("net.delivered",
                   static_cast<double>(metrics_.messages_delivered));
  snap.add_counter("net.dropped",
                   static_cast<double>(metrics_.messages_dropped));
  snap.add_counter("net.sent", static_cast<double>(metrics_.messages_sent));
  snap.add_counter("net.ticks", static_cast<double>(metrics_.ticks_fired));
  snap.add_counter("net.timers", static_cast<double>(metrics_.timers_fired));
  snap.add_counter("sched.cancelled",
                   static_cast<double>(scheduler_.cancelled_count()));
  snap.add_counter("sched.popped",
                   static_cast<double>(scheduler_.processed_count()));
  snap.add_gauge("sched.queue_high_water",
                 static_cast<double>(scheduler_.queue_high_water()));
  snap.add_counter("sched.scheduled",
                   static_cast<double>(scheduler_.scheduled_count()));
  snap.add_counter("trace.recorded",
                   static_cast<double>(trace_.total_recorded()));
  return snap;
}

}  // namespace abe
