// The discrete-event network runtime implementing the ABE model.
//
// A Network instance owns the scheduler, per-node drifting clocks, channels
// with stochastic delay, the per-event processing-delay model, and metrics.
// It implements Definition 1 of the paper directly:
//   (1) channel delays come from a DelayModel whose mean is known (δ);
//   (2) each node's clock rate stays within [s_low, s_high];
//   (3) handling a delivered message occupies the node for a random
//       processing time with known expected bound (γ).
// Setting a FixedDelay model, ideal clocks, and zero processing recovers the
// classic ABD model; an exponential/Lomax delay gives a genuine ABE network
// where no worst-case delay bound exists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "clock/local_clock.h"
#include "net/delay.h"
#include "net/node.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/equeue/backend.h"
#include "sim/scheduler.h"
#include "trace/trace.h"

namespace abe {

// Delivery order within one channel.
enum class ChannelOrdering : std::uint8_t {
  kFifo,       // messages arrive in send order
  kArbitrary,  // independent delays; messages may overtake (paper's setting)
};

const char* channel_ordering_name(ChannelOrdering o);

// Initial phase of each node's tick train (see NetworkConfig::tick_phase).
enum class TickPhase : std::uint8_t {
  kRandomPerNode,  // phase ~ U[0, tick_local_period) per node (asynchronous)
  kAligned,        // phase 0 everywhere (lockstep when clocks are ideal)
};

const char* tick_phase_name(TickPhase p);

// Definition 1(3): time a node is busy handling one delivered message.
struct ProcessingModel {
  enum class Kind : std::uint8_t { kZero, kFixed, kExponential };
  Kind kind = Kind::kZero;
  double mean = 0.0;

  double sample(Rng& rng) const;

  static ProcessingModel zero() { return {Kind::kZero, 0.0}; }
  static ProcessingModel fixed(double t) { return {Kind::kFixed, t}; }
  static ProcessingModel exponential(double mean) {
    return {Kind::kExponential, mean};
  }
};

struct NetworkConfig {
  Topology topology;
  // Delay model applied to every channel (per-channel overrides below).
  DelayModelPtr delay;
  // When set, every message's delay is chosen by the adversary instead of
  // sampled from `delay` (net/delay.h; build via make_bounded_adversary so
  // the ABE per-channel mean bound is enforced). nullptr keeps the honest
  // sampling path untouched — no extra RNG draws, bit-identical runs.
  AdversaryPolicyPtr adversary_delay;
  ChannelOrdering ordering = ChannelOrdering::kArbitrary;
  // Clock model (Definition 1(2)).
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kNone;
  double clock_segment_mean = 10.0;
  // Processing model (Definition 1(3)).
  ProcessingModel processing = ProcessingModel::zero();
  // Tick generation: when enabled, Node::on_tick fires once per
  // `tick_local_period` of the node's local clock, at local times
  // phase + k·tick_local_period.
  bool enable_ticks = false;
  double tick_local_period = 1.0;
  // Nodes in an asynchronous network share no time origin, so by default
  // every node draws its tick phase uniformly in [0, tick_local_period).
  // kAligned pins all phases to 0: with ideal clocks every node then ticks
  // at the very same instants — a degenerate lockstep regime the ABE model
  // never promises. Under a fixed (ABD) delay that regime makes symmetric
  // election rounds self-repeat (simultaneous activations knock each other
  // out over and over), which is why kRandomPerNode is the default; keep
  // kAligned only for tests that pin exact tick times.
  TickPhase tick_phase = TickPhase::kRandomPerNode;
  // Per-attempt silent drop probability (for the lossy-link/ARQ substrate;
  // plain ABE networks keep this at 0 — the model requires delivery).
  double loss_probability = 0.0;
  // Root seed; all stochastic behaviour derives from it.
  std::uint64_t seed = 1;
  // Event-queue backend for the scheduler (sim/equeue/backend.h). A pure
  // performance knob: every backend pops in the identical order, so seeded
  // runs are bit-identical across backends. ABE_EQUEUE overrides.
  EqueueBackend equeue = EqueueBackend::kAuto;
  // Extended observability (obs/metrics.h): per-channel deliver/drop
  // vectors and a sampled channel-delay histogram, harvested by
  // metrics_snapshot(). Off by default; recording consumes no randomness
  // and reorders nothing, so enabling it cannot change any aggregate.
  bool metrics = false;
  // Causal-history mode: widen the flight-recorder ring to full capacity
  // WITHOUT enabling detail strings, so cause chains (obs/causal.h) reach
  // back to their roots while records stay allocation-free. Like `metrics`,
  // this draws no randomness and reorders nothing.
  bool causal_history = false;
  // Time-series telemetry (obs/timeseries.h): sample load gauges every this
  // many units of SIM time during run_until(). 0 disables (the default).
  double timeseries_interval = 0.0;
};

struct NetworkMetrics {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t ticks_fired = 0;
  std::uint64_t timers_fired = 0;
  double total_channel_delay = 0.0;  // summed over delivered messages
  double max_channel_delay = 0.0;
  std::vector<std::uint64_t> sent_by_node;
  std::vector<std::uint64_t> sent_by_channel;

  std::uint64_t in_flight() const {
    return messages_sent - messages_delivered - messages_dropped;
  }
  double mean_channel_delay() const {
    return messages_delivered == 0
               ? 0.0
               : total_channel_delay / static_cast<double>(messages_delivered);
  }
};

class Network {
 public:
  explicit Network(NetworkConfig config);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- construction ---------------------------------------------------
  // Installs one node per topology slot, in index order.
  void add_node(NodePtr node);
  // Convenience: builds all n nodes from a factory.
  void build_nodes(const std::function<NodePtr(std::size_t)>& factory);
  // Overrides the delay model / loss probability of a single channel
  // (edge index into topology().edges). Must precede start().
  void set_channel_delay(std::size_t edge_index, DelayModelPtr delay);
  void set_channel_loss(std::size_t edge_index, double loss_probability);

  // Schedules on_start for every node (and first ticks). Requires exactly
  // topology.n nodes installed. Must be called exactly once.
  void start();

  // --- running ----------------------------------------------------------
  Scheduler& scheduler() { return scheduler_; }
  SimTime now() const { return scheduler_.now(); }

  // Runs until `pred()` holds (checked after every event), the scheduler
  // idles, or `deadline` passes. Returns true iff pred() held at exit.
  bool run_until(const std::function<bool()>& pred,
                 SimTime deadline = kTimeInfinity);

  // Runs until no events remain or `deadline` passes. With ticks enabled the
  // queue never drains, so a finite deadline is required then.
  void run_until_quiescent(SimTime deadline = kTimeInfinity);

  // --- introspection ----------------------------------------------------
  std::size_t size() const { return config_.topology.n; }
  Node& node(std::size_t i);
  const Node& node(std::size_t i) const;
  const Topology& topology() const { return config_.topology; }
  const NetworkConfig& config() const { return config_; }
  const NetworkMetrics& metrics() const { return metrics_; }
  LocalClock& clock(std::size_t i);
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }
  // Sampled load gauges (config.timeseries_interval > 0; empty otherwise).
  const TimeSeries& timeseries() const { return timeseries_; }

  // Extended observability, populated when config.metrics is on: delivered
  // and dropped counts per channel (edge index into topology().edges; empty
  // vectors when disabled). The seed-pinned lossy-ring regression in
  // tests/test_obs.cpp reads these directly.
  const std::vector<std::uint64_t>& delivered_by_channel() const {
    return delivered_by_channel_;
  }
  const std::vector<std::uint64_t>& dropped_by_channel() const {
    return dropped_by_channel_;
  }

  // Deterministic harvest of scheduler + network instruments, sorted by
  // metric name (obs/metrics.h). Always includes the always-on scalar
  // counters; the delay histogram and per-channel rollups appear only when
  // config.metrics is on.
  MetricsSnapshot metrics_snapshot() const;

  // The effective ABE parameter δ of this network: the max channel mean.
  double expected_delay_bound() const;

 private:
  class ContextImpl;
  struct ChannelState {
    DelayModelPtr delay;
    double loss_probability = 0.0;
    SimTime last_arrival = 0.0;  // FIFO floor
  };
  // Per-node state, held by value in one array (slots_): no per-node heap
  // object besides the node itself and its clock's segment list.
  struct NodeSlot {
    NodeSlot(Rng node_rng, LocalClock node_clock)
        : clock(std::move(node_clock)), rng(node_rng) {}

    NodePtr node;
    LocalClock clock;
    Rng rng;
    SimTime busy_until = 0.0;
    std::uint64_t ticks = 0;
    double tick_phase = 0.0;  // local-time offset of the tick train
    bool ticking = false;
  };

  // Message path. The payload has one owner at every step — send_from, the
  // delivery event, deliver, the processing continuation — and is freed
  // when the last of them finishes with it (or when a pending event is
  // destroyed with the scheduler).
  void send_from(std::size_t node_index, std::size_t out_index,
                 PayloadPtr payload);
  void deliver(std::size_t edge_index, PayloadPtr payload, SimTime sent_at,
               std::int64_t send_id);
  void finish_delivery(std::size_t edge_index, const Payload& payload,
                       double channel_delay, std::int64_t send_id,
                       double work);
  void schedule_next_tick(std::size_t node_index);
  void sample_timeseries();
  TimerId set_timer(std::size_t node_index, double local_delay,
                    std::uint64_t tag);
  bool cancel_timer_impl(TimerId id);

  NetworkConfig config_;
  Scheduler scheduler_;
  Rng root_rng_;
  Rng channel_rng_;
  Trace trace_;
  NetworkMetrics metrics_;
  // Extended observability state (config_.metrics only). The histogram
  // lives in the registry; the hot paths cache one raw pointer and pay a
  // single null test when metrics are off (the obs cost contract).
  MetricsRegistry registry_;
  FixedHistogram* delay_hist_ = nullptr;
  std::vector<std::uint64_t> delivered_by_channel_;
  std::vector<std::uint64_t> dropped_by_channel_;
  std::vector<NodeSlot> slots_;
  // contexts_[i] is node i's Context; like slots_, sized once in the
  // constructor so the references handed to nodes stay valid.
  std::vector<ContextImpl> contexts_;
  std::size_t next_slot_ = 0;  // add_node fills slots_ in index order
  std::vector<ChannelState> channels_;
  Adjacency out_channels_;  // node -> edge indices
  Adjacency in_channels_;
  std::vector<std::size_t> in_index_of_edge_;  // edge -> receiver's in-index
  // Causality: the trace id of the event whose handler is currently running
  // (-1 between handlers / inside on_start). Every record made from inside a
  // handler — sends, drops, scheduled timer/tick fires — links back to it.
  std::int64_t current_cause_ = -1;
  // Time-series sampling state: next sim-time grid point to sample.
  TimeSeries timeseries_;
  SimTime next_sample_ = 0.0;
  bool started_ = false;
};

}  // namespace abe
