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
//
// Plan state versus per-trial state. The graph and everything derived from
// it alone — channel lists, each edge's receiver and in-index, the BFS
// tree — live in a shared, read-only NetworkPlan (net/plan.h), which many
// trials may use at once. A Network keeps only what a trial changes, laid
// out for the message path: one 16-byte sent/delivered record per channel;
// drop counts, FIFO floors and per-channel delay/loss overrides in cold
// side arrays that stay empty until a trial needs them (the default path
// reads config.delay and config.loss_probability); a dense table of node
// pointers for dispatch beside the per-node slots that keep clock, rng and
// busy_until; and one Context whose node index is set before each handler
// call.
//
// Tick trains. With ticks enabled, node i's lattice tick k falls at local
// time phase_i + k * tick_local_period. Each node has at most one pending
// tick-train event, chosen by its Node::tick_demand() (net/node.h), which
// the network asks after every handler of that node:
//   kEvery      one event per lattice tick, each calling on_tick: the
//               per-tick train (the default until a node terminates);
//   kNone       no event; the lattice ticks pass unseen;
//   kBernoulli  the network copies the node's Rng, draws ahead on the copy
//               with Rng::skip_bernoulli_failures — the state change of
//               bernoulli(p) tick by tick, run on the four state words in
//               registers with no per-tick copy or call — and
//               schedules one event: at the first success, where it
//               installs the copy's state from just before that draw and
//               calls on_tick (which redraws it and succeeds), or at a
//               checkpoint 64 ticks on (doubling per checkpoint of one idle
//               stretch, up to 1024), where it installs the state after the
//               failures and draws ahead again.
// Before anything else touches a node with a kBernoulli train — its
// processing-time draw, on_message, on_timer — the train pauses: the failed
// draws of the lattice ticks strictly before now() are replayed on the
// node's own Rng by the same skip, which must report every one of them a
// failure, and the pending event is cancelled; after the handler the train
// re-arms from the next lattice tick. The node's stream therefore sees
// exactly the draws a per-tick train would make, in the same order, and a
// seeded run is the same — messages, times, states — while an idle node
// costs O(1) events per activation instead of one per period.
//
// What changes against a per-tick train:
//   * net.ticks (NetworkMetrics::ticks_fired) counts on_tick calls, not
//     lattice ticks; sched.* counts and trace.recorded shrink accordingly.
//     A kTick record's cause is the node's previous kTick record, so tick
//     chains still telescope back to the node's first tick.
//   * Ties. A lattice tick at the same instant as another event of the
//     same node counts after that event (a per-tick train orders them by
//     sequence number). Across nodes, a lazy event keeps the sequence
//     number it got when armed, not the one a per-tick train gives it when
//     the previous tick fires, so same-instant events of different nodes
//     can pop in another order. With random phases (the default) ties need
//     a delay law commensurate with the tick period on ideal clocks (fixed,
//     georetx); they are rare there, and reordered runs keep the same
//     distribution. Under TickPhase::kAligned ties are the rule: the order
//     is not reproduced, and tests check safety and the distribution there
//     instead (tests/test_lazy_ticks.cpp).
//   * The time-series sampler (obs/timeseries.h) still samples as if every
//     lattice tick were an event: a grid point followed by a skipped tick
//     before the next event is sampled at once (sample_skipped_ticks, which
//     scans the trains for such a tick). Only its pending gauge differs.
//     The live gauge is a count kept current around every handler call
//     while sampling is on (a node's is_terminated() changes only inside
//     its own handlers), so a sample is O(1), not a scan of all n nodes.
// The thread and UDP substrates ignore tick_demand and keep waking every
// node once per period.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "clock/local_clock.h"
#include "net/delay.h"
#include "net/node.h"
#include "net/plan.h"
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
  // The graph: a shared plan (net/plan.h), or a caller-built topology
  // that the constructor wraps with make_plan when `plan` is null. Set one
  // of the two.
  std::shared_ptr<const NetworkPlan> plan;
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
  // Tick generation: when enabled, every node has a tick lattice at local
  // times phase + k·tick_local_period, k >= 1, and Node::on_tick fires on
  // the lattice ticks its tick_demand() asks for (see the file comment).
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
  // Extended observability (obs/metrics.h): a sampled channel-delay
  // histogram and per-channel drop rollups, harvested by metrics_snapshot().
  // Off by default; recording consumes no randomness and reorders nothing,
  // so enabling it cannot change any aggregate.
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
  std::uint64_t ticks_fired = 0;  // on_tick calls
  std::uint64_t timers_fired = 0;
  double total_channel_delay = 0.0;  // summed over delivered messages
  double max_channel_delay = 0.0;

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

  // Schedules ONE event at t = 0 that calls on_start on every node in index
  // order (each a causal root: no trace record, current cause -1), then,
  // when ticks are on, the first tick of every node whose tick_demand() is
  // kEvery, in index order; the other tick trains arm inside the start
  // event, right after their node's on_start. Requires exactly topology.n
  // nodes installed. Must be called exactly once.
  //
  // This is the same execution as one start event per node: on_start
  // records nothing, every event an on_start schedules sorts after the
  // whole start (same time, later sequence) and after the first ticks, and
  // ticks still tie-break in index order. Two observable differences: a
  // run_until predicate is checked once after the whole start rather than
  // after each node, and the scheduler counts one start event instead of n
  // (sched.scheduled / sched.popped), so the pending set no longer holds an
  // n-event burst at t = 0.
  void start();

  // --- running ----------------------------------------------------------
  Scheduler& scheduler() { return scheduler_; }
  SimTime now() const { return scheduler_.now(); }

  // Runs until `pred()` holds (checked after every event), the scheduler
  // idles, or `deadline` passes. Returns true iff pred() held at exit.
  bool run_until(const std::function<bool()>& pred,
                 SimTime deadline = kTimeInfinity);

  // Runs until no events remain or `deadline` passes. A kEvery tick train
  // never drains, so with ticks enabled a finite deadline is required.
  void run_until_quiescent(SimTime deadline = kTimeInfinity);

  // --- introspection ----------------------------------------------------
  std::size_t size() const { return plan_->size(); }
  Node& node(std::size_t i);
  const Node& node(std::size_t i) const;
  const Topology& topology() const { return plan_->topology(); }
  const NetworkConfig& config() const { return config_; }
  const NetworkMetrics& metrics() const { return metrics_; }
  LocalClock& clock(std::size_t i);
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }
  // Sampled load gauges (config.timeseries_interval > 0; empty otherwise).
  const TimeSeries& timeseries() const { return timeseries_; }
  // Moves the series out; for the end of a trial, when nothing runs after.
  TimeSeries take_timeseries() { return std::move(timeseries_); }

  // Per-channel and per-node message counts, derived on each call from the
  // channel records (channel = edge index into topology().edges; node =
  // sender index). Always kept; O(E) to build, so not for hot loops.
  std::vector<std::uint64_t> sent_by_channel() const {
    return channel_counts(&ChannelTraffic::sent);
  }
  std::vector<std::uint64_t> delivered_by_channel() const {
    return channel_counts(&ChannelTraffic::delivered);
  }
  std::vector<std::uint64_t> dropped_by_channel() const;
  std::vector<std::uint64_t> sent_by_node() const;

  // Deterministic harvest of scheduler + network instruments, sorted by
  // metric name (obs/metrics.h). Always includes the always-on scalar
  // counters; the delay histogram and per-channel rollups appear only when
  // config.metrics is on.
  MetricsSnapshot metrics_snapshot() const;

  // The effective ABE parameter δ of this network: the max channel mean.
  double expected_delay_bound() const;

 private:
  class SimContext;
  // The per-trial message counts of one channel (traffic_[e] for
  // topology().edges[e]): the only per-channel state a default send and
  // its delivery write.
  struct ChannelTraffic {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
  };
  static_assert(sizeof(ChannelTraffic) == 16, "one hot record per channel");
  // Per-node state, held by value in one array (slots_) beside the node
  // pointers (nodes_): no per-node heap object besides the node itself and
  // its clock's segment list.
  struct NodeSlot {
    NodeSlot(Rng node_rng, LocalClock node_clock)
        : clock(std::move(node_clock)), rng(node_rng) {}

    LocalClock clock;
    Rng rng;
    SimTime busy_until = 0.0;
  };
  // What a node's one pending tick-train event stands for.
  enum class Train : std::uint8_t {
    kOff,    // no event: the demand is kNone
    kEvery,  // the next lattice tick, delivered as in a per-tick train
    kLazy,   // a kBernoulli run: the first success, or a checkpoint
  };
  // Per-node tick-train state (see the file comment), in its own array
  // (trains_), which stays empty when ticks are off.
  struct TickTrain {
    // Lattice index of the last tick accounted for: delivered, replayed as
    // a failed draw, or skipped under kNone.
    std::uint64_t ticks = 0;
    double phase = 0.0;  // local-time offset of the lattice
    Train state = Train::kOff;
    EventId event;
    // kLazy only: the Bernoulli parameter, the length of the pending run,
    // and the node's stream at the pending event (just before the
    // successful draw, or after the checkpoint's failed draws).
    double p = 0.0;
    std::uint32_t horizon = 0;
    Rng rng;
    // Trace id of this node's last kTick record: the cause of its next one.
    std::int64_t last_record = -1;
    // Time of the last lattice tick a per-tick train would have popped: the
    // first one at or after the node terminated. Kept for the time-series
    // sampler only (sample_skipped_ticks).
    SimTime stop = kTimeInfinity;
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
  // One count field of every channel record, in edge order.
  std::vector<std::uint64_t> channel_counts(
      std::uint64_t ChannelTraffic::*count) const;
  // The context handed to node `node_index`'s next handler call.
  Context& context_for(std::size_t node_index);
  // Tick trains. pause_ticks runs before anything else touches a node (a
  // processing-time draw, on_message, on_timer; nothing is armed before
  // on_start); rearm_ticks after, with the node's new demand.
  SimTime lattice_time(std::size_t node_index, std::uint64_t k);
  struct LatticeTick {
    std::uint64_t k;  // lattice index
    SimTime at;       // its real time
  };
  // The first lattice tick at or after real time `t`, from index `from` on.
  LatticeTick first_tick_at_or_after(std::size_t node_index,
                                     std::uint64_t from, SimTime t);
  void pause_ticks(std::size_t node_index);
  void rearm_ticks(std::size_t node_index, bool after_tick = false);
  void arm_lazy(std::size_t node_index, std::uint32_t horizon);
  void fire_tick(std::size_t node_index);
  // The live gauge (time-series sampling only): whether a node counts as
  // live before one of its handlers runs, and the gauge's update after it.
  // A node's is_terminated() changes only inside its own handlers, so this
  // keeps live_ equal to the number of non-terminated nodes.
  bool counts_live(std::size_t node_index) const {
    return sampling_ && !nodes_[node_index]->is_terminated();
  }
  void recount_live(std::size_t node_index, bool was_live) {
    if (!sampling_) return;
    const bool live = !nodes_[node_index]->is_terminated();
    if (live && !was_live) ++live_;
    if (!live && was_live) --live_;
  }
  void sample_timeseries();
  void sample_skipped_ticks(SimTime limit, bool inclusive);
  bool skipped_tick_in(SimTime from, SimTime limit, bool inclusive);
  void take_sample();
  TimerId set_timer(std::size_t node_index, double local_delay,
                    std::uint64_t tag);
  bool cancel_timer_impl(TimerId id);

  NetworkConfig config_;
  Scheduler scheduler_;
  Rng root_rng_;
  Rng channel_rng_;
  Trace trace_;
  NetworkMetrics metrics_;
  // Extended observability state (config_.metrics only): the channel-delay
  // histogram, harvested as the "net.delay" row. The hot path pays a single
  // null test when metrics are off (the obs cost contract).
  std::unique_ptr<FixedHistogram> delay_hist_;
  std::shared_ptr<const NetworkPlan> plan_;
  // nodes_[i] is node i (add_node appends in index order): the dispatch
  // table every handler call goes through.
  std::vector<NodePtr> nodes_;
  std::vector<NodeSlot> slots_;
  std::vector<TickTrain> trains_;  // one per node when ticks are on
  // The one Context every handler gets; context_for sets its node.
  std::unique_ptr<SimContext> context_;
  std::vector<ChannelTraffic> traffic_;
  // Cold per-channel state, each empty until first needed: drop counts
  // (sized at the first drop), FIFO floors (ChannelOrdering::kFifo), and
  // the set_channel_delay / set_channel_loss overrides (sized at the first
  // override, filled with the config's model and probability).
  std::vector<std::uint64_t> dropped_;
  std::vector<SimTime> last_arrival_;
  std::vector<const DelayModel*> delay_of_;
  std::vector<double> loss_of_;
  std::vector<DelayModelPtr> delay_overrides_;  // owners of delay_of_ entries
  // Causality: the trace id of the event whose handler is currently running
  // (-1 between handlers / inside on_start). Every record made from inside a
  // handler — sends, drops, scheduled timer/tick fires — links back to it.
  std::int64_t current_cause_ = -1;
  // Time-series sampling state: next sim-time grid point to sample, and the
  // live gauge (nodes not terminated), kept current by recount_live.
  TimeSeries timeseries_;
  SimTime next_sample_ = 0.0;
  std::uint64_t live_ = 0;
  bool sampling_ = false;
  // A delivery calls on_message between pause_ticks/rearm_ticks and keeps
  // the live gauge: ticks or sampling on. Off, it calls the handler alone.
  bool bracket_handlers_ = false;
  bool started_ = false;
};

}  // namespace abe
