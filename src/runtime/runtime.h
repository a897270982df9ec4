// The unified Runtime contract: one execution API over every substrate.
//
// The paper's ABE model sits *between* pure asynchrony and real networks, so
// conclusions drawn from the discrete-event simulator should be checkable
// against wall-clock executions of the very same algorithm code, on the
// same scenario matrix. This header is that seam:
//
//   * RuntimeConfig — the runtime-agnostic experiment environment (graph plan,
//     delay model, clock bounds/drift, processing, failure injection, ticks,
//     seed) plus the per-substrate realisation knobs (equeue backend for the
//     simulator; wall time scale and budget for threads and udp);
//   * Runtime — one lifecycle (build nodes → start → run to a completion
//     predicate or deadline → settle/drain → stop → inspect), implemented by
//       - SimRuntime  wrapping Scheduler+Network  (net/network.h),
//       - WallRuntime wrapping WallNetwork        (runtime/wall_net.h) for
//         both wall-clock kinds: kThread (mailbox delivery, emulated
//         delays) and kUdp (real loopback datagrams with measured delays,
//         runtime/udp_transport.h);
//   * RunStats — the uniform harvest (messages sent/delivered/dropped, ticks,
//     clock reading); per-node terminated flags come from terminated(i);
//   * AlgorithmDriver — what an algorithm must provide to run on any
//     substrate: a node factory, a done-predicate, and result extraction.
//     run_algorithm_trial() executes a driver on any runtime.
//
// Determinism contract: on the simulator a trial is a pure function of its
// RuntimeConfig (seed included), so seeded aggregates are bit-identical
// run to run and across trial-pool widths. The wall-clock runtimes are
// intentionally nondeterministic — parity there means model-level
// postconditions (leader uniqueness, dissemination, message counts in the
// same regime), never traces.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "obs/causal.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "trace/trace.h"

namespace abe {

// ---------------------------------------------------------------------------
// Runtime axis

enum class RuntimeKind : std::uint8_t {
  kSim,     // discrete-event simulator (deterministic, any n)
  kThread,  // one OS thread per node, wall-clock delays (fidelity check)
  kUdp,     // real loopback UDP datagrams, measured delays (udp_transport.h)
};

const char* runtime_kind_name(RuntimeKind kind);
// Non-aborting parse of the names printed by runtime_kind_name; returns
// false on unknown input (the CLI validation boundary).
bool runtime_kind_from_name(const std::string& name, RuntimeKind* out);

// ---------------------------------------------------------------------------
// Configuration

// Everything a runtime needs to realise one trial environment. Field-level
// comments for the simulator live with NetworkConfig; the wall-clock
// runtimes (runtime/wall_net.h) read this struct directly. Substrate-only
// knobs are marked.
struct RuntimeConfig {
  // The graph as a shared, read-only plan (net/plan.h): wrap a built
  // topology with make_plan, or take a cached one (scenario/scenario.h,
  // trial_plan). Drivers read channel lists and the BFS tree from it.
  std::shared_ptr<const NetworkPlan> plan;
  DelayModelPtr delay;  // failure-degrade wrapping already applied
  // When set, overrides `delay` for every channel: the adversary chooses
  // each message's delay (stateful, edge-aware) instead of sampling the
  // model. Build only via make_bounded_adversary (adversary/delay_policy.h),
  // which enforces the ABE empirical-mean bound per channel. Both runtimes
  // honor it; nullptr keeps the honest sampling path byte-for-byte.
  AdversaryPolicyPtr adversary_delay;
  ChannelOrdering ordering = ChannelOrdering::kArbitrary;  // sim only
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kNone;
  ProcessingModel processing = ProcessingModel::zero();
  bool enable_ticks = false;
  double tick_local_period = 1.0;
  // Per-attempt silent drop (FailureProfile::channel_loss). Both runtimes
  // honor it and count drops in RunStats.messages_dropped.
  double loss_probability = 0.0;
  std::uint64_t seed = 1;
  // Give up past this simulated time (thread: scaled to a wall budget and
  // clamped by wall_timeout_ms).
  SimTime deadline = 1e7;
  EqueueBackend equeue = EqueueBackend::kAuto;  // sim only
  // Full-detail tracing on either substrate (the flight recorder itself is
  // always on at small capacity; this raises capacity and records payload
  // strings). See trace/trace.h.
  bool trace = false;
  // Extended metrics (delay/RTT histograms, per-node handler timing).
  // Recording consumes no RNG and never reorders events, so flipping this
  // cannot change any seeded aggregate. Off by default; scenario sweeps
  // turn it on.
  bool metrics = false;
  // Causal-history mode: widen the always-on flight ring to full capacity
  // while keeping records lite (no detail strings), so critical-path
  // chains (obs/causal.h) reach back to their roots instead of truncating
  // at 256 events. Same no-RNG/no-reorder contract as `metrics`.
  bool causal_history = false;
  // Time-series telemetry (obs/timeseries.h): sim-time sampling grid for
  // load gauges; 0 disables. Simulator only — thread-runtime gauges would
  // be wall-clock artefacts.
  double timeseries_interval = 0.0;
  // --- thread/udp-runtime realisation (ignored by the simulator) ---------
  double time_scale_us = 200.0;     // wall microseconds per sim unit
  // Hard per-trial wall budget, counted from start(): run_until_done and
  // drain share it (a stalled run cannot burn the full budget twice).
  // Settle windows (run_for) are bounded sleeps on top.
  double wall_timeout_ms = 30000.0;
  // --- udp-runtime realisation (ignored elsewhere) -----------------------
  // Per-channel ARQ reliable mode: sequence numbers, ACKs, timeout
  // retransmission, receiver dedup (runtime/udp_transport.h). Injected loss
  // then degrades goodput instead of dropping messages.
  bool udp_reliable = false;
};

// ---------------------------------------------------------------------------
// Uniform harvest

struct RunStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // failure injection
  std::uint64_t ticks_fired = 0;
  SimTime now = 0.0;  // runtime clock at the moment of sampling

  // On a RUNNING thread runtime the three counters are sampled by separate
  // atomic loads — no consistent snapshot — so cross-counter arithmetic
  // like this can transiently read zero while messages are in flight.
  // Treat it as exact only after stop() or a successful drain() (which
  // does the consistent-snapshot dance internally); never build a thread
  // done-predicate on it.
  std::uint64_t in_flight() const {
    const std::uint64_t done = messages_delivered + messages_dropped;
    return messages_sent > done ? messages_sent - done : 0;
  }
};

// Wall-clock phase timing of one trial, measured by run_algorithm_trial.
// Kept OUTSIDE MetricsSnapshot on purpose: wall times differ run to run,
// while simulator snapshots must compare bit-identical across trial-pool
// thread counts.
struct WallPhaseTimes {
  double build_ms = 0.0;   // configure + runtime construction + build_nodes
  double run_ms = 0.0;     // start → done-predicate (or deadline)
  double settle_ms = 0.0;  // on_complete + settle + stop
  // Whole-trial wall time, measured between the SAME two clock reads that
  // bound the phases (run_algorithm_trial chains one read per phase
  // boundary), so build + run + settle == total exactly — the invariant
  // that makes cross-substrate wall blocks comparable, and that
  // tests/test_runtime.cpp pins.
  double total_ms = 0.0;
  WallPhaseTimes& operator+=(const WallPhaseTimes& other) {
    build_ms += other.build_ms;
    run_ms += other.run_ms;
    settle_ms += other.settle_ms;
    total_ms += other.total_ms;
    return *this;
  }
};

// Runtime-agnostic outcome of one trial (the scenario engine's trial
// currency; algorithm-specific detail travels via driver sinks).
struct TrialOutcome {
  bool completed = false;   // done-predicate held before the deadline
  bool safety_ok = false;   // algorithm's safety postconditions
  std::string safety_detail;
  // Refinement of !completed: the run went quiescent with no way to make
  // further progress (e.g. the ring election's all-passive deadlock under
  // loss) rather than still working when the deadline hit. Always false
  // when completed.
  bool stalled = false;
  SimTime time = 0.0;       // completion time (sim units on both runtimes)
  std::uint64_t messages = 0;
  // Node at which the algorithm decided (elected leader / consensus sink);
  // -1 when unknown. Set by drivers in extract(); anchors the causal
  // critical path (obs/causal.h).
  std::int64_t decision_node = -1;
  // Observability harvest (run_algorithm_trial fills these in; drivers
  // that hand-construct outcomes may leave them empty).
  bool has_metrics = false;       // metrics was on and a snapshot was taken
  MetricsSnapshot metrics;        // deterministic on the simulator
  WallPhaseTimes wall;            // wall-clock phases, never deterministic
  // Critical path of the decision (completed trials with a decision node
  // only). Extracted from a trace snapshot taken BEFORE the settle phase,
  // so settle traffic cannot evict the decision's causal history.
  bool has_critical_path = false;
  CriticalPathStats critical_path;
  // Per-trial time series (sim runtime with timeseries_interval > 0 only).
  bool has_timeseries = false;
  TimeSeries timeseries;
  // Tail of the always-on flight recorder, populated only for trials that
  // stalled, missed the deadline, or violated safety — the recent-history
  // dump that makes failures diagnosable without pre-enabling tracing.
  std::vector<TraceEvent> flight_tail;
};

// ---------------------------------------------------------------------------
// The contract

class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual RuntimeKind kind() const = 0;
  virtual std::size_t size() const = 0;

  // --- lifecycle (call in this order) -----------------------------------
  // Installs one node per topology slot, in index order.
  virtual void build_nodes(
      const std::function<NodePtr(std::size_t)>& factory) = 0;
  // Delivers on_start on every node (and first ticks where enabled).
  virtual void start() = 0;
  // Runs until `done()` holds or `deadline` (sim units) passes; returns
  // whether done() held. On the simulator the predicate is checked after
  // every event; on threads it is re-evaluated on every node-event
  // completion (condition-variable, no busy polling). Thread predicates run
  // concurrently with node threads and must only read atomics —
  // terminated(i) or driver-owned atomic observers; individual RunStats
  // counters are atomic too, but arithmetic ACROSS them (in_flight) has no
  // consistent snapshot while running — use drain() for quiescence.
  virtual bool run_until_done(const std::function<bool()>& done,
                              SimTime deadline) = 0;
  // Lets the network run for `duration` more sim units (settle windows).
  // The thread runtime floors this at kMinSettleWallMs of wall time — OS
  // scheduling jitter makes shorter windows meaningless there.
  virtual void run_for(SimTime duration) = 0;
  // Runs until no messages are in flight or being handled (quiescence for
  // message-driven protocols; meaningless with tick generators). Returns
  // whether quiescence was reached within `max_wait` sim units.
  virtual bool drain(SimTime max_wait) = 0;
  // Freezes execution. Idempotent. After stop(), node state is safe to
  // inspect on any runtime and now() stops advancing.
  virtual void stop() = 0;

  // --- observation -------------------------------------------------------
  // Global clock in sim units (wall time / time_scale on threads).
  virtual SimTime now() const = 0;
  // Race-free per-node terminated flag; safe while running on both
  // runtimes (atomic on threads).
  virtual bool terminated(std::size_t i) const = 0;
  // Node state. Safe any time on the simulator; only after stop() on the
  // thread runtime (state is owned by the node's thread while running).
  virtual Node& node(std::size_t i) = 0;
  virtual RunStats stats() const = 0;
  // Deterministic-by-name metrics harvest (obs/metrics.h). Simulator
  // snapshots are bit-reproducible for a fixed seed; thread snapshots
  // report wall-clock facts. Safe after stop() on both runtimes.
  virtual MetricsSnapshot metrics_snapshot() const = 0;
  // Copy of the flight recorder: always-on ring of recent events (full
  // capacity + payload detail when RuntimeConfig::trace is set). Thread
  // records are stamped with mailbox delivery time. Safe after stop().
  virtual Trace trace_snapshot() const = 0;
  // Sampled load gauges (RuntimeConfig::timeseries_interval). Only the
  // simulator samples; the default is an empty, disabled series.
  virtual TimeSeries timeseries_snapshot() const { return TimeSeries{}; }
};

// Minimum wall window WallRuntime::run_for realises (see run_for).
constexpr double kMinSettleWallMs = 100.0;

// Node cap for the thread runtime: one OS thread per node.
constexpr std::size_t kMaxThreadRuntimeNodes = 256;

// Node cap for the udp runtime: one loopback socket (fd + ephemeral port)
// plus TWO OS threads (reader + dispatcher) per node, so its budget is
// tighter than the thread runtime's.
constexpr std::size_t kMaxUdpRuntimeNodes = 128;

// ---------------------------------------------------------------------------
// Concrete runtimes

class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(RuntimeConfig config);

  RuntimeKind kind() const override { return RuntimeKind::kSim; }
  std::size_t size() const override { return net_.size(); }
  void build_nodes(
      const std::function<NodePtr(std::size_t)>& factory) override;
  void start() override;
  bool run_until_done(const std::function<bool()>& done,
                      SimTime deadline) override;
  void run_for(SimTime duration) override;
  bool drain(SimTime max_wait) override;
  void stop() override {}
  SimTime now() const override { return net_.now(); }
  bool terminated(std::size_t i) const override;
  Node& node(std::size_t i) override { return net_.node(i); }
  RunStats stats() const override;
  MetricsSnapshot metrics_snapshot() const override {
    return net_.metrics_snapshot();
  }
  Trace trace_snapshot() const override { return net_.trace(); }
  TimeSeries timeseries_snapshot() const override {
    return net_.timeseries();
  }

  // Escape hatch for simulator-only instrumentation (trace, per-channel
  // overrides, scheduler introspection).
  Network& network() { return net_; }

 private:
  static NetworkConfig to_network_config(RuntimeConfig config);
  bool trace_ = false;  // declared before net_: read from config pre-move
  Network net_;
};

// Constructs the runtime for `kind`: SimRuntime for kSim, WallRuntime for
// kThread and kUdp. Wall-clock structural limits (piecewise drift, node
// caps) abort here — gate user input with runtime_cell_problem
// (scenario/scenario.h) first.
std::unique_ptr<Runtime> make_runtime(RuntimeKind kind, RuntimeConfig config);

// ---------------------------------------------------------------------------
// AlgorithmDriver

// What an algorithm contributes to a trial, runtime-agnostic. One driver
// instance serves exactly one trial (drivers hold per-trial observer state).
class AlgorithmDriver {
 public:
  virtual ~AlgorithmDriver() = default;

  // Adjusts the environment before the runtime is constructed (enable
  // ticks, derive wiring from config.plan, …).
  virtual void configure(RuntimeConfig& config) { (void)config; }
  // Builds the node for topology slot `index`.
  virtual NodePtr make_node(std::size_t index) = 0;
  // Completion predicate; see Runtime::run_until_done for the thread-side
  // thread-safety requirements.
  virtual bool done(const Runtime& rt) = 0;
  // Called once, right when done() first held — snapshot completion-moment
  // measurements (time, message count) here.
  virtual void on_complete(Runtime& rt) { (void)rt; }
  // Post-completion settle/drain phase, before stop().
  virtual void settle(Runtime& rt, bool completed) {
    (void)rt;
    (void)completed;
  }
  // Harvests the outcome after stop() — node state is frozen here.
  virtual TrialOutcome extract(Runtime& rt, bool completed) = 0;
};

// Runs one trial of `driver` on a fresh runtime of `kind`:
//   configure → build_nodes → start → run_until_done(deadline) →
//   on_complete (if completed) → settle → stop → extract.
TrialOutcome run_algorithm_trial(RuntimeKind kind, RuntimeConfig config,
                                 AlgorithmDriver& driver);

}  // namespace abe
