// Real-thread runtime: one std::thread per node, blocking mailboxes,
// wall-clock delays. This is the substrate behind ThreadRuntime — the
// real-thread half of the unified Runtime contract (runtime/runtime.h);
// algorithm code reaches it through the same Node/Context interface the
// simulator provides, so the exact same node objects run on both.
//
// One simulated time unit maps to `time_scale_us` microseconds of wall
// time; channel delays are sampled from the same DelayModel and realised by
// due-time enqueueing. Local clocks are wall clocks scaled by a per-node
// fixed drift rate within the configured bounds — an honest (if
// small-scale) physical realisation of the ABE model, used as a fidelity
// check on the simulator's conclusions. Failure injection mirrors the
// simulator: per-attempt silent loss (`loss_probability`, drops counted in
// messages_dropped()) and congestion-degraded delays (wrap the DelayModel
// with FailureProfile::apply before handing it in). Definition 1(3)
// processing time is realised literally: the node's thread sleeps for the
// sampled handling time before processing a delivered message.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "clock/local_clock.h"
#include "net/delay.h"
#include "net/network.h"
#include "net/node.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/mailbox.h"
#include "trace/trace.h"
#include "util/thread_annotations.h"

namespace abe {

struct ThreadNetConfig {
  Topology topology;
  DelayModelPtr delay;               // per-channel delay (sim units)
  // When set, the adversary chooses every message's delay instead of
  // sampling `delay` (net/delay.h). Policies are called concurrently from
  // node threads and synchronise internally (make_bounded_adversary).
  AdversaryPolicyPtr adversary_delay;
  double time_scale_us = 1000.0;     // wall microseconds per sim unit
  // Clock-drift band [s_low, s_high] (Definition 1(2)), mirroring the
  // simulator's NetworkConfig. kNone pins every rate to exactly 1;
  // kFixedRandomRate draws one rate per node within the bounds (the
  // default, and the only wandering model a wall-clock-scaled runtime can
  // realise — kPiecewiseRandom is rejected).
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kFixedRandomRate;
  // Definition 1(3): handling a delivered message occupies the node — the
  // thread sleeps for the sampled time before invoking on_message.
  ProcessingModel processing = ProcessingModel::zero();
  // Per-attempt silent drop (failure injection; scenario engine). Dropped
  // sends still count as sent, mirroring NetworkMetrics.
  double loss_probability = 0.0;
  bool enable_ticks = false;
  double tick_local_period = 1.0;    // in sim units, on the local clock
  std::uint64_t seed = 1;
  // Full-detail tracing (payload strings in every record). The flight
  // recorder itself is always on — see ThreadNetwork::trace_copy().
  bool trace = false;
  // Causal-history mode (mirrors NetworkConfig::causal_history): widen the
  // flight ring to full capacity while keeping records lite, so cause
  // chains (obs/causal.h) reach their roots.
  bool causal_history = false;
  // Extended observability: per-node handler-time accounting, harvested by
  // metrics_snapshot(). Off by default.
  bool metrics = false;
};

class ThreadNetwork {
 public:
  explicit ThreadNetwork(ThreadNetConfig config);
  ~ThreadNetwork();
  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  // Installs nodes (same contract as Network).
  void add_node(NodePtr node);
  void build_nodes(const std::function<NodePtr(std::size_t)>& factory);

  // Spawns the node threads and delivers on_start on each node's thread.
  void start();

  // Blocks until `pred()` holds or the wall timeout expires, and returns
  // whether pred() held. The predicate is re-evaluated on every node-event
  // completion via condition-variable notification (no busy polling), so a
  // satisfied predicate returns promptly. It runs concurrently with node
  // threads and must only read atomics (terminated(i), the message
  // counters, or caller-owned atomic observers).
  bool wait_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout) EXCLUDES(progress_mutex_);

  // Blocks until no message is in flight or being handled (quiescence for
  // message-driven protocols; meaningless with tick generators or live
  // timers) or the wall timeout expires. Returns whether quiescence held.
  bool wait_quiescent(std::chrono::milliseconds timeout);

  // Closes all mailboxes and joins all threads. Idempotent; also runs on
  // destruction.
  void stop();

  std::size_t size() const { return config_.topology.n; }
  // Only safe after stop(): node state is owned by its thread while running.
  Node& node(std::size_t i);
  // Race-free terminated flag, updated by the node's thread after each event.
  bool terminated(std::size_t i) const;

  std::uint64_t messages_sent() const { return messages_sent_.load(); }
  std::uint64_t messages_delivered() const {
    return messages_delivered_.load();
  }
  std::uint64_t messages_dropped() const { return messages_dropped_.load(); }
  std::uint64_t ticks_fired() const { return ticks_fired_.load(); }
  // Wall time since start(), in sim units.
  double now_sim() const;
  // The single monotonic-clock read start() took; ThreadRuntime derives
  // its wall deadline from it so budget arithmetic and now_sim() share one
  // origin (one clock read point per phase).
  MailItem::Clock::time_point start_time() const { return start_time_; }

  // Copy of the flight recorder (trace/trace.h): always-on ring of recent
  // events, stamped with mailbox DELIVERY time (now_sim() at pop), so the
  // transcript orders events the way the node experienced them, not the
  // way producers enqueued them. ThreadNetConfig::trace switches it to the
  // full-detail ring the CrossRuntimeParity transcript checks read.
  Trace trace_copy() const EXCLUDES(trace_mutex_);

  // Deterministic-by-name harvest mirroring Network::metrics_snapshot():
  // net.* counters shared with the simulator plus thread.* rows (CV
  // wakeups, mailbox high-water, per-node handler time when
  // ThreadNetConfig::metrics is on). Values are wall-clock facts, so unlike
  // simulator snapshots they are not bit-reproducible across runs.
  MetricsSnapshot metrics_snapshot() const EXCLUDES(trace_mutex_);

 private:
  class ThreadContext;
  struct Slot {
    NodePtr node;
    std::unique_ptr<Mailbox> mailbox;
    std::unique_ptr<ThreadContext> context;
    std::thread thread;
    Rng rng;
    double clock_rate = 1.0;
    // Trace id of the event this node's thread is currently handling (-1
    // outside handlers). Like `rng`, touched only by the owning thread:
    // sends stamp it as their cause, pops overwrite it.
    std::int64_t current_cause = -1;
    std::atomic<bool> terminated{false};
    // Nanoseconds spent inside event handlers (metrics mode only). Written
    // by the owning node thread, read by metrics_snapshot().
    std::atomic<std::uint64_t> handler_ns{0};
  };

  void thread_main(std::size_t index);
  // Wakes wait_until/wait_quiescent callers after a state change.
  void signal_progress() EXCLUDES(progress_mutex_);
  MailItem::Clock::time_point sim_to_wall(double sim_delay_from_now) const;
  // Appends to the flight recorder and returns the record's id; called
  // concurrently from node threads. `detail` is recorded only in full-trace
  // mode (or for kCustom, whose payload IS the string). `cause`/`delay`/
  // `work` mirror Trace::record (obs/causal.h attribution).
  std::int64_t record_trace(TraceKind kind, NodeId node, std::int64_t arg,
                            const std::string& detail = std::string(),
                            std::int64_t cause = -1, double delay = 0.0,
                            double work = 0.0) EXCLUDES(trace_mutex_);
  // "edge=N <payload>" in full-trace mode, empty otherwise — so lite-mode
  // sends never pay for string formatting.
  std::string trace_detail(const Payload& payload, std::size_t edge) const;

  ThreadNetConfig config_;
  Rng root_rng_;
  std::vector<Slot> slots_;
  std::size_t next_slot_ = 0;  // add_node fills slots_ in index order
  Adjacency out_channels_;     // node -> edge indices
  Adjacency in_channels_;
  std::vector<std::size_t> in_index_of_edge_;
  MailItem::Clock::time_point start_time_{};
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> messages_delivered_{0};
  std::atomic<std::uint64_t> messages_dropped_{0};
  std::atomic<std::uint64_t> ticks_fired_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> cv_wakeups_{0};
  // Nodes currently inside an event handler; part of the quiescence
  // condition (a handler may still send).
  std::atomic<std::uint64_t> active_handlers_{0};
  // Nodes whose on_start has completed; quiescence is meaningless before
  // every node came up (a fresh network has sent nothing yet).
  std::atomic<std::size_t> nodes_started_{0};
  std::atomic<std::int64_t> next_timer_id_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  // Pure wakeup fence: no field is guarded by it — waiter predicates read
  // only the atomics above — so its whole job is the missed-wakeup pairing
  // in signal_progress()/wait_until(). The EXCLUDES contracts on those two
  // are what -Wthread-safety checks here.
  mutable AnnotatedMutex progress_mutex_;
  AnnotatedCondVar progress_cv_;
  // Flight recorder, shared by all node threads. Separate mutex from the
  // progress fence: trace records happen on every event, progress waits
  // only at the run boundary, and the two must not contend.
  mutable AnnotatedMutex trace_mutex_;
  Trace trace_ GUARDED_BY(trace_mutex_);
};

// Convenience harness mirroring core/harness.h on the thread runtime.
// (Thin shim over ThreadRuntime + the ring-election AlgorithmDriver; see
// runtime/runtime.h.)
struct ThreadedElectionResult {
  bool elected = false;
  std::size_t leader_index = 0;
  double election_time_sim = 0.0;
  std::uint64_t messages = 0;
  bool safety_ok = false;
};

// `clock_bounds` realises the drift band on real threads (one fixed rate
// per node drawn within the bounds); the default is ideal clocks.
// `loss_probability` injects per-attempt silent message loss.
ThreadedElectionResult run_threaded_election(
    std::size_t n, double a0, double mean_delay, std::uint64_t seed,
    double time_scale_us = 200.0,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(30000),
    ClockBounds clock_bounds = {}, double loss_probability = 0.0);

}  // namespace abe
