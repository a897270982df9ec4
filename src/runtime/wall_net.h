// Wall-clock runtime: one dispatcher thread per node, blocking mailboxes,
// wall-clock delays. WallRuntime adapts it to the unified Runtime contract
// (runtime/runtime.h) for both wall-clock kinds; algorithm code reaches it
// through the same Node/Context interface the simulator provides, so the
// exact same node objects run on every substrate.
//
// One simulated time unit maps to `time_scale_us` microseconds of wall
// time. Local clocks are wall clocks scaled by a per-node fixed drift rate
// within the configured bounds. Failure injection mirrors the simulator:
// per-attempt silent loss (drops counted in messages_dropped()) and
// congestion-degraded delays (wrap the DelayModel with FailureProfile::apply
// before handing it in). Definition 1(3) processing time is realised
// literally: the dispatcher sleeps for the sampled handling time before
// processing a delivered message.
//
// The two kinds differ only in how a sent message reaches the receiver's
// mailbox:
//   * kThread EMULATES bounded expected delay: the sender pushes the
//     message straight into the receiver's mailbox, due one sampled delay
//     from now — an honest (if small-scale) physical realisation of the ABE
//     model, used as a fidelity check on the simulator's conclusions;
//   * kUdp MEASURES it: the message crosses a real loopback datagram
//     (runtime/udp_transport.h — sockets, reader threads, wire header, ARQ
//     reliable mode) and every transit lands in the `udp.transit_us`
//     histogram that fit_udp_calibration() fits back into a DelayModel.
// Everything else — contexts, clocks, the dispatcher loop, causal trace
// links, net.* counters, waits and the metrics harvest — is shared, so
// AlgorithmDrivers, `abe_scenarios trace` and critical-path extraction work
// identically on both.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/node.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "trace/trace.h"
#include "util/thread_annotations.h"

namespace abe {

class UdpTransport;

class WallNetwork {
 public:
  // `kind` is kThread or kUdp. Reads the environment straight from
  // RuntimeConfig; the simulator-only knobs (ordering, equeue, timeseries)
  // and the adapter's budget (deadline, wall_timeout_ms) are ignored here,
  // and udp_reliable only applies to kUdp.
  WallNetwork(RuntimeKind kind, RuntimeConfig config);
  ~WallNetwork();
  WallNetwork(const WallNetwork&) = delete;
  WallNetwork& operator=(const WallNetwork&) = delete;

  RuntimeKind kind() const { return kind_; }

  // Installs nodes (same contract as Network).
  void add_node(NodePtr node);
  void build_nodes(const std::function<NodePtr(std::size_t)>& factory);

  // Spawns the dispatcher threads (after the udp readers) and delivers
  // on_start on each node's dispatcher thread.
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

  std::size_t size() const { return config_.plan->size(); }
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
  // The single monotonic-clock read start() took; WallRuntime derives its
  // wall deadline from it so budget arithmetic and now_sim() share one
  // origin (one clock read point per phase).
  MailItem::Clock::time_point start_time() const { return start_time_; }

  // Copy of the flight recorder (trace/trace.h): always-on ring of recent
  // events, stamped with mailbox DELIVERY time (now_sim() at pop), so the
  // transcript orders events the way the node experienced them, not the
  // way producers enqueued them. RuntimeConfig::trace switches it to the
  // full-detail ring the CrossRuntimeParity transcript checks read.
  Trace trace_copy() const EXCLUDES(trace_mutex_);

  // Deterministic-by-name harvest mirroring Network::metrics_snapshot():
  // net.* counters shared with the simulator plus `thread.*` or `udp.*`
  // rows (CV wakeups, mailbox high-water, per-node handler time when
  // RuntimeConfig::metrics is on) and, on kUdp, the transport rows. Values
  // are wall-clock facts, so unlike simulator snapshots they are not
  // bit-reproducible across runs.
  MetricsSnapshot metrics_snapshot() const EXCLUDES(trace_mutex_);

 private:
  friend class UdpTransport;
  class WallContext;

  // Mailbox timer_id sentinels (user timers are nonnegative): the local
  // tick generator, and the udp ARQ retransmission timer whose tag carries
  // the pending message id.
  static constexpr std::int64_t kTickTimerId = -1;
  static constexpr std::int64_t kRetransmitTimerId = -2;

  struct Slot {
    NodePtr node;
    std::unique_ptr<Mailbox> mailbox;
    std::unique_ptr<WallContext> context;
    std::thread dispatcher;
    Rng rng;  // dispatcher-thread substream (delay/loss/processing draws)
    double clock_rate = 1.0;
    // Trace id of the event this node's dispatcher is currently handling
    // (-1 outside handlers). Like `rng`, touched only by the dispatcher:
    // sends stamp it as their cause, pops overwrite it.
    std::int64_t current_cause = -1;
    std::atomic<bool> terminated{false};
    // Nanoseconds spent inside event handlers (metrics mode only). Written
    // by the dispatcher, read by metrics_snapshot().
    std::atomic<std::uint64_t> handler_ns{0};
  };

  void dispatcher_main(std::size_t index);
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

  RuntimeKind kind_;
  RuntimeConfig config_;
  Rng root_rng_;
  std::vector<Slot> slots_;
  std::size_t next_slot_ = 0;  // add_node fills slots_ in index order
  // The datagram path (kUdp only); null for kThread.
  std::unique_ptr<UdpTransport> udp_;
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

// ---------------------------------------------------------------------------
// Runtime adapter (kThread and kUdp)

class WallRuntime final : public Runtime {
 public:
  WallRuntime(RuntimeKind kind, RuntimeConfig config);

  RuntimeKind kind() const override { return net_.kind(); }
  std::size_t size() const override { return net_.size(); }
  void build_nodes(
      const std::function<NodePtr(std::size_t)>& factory) override;
  void start() override;
  bool run_until_done(const std::function<bool()>& done,
                      SimTime deadline) override;
  void run_for(SimTime duration) override;
  bool drain(SimTime max_wait) override;
  void stop() override;
  SimTime now() const override;
  bool terminated(std::size_t i) const override { return net_.terminated(i); }
  Node& node(std::size_t i) override { return net_.node(i); }
  RunStats stats() const override;
  MetricsSnapshot metrics_snapshot() const override {
    return net_.metrics_snapshot();
  }
  Trace trace_snapshot() const override { return net_.trace_copy(); }

 private:
  // Wall time for a wait of `sim` more units (kTimeInfinity: unbounded),
  // capped by what is left of the per-trial budget and floored at 1 ms so
  // waits with an exhausted budget still poll the predicate once.
  std::chrono::milliseconds budget_for(SimTime sim) const;

  double time_scale_us_;
  double wall_timeout_ms_;
  WallNetwork net_;
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool started_ = false;
  bool stopped_ = false;
  SimTime stop_time_ = 0.0;
};

}  // namespace abe
