// Real-socket runtime: one loopback UDP socket per node, messages as real
// datagrams. The third implementation of the unified Runtime contract
// (runtime/runtime.h), next to the discrete-event simulator and the
// thread runtime.
//
// Where the simulator ASSUMES bounded expected delay (Definition 1(1):
// sampled DelayModel) and the thread runtime EMULATES it (due-time sleeps),
// this substrate runs the same algorithm code over a transport whose delay
// is a measured property: every datagram's real loopback transit
// (send → recv, monotonic clock) is recorded into the `udp.transit_us`
// histogram, and fit_udp_calibration() fits those measurements back into a
// DelayModel (shifted exponential) so simulated and real cells
// cross-validate on the same sweep.
//
// Per node: one UdpSocket (runtime/udp_socket.h — the only raw-socket
// site) plus two threads. The READER blocks in receive(), translates wire
// headers into mailbox items and answers ACKs; the DISPATCHER pops the
// node's Mailbox in due-time order and drives the algorithm exactly like
// ThreadNetwork::thread_main — same Node/Context interface, same causal
// trace links (the SEND record id rides the datagram so the DELIVER links
// back), same net.* counters, so AlgorithmDrivers, `abe_scenarios trace`
// and critical-path extraction work on real packets unchanged.
//
// Payloads are polymorphic C++ objects with no wire format (net/message.h),
// and every node lives in this process — so datagrams carry a fixed header
// (edge, seq, trace cause, timestamps) while the payload pointer crosses
// through an in-process table keyed by message id. The network path is
// real (kernel, loopback device, real loss under pressure); the payload
// hand-off is honestly in-memory. README § "Real-socket runtime" spells
// out the caveat.
//
// Reliability: `reliable` layers the net/arq.h retransmission logic onto
// every channel — per-edge sequence numbers, per-datagram ACKs, timeout
// retransmission with an attempt cap, receiver-side dedup (cumulative
// base + out-of-order set, duplicates re-ACKed) — so injected per-attempt
// loss degrades goodput instead of dropping messages, and `arq.rtt`
// records first-send→ack round trips. Unreliable mode mirrors the thread
// runtime: per-attempt Bernoulli loss drops the message before the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "clock/local_clock.h"
#include "net/delay.h"
#include "net/node.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/mailbox.h"
#include "runtime/runtime.h"
#include "runtime/udp_socket.h"
#include "trace/trace.h"
#include "util/thread_annotations.h"

namespace abe {

struct UdpNetConfig {
  Topology topology;
  DelayModelPtr delay;               // per-channel delay (sim units)
  // When set, the adversary chooses every message's delay instead of
  // sampling `delay` (net/delay.h). Same contract as ThreadNetConfig.
  AdversaryPolicyPtr adversary_delay;
  double time_scale_us = 1000.0;     // wall microseconds per sim unit
  // Clock-drift band, realised exactly like the thread runtime: one fixed
  // rate per node within the bounds (kPiecewiseRandom is rejected — wall
  // clocks cannot wander on demand).
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kFixedRandomRate;
  ProcessingModel processing = ProcessingModel::zero();
  // Per-attempt silent drop. Unreliable mode: the message is lost
  // (counted in messages_dropped, kDrop trace). Reliable mode: the DATA
  // datagram attempt is suppressed (udp.attempt_drops) and the ARQ layer
  // retransmits; ACKs are immune to injected loss, mirroring the lossless-
  // ack convention of run_arq_experiment (net/arq.h).
  double loss_probability = 0.0;
  // Per-channel ARQ reliable mode (see file comment).
  bool reliable = false;
  // Retransmission timeout in sim units (scaled to wall time like every
  // other delay). Should exceed the delay model's mean by a few ×.
  double arq_timeout = 4.0;
  // Attempt cap per message: past it the sender gives up and counts the
  // message dropped, so a pathological channel cannot wedge quiescence.
  // With ACKs immune to injected loss, a capped message is (up to
  // astronomically unlikely kernel-drop streaks) genuinely undelivered.
  int arq_max_attempts = 64;
  bool enable_ticks = false;
  double tick_local_period = 1.0;    // in sim units, on the local clock
  std::uint64_t seed = 1;
  bool trace = false;
  bool causal_history = false;
  bool metrics = false;
};

class UdpNetwork {
 public:
  explicit UdpNetwork(UdpNetConfig config);
  ~UdpNetwork();
  UdpNetwork(const UdpNetwork&) = delete;
  UdpNetwork& operator=(const UdpNetwork&) = delete;

  // Installs nodes (same contract as ThreadNetwork).
  void add_node(NodePtr node);
  void build_nodes(const std::function<NodePtr(std::size_t)>& factory);

  // Spawns reader + dispatcher threads and delivers on_start on each
  // node's dispatcher thread.
  void start();

  // Same contract and thread-safety requirements as
  // ThreadNetwork::wait_until / wait_quiescent.
  bool wait_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout) EXCLUDES(progress_mutex_);
  bool wait_quiescent(std::chrono::milliseconds timeout);

  // Closes mailboxes, raises the reader stop flag, joins all threads.
  // Idempotent; also runs on destruction.
  void stop();

  std::size_t size() const { return config_.topology.n; }
  // Only safe after stop(): node state is owned by its dispatcher thread.
  Node& node(std::size_t i);
  bool terminated(std::size_t i) const;

  std::uint64_t messages_sent() const { return messages_sent_.load(); }
  std::uint64_t messages_delivered() const {
    return messages_delivered_.load();
  }
  std::uint64_t messages_dropped() const { return messages_dropped_.load(); }
  std::uint64_t ticks_fired() const { return ticks_fired_.load(); }
  // Wall time since start(), in sim units.
  double now_sim() const;
  // The single monotonic-clock read start() took: wall deadlines derived
  // from it share now_sim()'s origin (one read point per phase —
  // UdpRuntime/ThreadRuntime both build their budgets from this).
  MailItem::Clock::time_point start_time() const { return start_time_; }

  // Flight-recorder copy; DELIVER records stamped with mailbox delivery
  // time, identical to ThreadNetwork::trace_copy().
  Trace trace_copy() const EXCLUDES(trace_mutex_);

  // net.* counters shared with both other substrates plus udp.* transport
  // rows (datagram/ack/retransmit/duplicate counts, the measured
  // udp.transit_us histogram, arq.rtt in reliable mode). Wall-clock facts:
  // not bit-reproducible across runs.
  MetricsSnapshot metrics_snapshot() const EXCLUDES(trace_mutex_);

 private:
  class UdpContext;

  // Mailbox timer_id sentinels (user timers are nonnegative): the local
  // tick generator, and the ARQ retransmission timer whose tag carries the
  // pending message id.
  static constexpr std::int64_t kTickTimerId = -1;
  static constexpr std::int64_t kRetransmitTimerId = -2;

  // A message the reliable layer has transmitted but not yet seen ACKed.
  struct PendingTx {
    std::size_t edge = 0;
    std::uint64_t seq = 0;
    std::size_t to = 0;
    std::int64_t send_id = -1;   // SEND trace record (kDrop cause on give-up)
    double delay_sim = 0.0;
    std::int64_t first_send_ns = 0;  // arq.rtt base
    int attempts = 0;
  };

  // Receiver-side dedup state for one in-channel (reader thread only):
  // sequences <= cum_delivered plus the out-of-order set have been
  // delivered; anything else is new.
  struct RxChannel {
    std::uint64_t cum_delivered = 0;
    std::set<std::uint64_t> delivered_ahead;
  };

  struct Slot {
    NodePtr node;
    std::unique_ptr<UdpSocket> socket;
    std::unique_ptr<Mailbox> mailbox;
    std::unique_ptr<UdpContext> context;
    std::thread dispatcher;
    std::thread reader;
    Rng rng;  // dispatcher-thread substream (delay/loss/processing draws)
    double clock_rate = 1.0;
    // Trace id of the event the dispatcher is currently handling; like
    // `rng`, touched only by the dispatcher thread.
    std::int64_t current_cause = -1;
    std::atomic<bool> terminated{false};
    std::atomic<std::uint64_t> handler_ns{0};
    // Reliable-mode transmit ledger, keyed by message id. Shared between
    // the dispatcher (send, retransmit, give-up) and the reader (ACK).
    AnnotatedMutex tx_mutex;
    std::map<std::uint64_t, PendingTx> unacked GUARDED_BY(tx_mutex);
    // Per-out-channel next sequence number (dispatcher thread only).
    std::vector<std::uint64_t> next_seq;
    // Per-in-channel dedup state (reader thread only).
    std::vector<RxChannel> rx;
  };

  struct UdpWire;  // fixed-size datagram header (udp_runtime.cpp)

  void dispatcher_main(std::size_t index);
  void reader_main(std::size_t index);
  void handle_data(std::size_t index, const UdpWire& wire,
                   std::int64_t recv_ns);
  void handle_ack(std::size_t index, const UdpWire& wire,
                  std::int64_t recv_ns);
  // One DATA transmission attempt (initial or retransmission): draws the
  // per-attempt loss coin in reliable mode, stamps send_ns, sends the
  // datagram. Dispatcher thread only (the loss draw uses slot.rng).
  void transmit_data(std::size_t from, const UdpWire& wire);
  // Pushes the retransmission timer for `msg_id` into the sender's own
  // mailbox, due one arq_timeout from now.
  void arm_retransmit(std::size_t from, std::uint64_t msg_id);
  // Pops of the retransmit sentinel: rearm or give up. Dispatcher thread.
  void handle_retransmit(std::size_t index, std::uint64_t msg_id);
  void signal_progress() EXCLUDES(progress_mutex_);
  MailItem::Clock::time_point sim_to_wall(double sim_delay_from_now) const;
  std::int64_t record_trace(TraceKind kind, NodeId node, std::int64_t arg,
                            const std::string& detail = std::string(),
                            std::int64_t cause = -1, double delay = 0.0,
                            double work = 0.0) EXCLUDES(trace_mutex_);
  std::string trace_detail(const Payload& payload, std::size_t edge) const;

  UdpNetConfig config_;
  Rng root_rng_;
  std::vector<Slot> slots_;
  std::vector<std::uint16_t> port_of_;  // node index -> loopback port
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
  // Transport-level tallies, harvested as udp.* metrics_snapshot() rows
  // (datagrams_tx/rx, acks_tx/rx, retransmits, duplicates, attempt_drops,
  // giveups, orphans).
  std::atomic<std::uint64_t> datagrams_tx_{0};
  std::atomic<std::uint64_t> datagrams_rx_{0};
  std::atomic<std::uint64_t> acks_tx_{0};
  std::atomic<std::uint64_t> acks_rx_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> attempt_drops_{0};
  std::atomic<std::uint64_t> giveups_{0};
  std::atomic<std::uint64_t> orphan_datagrams_{0};
  std::atomic<std::uint64_t> active_handlers_{0};
  std::atomic<std::size_t> nodes_started_{0};
  std::atomic<std::int64_t> next_timer_id_{0};
  std::atomic<std::uint64_t> next_msg_id_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> stop_readers_{false};
  // In-process payload hand-off: message id -> payload, inserted by the
  // sender before the datagram leaves, removed by the receiving reader at
  // delivery (or by the sender on unreliable drop / reliable give-up).
  mutable AnnotatedMutex inflight_mutex_;
  std::map<std::uint64_t, std::shared_ptr<const Payload>> inflight_
      GUARDED_BY(inflight_mutex_);
  // Measured-delay instruments (thread-safe: FixedHistogram buckets are
  // atomic). transit: one-way datagram transit in wall microseconds;
  // rtt: first-send -> ack round trip in sim units (reliable mode).
  MetricsRegistry registry_;
  FixedHistogram* transit_hist_ = nullptr;
  FixedHistogram* rtt_hist_ = nullptr;
  // Pure wakeup fence, same contract as ThreadNetwork::progress_mutex_.
  mutable AnnotatedMutex progress_mutex_;
  AnnotatedCondVar progress_cv_;
  mutable AnnotatedMutex trace_mutex_;
  Trace trace_ GUARDED_BY(trace_mutex_);
};

// ---------------------------------------------------------------------------
// Runtime adapter

class UdpRuntime final : public Runtime {
 public:
  explicit UdpRuntime(RuntimeConfig config);

  RuntimeKind kind() const override { return RuntimeKind::kUdp; }
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

  UdpNetwork& udp_network() { return net_; }

 private:
  static UdpNetConfig to_udp_config(const RuntimeConfig& config);
  double remaining_budget_ms() const;

  double time_scale_us_;
  double wall_timeout_ms_;
  UdpNetwork net_;
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool started_ = false;
  bool stopped_ = false;
  SimTime stop_time_ = 0.0;
};

// ---------------------------------------------------------------------------
// Calibration: measured loopback delay -> DelayModel parameters

// Shifted-exponential fit of the `udp.transit_us` histogram in a harvested
// snapshot: offset = the 5th-percentile transit (the deterministic kernel
// floor), mean_extra = histogram mean above that offset. The measured
// analogue of Definition 1(1)'s expected-delay bound — feed to_delay_model
// back into a simulator cell to cross-validate against real transport.
struct UdpCalibration {
  bool ok = false;              // histogram present with nonzero samples
  std::uint64_t samples = 0;
  double offset_us = 0.0;       // fitted minimum transit (wall us)
  double mean_extra_us = 0.0;   // fitted mean above the offset (wall us)

  // The fitted model in sim units under `time_scale_us`
  // (shifted_exponential_delay, net/delay.h). ok must hold.
  DelayModelPtr to_delay_model(double time_scale_us) const;
};

UdpCalibration fit_udp_calibration(const MetricsSnapshot& snapshot);

}  // namespace abe
