// The datagram path of the kUdp wall-clock runtime (runtime/wall_net.h):
// one loopback UDP socket per node, messages as real datagrams.
//
// Where the simulator ASSUMES bounded expected delay (Definition 1(1):
// sampled DelayModel) and kThread EMULATES it (due-time sleeps), kUdp runs
// the same algorithm code over a transport whose delay is a measured
// property: every datagram's real loopback transit (send → recv, monotonic
// clock) is recorded into the `udp.transit_us` histogram, and
// fit_udp_calibration() fits those measurements back into a DelayModel
// (shifted exponential) so simulated and real cells cross-validate on the
// same sweep.
//
// Per node: one UdpSocket (runtime/udp_socket.h — the only raw-socket
// site) plus a READER thread that blocks in receive(), translates wire
// headers into mailbox items and answers ACKs. The node's dispatcher
// (WallNetwork) pops them like any other mailbox item. The SEND record id
// rides the datagram so the DELIVER links back.
//
// Payloads are polymorphic C++ objects with no wire format (net/message.h),
// and every node lives in this process — so datagrams carry a fixed header
// (edge, seq, trace cause, timestamps) while the payload pointer crosses
// through an in-process table keyed by message id. The network path is
// real (kernel, loopback device, real loss under pressure); the payload
// hand-off is honestly in-memory. README § "Real-socket runtime" spells
// out the caveat.
//
// Reliability: RuntimeConfig::udp_reliable layers the net/arq.h
// retransmission logic onto every channel — per-edge sequence numbers,
// per-datagram ACKs, timeout retransmission with an attempt cap, receiver-
// side dedup (cumulative base + out-of-order set, duplicates re-ACKed) — so
// injected per-attempt loss degrades goodput instead of dropping messages,
// and `arq.rtt` records first-send→ack round trips. ACKs are immune to
// injected loss, mirroring the lossless-ack convention of
// run_arq_experiment (net/arq.h). Unreliable mode realises injected loss
// like kThread: the message is dropped before the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "net/delay.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "runtime/udp_socket.h"
#include "util/thread_annotations.h"

namespace abe {

class WallNetwork;

class UdpTransport {
 public:
  // Retransmission timeout in sim units (scaled to wall time like every
  // other delay). Exceeds the delay models' means by a few ×.
  static constexpr double kArqTimeout = 4.0;
  // Attempt cap per message: past it the sender gives up and counts the
  // message dropped, so a pathological channel cannot wedge quiescence.
  // With ACKs immune to injected loss, a capped message is (up to
  // astronomically unlikely kernel-drop streaks) genuinely undelivered.
  static constexpr int kArqMaxAttempts = 64;

  // Opens every node's socket, so every sender knows every port before the
  // first datagram — start() only spawns threads.
  explicit UdpTransport(WallNetwork& net);
  ~UdpTransport();
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Spawns the reader threads; stop() raises their stop flag and joins
  // them (each exits within one UdpSocket::kPollIntervalMs). Idempotent.
  void start();
  void stop();

  // Ships one message from `from`'s dispatcher thread: registers the
  // payload in the in-flight table and transmits its datagram (reliable
  // mode also records it in the ARQ ledger and arms its retransmit timer).
  void send(std::size_t from, std::size_t out_index, std::size_t edge,
            std::int64_t send_id, double delay_sim,
            std::shared_ptr<const Payload> payload);
  // Pops of the retransmit sentinel: rearm or give up. Dispatcher thread.
  void retransmit(std::size_t from, std::uint64_t msg_id);

  // The measured-delay histograms (udp.transit_us, arq.rtt in reliable
  // mode); metrics_snapshot() starts from these.
  MetricsSnapshot histograms() const { return registry_.snapshot(); }
  // The transport counters: udp.datagrams_tx/rx, acks_tx/rx, retransmits,
  // duplicates, attempt_drops, giveups, orphans.
  void add_counters(MetricsSnapshot& snap) const;

 private:
  struct Wire;  // fixed-size datagram header (udp_transport.cpp)

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

  struct Endpoint {
    std::unique_ptr<UdpSocket> socket;
    std::thread reader;
    // Reliable-mode transmit ledger, keyed by message id. Shared between
    // the dispatcher (send, retransmit, give-up) and the reader (ACK).
    AnnotatedMutex tx_mutex;
    std::map<std::uint64_t, PendingTx> unacked GUARDED_BY(tx_mutex);
    // Per-out-channel next sequence number (dispatcher thread only).
    std::vector<std::uint64_t> next_seq;
    // Per-in-channel dedup state (reader thread only).
    std::vector<RxChannel> rx;
  };

  void reader_main(std::size_t index);
  void handle_data(std::size_t index, const Wire& wire, std::int64_t recv_ns);
  void handle_ack(std::size_t index, const Wire& wire, std::int64_t recv_ns);
  // One DATA transmission attempt (initial or retransmission): draws the
  // per-attempt loss coin in reliable mode, stamps send_ns, sends the
  // datagram. Dispatcher thread only (the loss draw uses the node's rng).
  void transmit_data(std::size_t from, const Wire& wire);
  // Pushes the retransmission timer for `msg_id` into the sender's own
  // mailbox, due one kArqTimeout from now.
  void arm_retransmit(std::size_t from, std::uint64_t msg_id);

  WallNetwork& net_;
  const bool reliable_;
  std::vector<Endpoint> endpoints_;
  std::vector<std::uint16_t> port_of_;  // node index -> loopback port
  std::atomic<bool> stop_readers_{false};
  std::atomic<std::uint64_t> next_msg_id_{0};
  std::atomic<std::uint64_t> datagrams_tx_{0};
  std::atomic<std::uint64_t> datagrams_rx_{0};
  std::atomic<std::uint64_t> acks_tx_{0};
  std::atomic<std::uint64_t> acks_rx_{0};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> attempt_drops_{0};
  std::atomic<std::uint64_t> giveups_{0};
  std::atomic<std::uint64_t> orphan_datagrams_{0};
  // In-process payload hand-off: message id -> payload, inserted by the
  // sender before the datagram leaves, removed by the receiving reader at
  // delivery (or by the sender on reliable give-up).
  mutable AnnotatedMutex inflight_mutex_;
  std::map<std::uint64_t, std::shared_ptr<const Payload>> inflight_
      GUARDED_BY(inflight_mutex_);
  // Measured-delay instruments (thread-safe: FixedHistogram buckets are
  // atomic), always on: the whole point of this substrate is the
  // measurement. transit: one-way datagram transit in wall microseconds;
  // rtt: first-send -> ack round trip in sim units (reliable mode).
  MetricsRegistry registry_;
  FixedHistogram* transit_hist_ = nullptr;
  FixedHistogram* rtt_hist_ = nullptr;
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
