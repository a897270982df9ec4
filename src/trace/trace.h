// Structured event tracing: a bounded ring-buffer flight recorder.
//
// The trace is ALWAYS on at a small capacity (kFlightCapacity): every
// runtime keeps the most recent events of each trial, so a stalled or
// safety-violating trial can dump its recent history without anyone having
// pre-enabled tracing (run_algorithm_trial attaches the tail to the
// TrialOutcome). enable() switches to full mode — a much larger ring plus
// the free-form detail strings replay transcripts are made of.
//
// Cost model: the ring holds 64-byte, trivially copyable TraceRecords — the
// numeric fields only (time, kind, node, `arg` — edge index, timer tag,
// tick number… — id, cause, delay, work) — so a lite record allocates
// nothing and a copy of the whole Trace is one flat copy. Detail strings
// live in a side vector parallel to the ring that exists only once the
// first non-empty detail is recorded (full mode, Context::log); callers must
// not format detail strings unless enabled() says full mode. Per-kind counts
// are maintained incrementally, so count() is O(1) and monotonic since the
// last clear() — it keeps counting events the ring has already evicted.
// events(), filter() and for_node() materialise TraceEvents (records plus
// their details); readers on a hot path index the ring in place with at().
//
// Causality: every record() returns the new event's id (its position in the
// recorded-since-clear() sequence), and events may carry the id of the event
// that caused them — the SEND that produced a DELIVER, the handler that
// issued a SEND, the schedule site of a TIMER/TICK fire. Ids are dense, so
// as long as the causing event is still retained it sits at
// `id - at(0).id` in the ring; obs/causal.h rebuilds the happens-before
// chain from exactly that. All causal fields are POD — the lite
// flight-recorder mode stays allocation-free.
//
// Thread safety: none here. The simulator records single-threaded; the
// wall-clock runtimes wrap their Trace in an AnnotatedMutex
// (runtime/wall_net.h) and stamp records with mailbox delivery time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.h"
#include "util/ids.h"

namespace abe {

enum class TraceKind : std::uint8_t {
  kSend,
  kDeliver,
  kDrop,
  kTick,
  kTimer,
  kStateChange,
  kRoundStart,
  kCustom,
};

inline constexpr std::size_t kTraceKindCount = 8;

const char* trace_kind_name(TraceKind kind);

// One ring slot: everything about an event but its detail string.
struct TraceRecord {
  SimTime time = 0.0;
  NodeId node;          // primary node involved (receiver for deliveries)
  std::int64_t arg = -1;  // cheap numeric context (edge, tag, …); -1 = none
  std::int64_t id = -1;     // dense record index since clear(); set by push()
  std::int64_t cause = -1;  // id of the event that caused this one; -1 = root
  double delay = 0.0;  // DELIVER: channel-delay share of (time - cause.time)
  double work = 0.0;   // DELIVER: processing-time share; rest is queueing
  TraceKind kind = TraceKind::kCustom;
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(sizeof(TraceRecord) == 64);

// A record with its detail, as events(), filter() and for_node() return it.
struct TraceEvent : TraceRecord {
  std::string detail;  // free-form, e.g. "hop=3"; full mode only

  std::string to_string() const;
};

class Trace {
 public:
  // Always-on flight-recorder ring: large enough to reconstruct the last
  // few protocol rounds of a small cell, small enough to be free.
  static constexpr std::size_t kFlightCapacity = 256;
  // Full-mode ring: effectively unbounded for test-sized runs, bounded for
  // everything else (the old Trace grew a vector without limit).
  static constexpr std::size_t kFullCapacity = std::size_t{1} << 20;

  // Full mode: grows the ring to kFullCapacity and keeps detail strings.
  void enable() {
    enabled_ = true;
    if (capacity_ < kFullCapacity) set_capacity(kFullCapacity);
  }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Ring capacity (>= 1). Shrinking drops the oldest events.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  // Records an event and returns its id (dense since clear(), survives ring
  // eviction). The detail overload is for full-mode call sites (and log(),
  // whose payload IS the string); hot paths should pass numeric args only
  // unless enabled(). `cause` is the id of the causing event (-1 = root);
  // `delay`/`work` attribute a DELIVER's latency to channel and processing.
  std::int64_t record(SimTime time, TraceKind kind, NodeId node,
                      std::int64_t arg = -1, std::int64_t cause = -1,
                      double delay = 0.0, double work = 0.0);
  std::int64_t record(SimTime time, TraceKind kind, NodeId node,
                      std::string detail, std::int64_t arg = -1,
                      std::int64_t cause = -1, double delay = 0.0,
                      double work = 0.0);
  // Id the next record() will return; usable as a "current event" sentinel.
  std::int64_t next_id() const { return static_cast<std::int64_t>(recorded_); }

  // Events still held by the ring, oldest first.
  std::vector<TraceEvent> events() const;
  std::size_t size() const { return ring_.size(); }
  // The i-th oldest retained record (i < size()), read in place.
  const TraceRecord& at(std::size_t i) const { return ring_[slot(i)]; }
  void clear();

  // Retained events of one kind / touching one node, in order. O(retained),
  // which the ring bounds by capacity().
  std::vector<TraceEvent> filter(TraceKind kind) const;
  std::vector<TraceEvent> for_node(NodeId node) const;

  // Number of events of `kind` recorded since clear(), INCLUDING events the
  // ring has evicted. O(1) — maintained incrementally at record time.
  std::uint64_t count(TraceKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  // All events recorded since clear() / evicted from the ring.
  std::uint64_t total_recorded() const { return recorded_; }
  std::uint64_t evicted() const { return recorded_ - ring_.size(); }

  // Transcript of the retained events, one per line.
  std::string to_string() const;

 private:
  // The slot the next record goes to: appended while the ring grows, else
  // the oldest one, evicted (its detail cleared).
  TraceRecord& next_slot();
  std::size_t slot(std::size_t i) const {
    const std::size_t j = head_ + i;
    return j < ring_.size() ? j : j - ring_.size();
  }
  TraceEvent event_at(std::size_t i) const;

  bool enabled_ = false;
  std::size_t capacity_ = kFlightCapacity;
  // Ring storage: grows to capacity_, then wraps; head_ indexes the oldest
  // retained event once full.
  std::vector<TraceRecord> ring_;
  // Detail strings, slot for slot with ring_: empty until the first
  // non-empty detail since clear(), then exactly ring_.size() long.
  std::vector<std::string> details_;
  std::size_t head_ = 0;
  // Backing store of count(kind) and the "trace.recorded" snapshot row:
  // monotonic per-kind totals including evicted events, so count() is O(1)
  // regardless of ring wraparound.
  // abe-lint: allow(no-adhoc-counters)
  std::uint64_t counts_[kTraceKindCount] = {};
  std::uint64_t recorded_ = 0;
};

}  // namespace abe
