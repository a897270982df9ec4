// Discrete-event scheduler: the heart of the simulator.
//
// Events are (time, sequence, closure) triples processed in nondecreasing
// time order; ties break by insertion sequence so runs are deterministic.
//
// Since the equeue subsystem landed, the scheduler is a thin policy layer:
// it owns the slab of event records (slot-indexed, free-listed, so the
// allocation high-water mark tracks the peak number of simultaneously live
// events) and delegates the priority structure to a pluggable EventQueue
// backend (sim/equeue/) selected at construction — the extracted 4-ary
// heap, a calendar queue, or a ladder queue. Records are generation
// counted, so a handle to an event that already ran or was cancelled can
// never touch the slot's next occupant, and every backend cancels by slot
// in O(log n) or better — no lazy-deletion tombstones accumulate under
// schedule/cancel churn (ARQ retransmission timers cancel nearly every
// event they schedule). Actions are stored inline in the record
// (InlineAction) — scheduling allocates nothing once the slab has grown to
// the workload's live size.
//
// Backend selection (see sim/equeue/backend.h and README "Event-queue
// backends"): an explicit EqueueBackend constructor argument, overridden
// process-wide by the ABE_EQUEUE environment variable; the default kAuto
// starts on the heap and migrates to the ladder queue once the pending set
// crosses kEqueueAutoThreshold (the ladder, not the calendar: a big
// simultaneous burst such as n on_start events at t = 0 collapses the
// calendar onto one day it must scan per pop, while the ladder absorbs it
// in one bottom sort). Pop order — and therefore every seeded trial — is
// bit-identical across backends.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/equeue/backend.h"
#include "sim/equeue/event_queue.h"
#include "sim/equeue/heap_queue.h"
#include "sim/inline_action.h"
#include "sim/time.h"
#include "util/ids.h"

namespace abe {

class Scheduler {
 public:
  using Action = InlineAction;

  // Backend per resolve_equeue_backend(requested): ABE_EQUEUE wins when
  // set, else `requested`. The default is the auto policy.
  explicit Scheduler(EqueueBackend requested = EqueueBackend::kAuto);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Current simulated time. Starts at 0.
  SimTime now() const { return now_; }

  // Schedules `action` at absolute time `when` (>= now). Returns a handle
  // usable with cancel().
  EventId schedule_at(SimTime when, Action action);

  // Schedules `action` after `delay` (>= 0) from now.
  EventId schedule_in(SimTime delay, Action action);

  // The handle the next schedule_at/schedule_in call will return. Lets a
  // caller capture the event's own id inside its action (timers do this) —
  // valid only until the next scheduler mutation.
  EventId peek_next_id() const;

  // Cancels a pending event. Returns false when the event already ran,
  // was cancelled before, or never existed — even if its record slot has
  // been reused by a newer event (generation counted).
  bool cancel(EventId id);

  // Runs events until the queue drains or stop is requested. Returns the
  // number of events processed by this call.
  std::uint64_t run();

  // Runs events with time <= deadline. Advances now() to `deadline` when no
  // live event at or before it remains (queue drained, or all pending events
  // are later); after request_stop() with such events still pending, now()
  // stays at the last processed event so they remain runnable. Returns the
  // number processed.
  std::uint64_t run_until(SimTime deadline);

  // Runs at most `max_events` events. Returns the number processed.
  std::uint64_t run_steps(std::uint64_t max_events);

  // Requests run()/run_until() to return after the current event completes.
  void request_stop() { stop_requested_ = true; }

  // True when no live (non-cancelled) events remain.
  bool idle() const { return q_size() == 0; }

  // Time of the next live event, or +inf when idle. O(1) on the heap
  // backend; amortized O(1) elsewhere. Non-const since the equeue
  // subsystem landed: bucketed backends may reorganize internal storage on
  // peek (the ladder materializes its bottom rung, the calendar caches the
  // minimum — which is also why peek-then-pop loops never pay twice).
  SimTime next_event_time() {
    const QueueEntry* top = q_peek();
    return top == nullptr ? kTimeInfinity : bits_to_time(top->time_bits);
  }

  // Number of live pending events.
  std::uint64_t live_count() const { return q_size(); }

  // Introspection alias for live_count(): the pending-set size, the
  // quantity backend selection keys on.
  std::uint64_t pending() const { return q_size(); }

  // Name of the ACTIVE queue backend: "heap", "calendar" or "ladder".
  // Under kAuto this changes from "heap" to "ladder" when the pending set
  // first crosses kEqueueAutoThreshold.
  const char* backend_name() const { return queue_->name(); }

  // Total events processed over the scheduler's lifetime (for metrics).
  std::uint64_t processed_count() const { return processed_; }

  // Lifetime schedule_at/schedule_in calls and successful cancels; together
  // with processed_count these are the scheduler rows of the obs metrics
  // snapshot (obs/metrics.h). Always-on plain counters: one add (plus one
  // compare for the high-water mark) per schedule is in the noise on
  // bench_e1_scheduler, which gates this file's hot path.
  std::uint64_t scheduled_count() const { return scheduled_; }
  std::uint64_t cancelled_count() const { return cancelled_; }
  // Largest pending-set size ever observed after a push.
  std::uint64_t queue_high_water() const { return queue_high_water_; }

  // Number of event records ever allocated: the high-water mark of
  // simultaneously live events, NOT of schedules. Tests assert this stays
  // bounded under schedule/cancel churn (the lazy-deletion design leaked a
  // tombstone per cancel).
  std::size_t slot_capacity() const { return slots_.size(); }

 private:
  // Event times are non-negative doubles, whose IEEE-754 bit patterns order
  // identically to their values; storing the bits lets the (time, seq) key
  // compare as one wide unsigned integer instead of two branchy FP tests.
  // The one non-negative value whose bits break that ordering is -0.0
  // (sign bit only — it would sort after +inf), and it does pass the
  // `when >= now_` guard, so canonicalize it to +0.0.
  static std::uint64_t time_to_bits(SimTime t) {
    std::uint64_t bits;
    std::memcpy(&bits, &t, sizeof(bits));
    return bits == (std::uint64_t{1} << 63) ? 0 : bits;
  }
  static SimTime bits_to_time(std::uint64_t bits) {
    SimTime t;
    std::memcpy(&t, &bits, sizeof(t));
    return t;
  }

  struct Slot {
    std::uint32_t gen = 0;
    bool live = false;
    Action action;
  };
  // Generations are clipped to 31 bits when encoded so EventId values stay
  // non-negative (TaggedId reserves negatives for "invalid").
  static constexpr std::uint32_t kGenMask = 0x7fffffffu;
  static constexpr std::uint32_t kMaxSlot = 0xffffffffu;

  static std::int64_t encode(std::uint32_t slot, std::uint32_t gen) {
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(gen & kGenMask) << 32) | slot);
  }

  // Returns the record slot to the free list.
  void release_slot(std::uint32_t slot);
  // Pops and executes the earliest event. Pre: !idle().
  void run_top();
  // kAuto policy: heap -> ladder migration past the threshold.
  void maybe_migrate();

  // Devirtualized queue access: the heap is the default backend of every
  // small simulation (the elections the repo benchmarks live on), so when
  // it is active the run loops go through `fast_heap_` — HeapQueue is
  // final with inline bodies, so these compile to the same code the
  // pre-equeue scheduler had. The branch predicts perfectly (the pointer
  // changes at most once, at auto-migration).
  std::size_t q_size() const {
    return fast_heap_ != nullptr ? fast_heap_->size() : queue_->size();
  }
  const QueueEntry* q_peek() {
    return fast_heap_ != nullptr ? fast_heap_->peek_min()
                                 : queue_->peek_min();
  }
  QueueEntry q_pop() {
    return fast_heap_ != nullptr ? fast_heap_->pop_min()
                                 : queue_->pop_min();
  }
  void q_push(const QueueEntry& entry) {
    if (fast_heap_ != nullptr) {
      fast_heap_->push(entry);
    } else {
      queue_->push(entry);
    }
  }
  bool q_erase(std::uint32_t slot) {
    return fast_heap_ != nullptr ? fast_heap_->erase_slot(slot)
                                 : queue_->erase_slot(slot);
  }

  SimTime now_ = kTimeZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t queue_high_water_ = 0;
  bool stop_requested_ = false;
  bool auto_backend_ = false;  // still eligible to migrate

  std::unique_ptr<EventQueue> queue_;
  HeapQueue* fast_heap_ = nullptr;  // == queue_.get() iff the heap is active
  std::vector<Slot> slots_;          // slab of event records
  std::vector<std::uint32_t> free_;  // recycled record slots
};

}  // namespace abe
