// EventQueue: the pluggable priority structure under the scheduler.
//
// The scheduler owns the event *records* (slab of actions, generation
// counts, EventId encoding — see sim/scheduler.h); an EventQueue owns only
// the priority structure over (time-bits, seq, slot) entries. The split
// keeps every backend oblivious to closures and handle lifetimes, so a
// backend is correct iff it pops entries in strict key order and can remove
// an entry by its slot index.
//
// Ordering contract: entries are popped in nondecreasing packed
// (time_bits, seq) order. `seq` values are unique, so the order is a strict
// total order and EVERY correct backend produces the bit-identical pop
// sequence — backend choice can never change a seeded simulation, only its
// wall-clock speed. The differential test (tests/test_equeue.cpp) drives
// all backends through one schedule/cancel/run trace and asserts exactly
// this.
//
// Key encoding: `time_bits` is the IEEE-754 bit pattern of a non-negative
// SimTime (canonicalized by the scheduler so -0.0 never reaches a backend),
// which orders identically to the double value; backends that need real
// time arithmetic (bucket indexing) convert back via entry_time().
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/equeue/backend.h"
#include "sim/time.h"

namespace abe {

struct QueueEntry {
  std::uint64_t time_bits = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

// Strict total order on the packed (time_bits, seq) key.
inline bool entry_earlier(const QueueEntry& a, const QueueEntry& b) {
#if defined(__SIZEOF_INT128__)
  using U128 = unsigned __int128;
  return ((U128(a.time_bits) << 64) | a.seq) <
         ((U128(b.time_bits) << 64) | b.seq);
#else
  if (a.time_bits != b.time_bits) return a.time_bits < b.time_bits;
  return a.seq < b.seq;  // FIFO among simultaneous events
#endif
}

// Pending events the scheduler's slab and the heap make room for up front:
// the whole pending set of a small trial (the n = 16 sweep cells peak at
// 16), so such a trial never regrows them. A constant, not a function of n:
// larger runs grow from here by doubling.
inline constexpr std::size_t kInitialPendingCapacity = 32;

inline SimTime entry_time(const QueueEntry& e) {
  SimTime t;
  std::memcpy(&t, &e.time_bits, sizeof(t));
  return t;
}

class EventQueue {
 public:
  virtual ~EventQueue() = default;

  // Inserts an entry. Slots are unique among live entries; times are >= the
  // time of the last popped entry (the scheduler's monotonicity guarantee,
  // which bucketed backends rely on for their consumed-prefix cursors).
  virtual void push(const QueueEntry& entry) = 0;

  // Minimum-key entry, or nullptr when empty. The pointer is valid only
  // until the next mutation. Backends may reorganize internal storage here
  // (the ladder queue materializes its bottom rung), so peek is non-const;
  // the entry set is never changed.
  virtual const QueueEntry* peek_min() = 0;

  // Removes and returns the minimum-key entry. Pre: !empty().
  virtual QueueEntry pop_min() = 0;

  // Removes the entry whose slot is `slot` (cancellation). O(log n) or
  // better. Pre: a live entry carries `slot` — the scheduler's slab checks
  // liveness and generation before delegating, which lets backends keep
  // stale per-slot bookkeeping across pops instead of paying a random
  // write to clear it on every pop. Returns false only when the backend
  // can cheaply tell the precondition was violated (a debugging aid, not a
  // contract — a violation may instead corrupt the queue).
  virtual bool erase_slot(std::uint32_t slot) = 0;

  // Moves every entry into `out` (appending, unspecified order) and leaves
  // the queue empty. Used for backend migration (auto heap -> ladder).
  virtual void drain_into(std::vector<QueueEntry>& out) = 0;

  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  // Stable backend identifier: "heap", "calendar" or "ladder".
  virtual const char* name() const = 0;
};

// Instantiates a concrete backend. `backend` must not be kAuto — the auto
// policy (threshold + migration) lives in the scheduler, not in a queue.
std::unique_ptr<EventQueue> make_event_queue(EqueueBackend backend);

}  // namespace abe
