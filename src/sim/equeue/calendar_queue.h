// Calendar queue backend: O(1)-amortized event queue for large pending sets.
//
// ============================================================================
// How a calendar queue works, and how this one tunes its bucket width
// ============================================================================
//
// Think of a wall calendar: `nbuckets` "days" of width `width` time units
// each make up a "year" of nbuckets*width units. An event at time t belongs
// to virtual day vb = floor(t / width); it is stored in physical bucket
// vb mod nbuckets, so every day of every future year has a place on the one
// wall. Pop keeps a cursor on the current day and scans it for the earliest
// entry OF THAT DAY (entries stored for the same physical bucket but a
// later year are skipped); when the day is exhausted the cursor flips to
// the next one. Push drops an entry into its day in O(1). As long as the
// pending set is spread over at least a few days and each day holds O(1)
// events, every operation is O(1) amortized — this is Brown's classic
// calendar queue [CACM 1988], the structure PeerNet-style simulators use
// for large peer populations.
//
// Bucket-width tuning is what makes or breaks the structure:
//
//   * Width too LARGE (many events per day): pop degenerates into a linear
//     scan of a huge day — the queue becomes an unsorted list.
//   * Width too SMALL (days mostly empty): pop spends its time flipping the
//     cursor over empty days; worse, a whole pending set that fits in one
//     year when sized right now spans many years, so each physical bucket
//     mixes events of many years and the scan filters most of them out.
//
// The sweet spot puts a small constant number of events in each occupied
// day — in the region pops actually visit. This implementation retunes on
// every resize by measuring the mean gap NEAR THE QUEUE HEAD (the spacing
// of the 64 smallest live times, Brown's sampling recast over the live
// set) and setting
//
//     width = kEventsPerBucket * head_gap
//
// A global spread/size estimate would be an order of magnitude too wide
// for the distributions the simulator actually produces: exponential
// remaining delays cluster mass near now(), so the head's local density —
// not the average density — is what the pop scan pays for. Degenerate
// heads (simultaneous events) fall back to spread/size, then to width 1.
//
// Meanwhile nbuckets is held in a band around size/4 (grow at
// size > 8*nbuckets, shrink at size < 2*nbuckets): a few temporal days
// share one physical bucket, which keeps the bucket-header array small
// enough to stay cache-resident at 65k pending — at that scale the
// header walk, not the day scan, is the bottleneck. Far-future events
// wrap around the year and mix into near-term physical buckets; the scan
// filters them by each entry's cached virtual day, and the year length
// stays a small multiple of the head region, so the mixing tax is a few
// percent per scan. Re-tuning cost is amortized against the
// doubling/halving that triggered it.
//
// Degenerate inputs stay correct (only slower): zero spread (all events
// simultaneous) pins width to 1 so everything lands on one day and pop
// degrades to a scan of equal-time events. A simultaneous burst is thus one
// day and costs O(size) per pop, O(k^2) to drain k events — the shape of
// Network::start() in a large trial (n on_start events at t = 0), and the
// reason kAuto migrates to the ladder queue instead (measured in
// sim/equeue/backend.h). Infinite times clamp to the last virtual day
// (monotone, so ordering is preserved); a pending set entirely beyond the
// cursor's current year falls back to a full-wall scan that re-anchors the
// cursor.
//
// Cancellation is O(1): a per-slot locator (bucket, index) lets erase_slot
// swap-remove the entry directly. A one-entry min cache makes the common
// peek-then-pop sequence of the scheduler's run loops cost one day-scan
// instead of two.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/equeue/event_queue.h"

namespace abe {

class CalendarQueue final : public EventQueue {
 public:
  CalendarQueue();

  void push(const QueueEntry& entry) override;
  const QueueEntry* peek_min() override;
  QueueEntry pop_min() override;
  bool erase_slot(std::uint32_t slot) override;
  void drain_into(std::vector<QueueEntry>& out) override;
  std::size_t size() const override { return size_; }
  const char* name() const override { return "calendar"; }

 private:
  struct Item {
    QueueEntry entry;
    std::uint64_t vb = 0;  // virtual day, cached so scans never re-divide
  };
  struct Locator {
    std::uint32_t bucket = kNullBucket;
    std::uint32_t index = 0;
  };
  static constexpr std::uint32_t kNullBucket = 0xffffffffu;
  // Target mean occupancy of a day (see tuning block above). 3 is Brown's
  // classic constant: days stay cheap to scan yet mostly non-empty.
  static constexpr double kEventsPerBucket = 3.0;
  static constexpr std::size_t kMinBuckets = 16;
  // Virtual-day clamp: keeps t/width finite-arithmetic safe and leaves
  // room to add nbuckets without overflow. Monotone (applied to the
  // largest times only), so ordering survives the clamp.
  static constexpr std::uint64_t kMaxVb = std::uint64_t{1} << 62;

  std::uint64_t virtual_bucket(SimTime t) const;
  Locator& locator_of(std::uint32_t slot);
  void insert_item(const Item& item);
  void remove_at(std::uint32_t bucket, std::uint32_t index);
  // Finds the minimum-key entry (cursor scan with full-wall fallback) and
  // caches it. Pre: size_ > 0.
  const QueueEntry* find_min();
  // Re-tunes width to the live spread and rebuilds with `nbuckets` days.
  void rebuild(std::size_t nbuckets);
  void maybe_resize();

  std::vector<std::vector<Item>> buckets_;
  std::vector<Locator> locators_;  // slot -> position
  std::size_t size_ = 0;
  double width_ = 1.0;
  double inv_width_ = 1.0;  // 1/width_: multiply, not divide, on every push
  std::uint64_t bucket_mask_ = 0;  // nbuckets - 1 (power of two)
  // No live entry has a virtual day earlier than this cursor.
  std::uint64_t cursor_vb_ = 0;
  QueueEntry cached_min_{};
  bool cached_min_valid_ = false;
};

}  // namespace abe
