#include "trace/trace.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace abe {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSend:
      return "SEND";
    case TraceKind::kDeliver:
      return "DELIVER";
    case TraceKind::kDrop:
      return "DROP";
    case TraceKind::kTick:
      return "TICK";
    case TraceKind::kTimer:
      return "TIMER";
    case TraceKind::kStateChange:
      return "STATE";
    case TraceKind::kRoundStart:
      return "ROUND";
    case TraceKind::kCustom:
      return "CUSTOM";
  }
  return "?";
}

std::string TraceEvent::to_string() const {
  std::ostringstream os;
  os << "[t=" << time << "] " << trace_kind_name(kind) << " node=" << node;
  if (!detail.empty()) {
    os << " " << detail;
  } else if (arg >= 0) {
    os << " arg=" << arg;
  }
  if (cause >= 0) os << " <-#" << cause;
  return os.str();
}

void Trace::set_capacity(std::size_t capacity) {
  ABE_CHECK_GE(capacity, std::size_t{1});
  if (capacity == capacity_) return;
  // Re-linearize so the invariants (head_ = oldest, append at head_ when
  // full) hold for the new capacity; keeps the newest events on shrink.
  const std::size_t keep = std::min(ring_.size(), capacity);
  const std::size_t first = ring_.size() - keep;
  std::vector<TraceRecord> ring;
  ring.reserve(keep);
  std::vector<std::string> details;
  details.reserve(details_.empty() ? 0 : keep);
  for (std::size_t i = first; i < ring_.size(); ++i) {
    ring.push_back(ring_[slot(i)]);
    if (!details_.empty()) details.push_back(std::move(details_[slot(i)]));
  }
  ring_ = std::move(ring);
  details_ = std::move(details);
  head_ = 0;
  capacity_ = capacity;
}

std::int64_t Trace::record(SimTime time, TraceKind kind, NodeId node,
                           std::int64_t arg, std::int64_t cause, double delay,
                           double work) {
  const auto id = static_cast<std::int64_t>(recorded_);
  // Field by field: assigning a whole temporary makes the compiler stage it
  // on the stack and copy it with overlapping loads.
  TraceRecord& r = next_slot();
  r.time = time;
  r.node = node;
  r.arg = arg;
  r.id = id;
  r.cause = cause;
  r.delay = delay;
  r.work = work;
  r.kind = kind;
  counts_[static_cast<std::size_t>(kind)] += 1;
  recorded_ += 1;
  return id;
}

std::int64_t Trace::record(SimTime time, TraceKind kind, NodeId node,
                           std::string detail, std::int64_t arg,
                           std::int64_t cause, double delay, double work) {
  const std::int64_t id = record(time, kind, node, arg, cause, delay, work);
  if (!detail.empty()) {
    // The first detail since clear() gives every other retained record an
    // empty one; from then on details_ stays slot-parallel to ring_ and
    // the resize is a no-op. It grows with ring_, one reserve per ring
    // growth (next_slot).
    if (details_.empty()) details_.reserve(ring_.capacity());
    details_.resize(ring_.size());
    details_[slot(ring_.size() - 1)] = std::move(detail);
  }
  return id;
}

TraceRecord& Trace::next_slot() {
  if (ring_.size() < capacity_) {
    if (ring_.size() == ring_.capacity()) {
      // The first growth allocates a whole flight ring at once.
      ring_.reserve(std::min(capacity_,
                             std::max(kFlightCapacity, 2 * ring_.size())));
      if (!details_.empty()) details_.reserve(ring_.capacity());
    }
    if (!details_.empty()) details_.emplace_back();
    return ring_.emplace_back();
  }
  TraceRecord& oldest = ring_[head_];
  if (!details_.empty()) details_[head_].clear();
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  return oldest;
}

TraceEvent Trace::event_at(std::size_t i) const {
  const std::size_t s = slot(i);
  return TraceEvent{ring_[s], details_.empty() ? std::string() : details_[s]};
}

std::vector<TraceEvent> Trace::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(event_at(i));
  return out;
}

void Trace::clear() {
  ring_.clear();
  details_.clear();
  head_ = 0;
  recorded_ = 0;
  std::fill(std::begin(counts_), std::end(counts_), 0);
}

std::vector<TraceEvent> Trace::filter(TraceKind kind) const {
  std::vector<TraceEvent> out;
  // The per-kind count includes evicted events, so the retained ring size
  // caps it; reserving the min avoids every regrowth copy without ever
  // over-allocating past the ring.
  out.reserve(std::min<std::size_t>(
      counts_[static_cast<std::size_t>(kind)], ring_.size()));
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (at(i).kind == kind) out.push_back(event_at(i));
  }
  return out;
}

std::vector<TraceEvent> Trace::for_node(NodeId node) const {
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (at(i).node == node) out.push_back(event_at(i));
  }
  return out;
}

std::string Trace::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    os << event_at(i).to_string() << "\n";
  }
  return os.str();
}

}  // namespace abe
