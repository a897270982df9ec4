#include "obs/causal.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace abe {

namespace {

bool is_handler_kind(TraceKind kind) {
  return kind == TraceKind::kDeliver || kind == TraceKind::kTimer ||
         kind == TraceKind::kTick;
}

}  // namespace

std::vector<EdgeShare> CriticalPath::edge_shares() const {
  // One entry per DELIVER hop, sorted by (edge, chain position) — `hops`
  // holds the position until the runs are folded — so each run of equal
  // edges sums its delays in chain order. Folding runs in place leaves one
  // allocation, sized by the chain.
  std::vector<EdgeShare> out;
  out.reserve(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const CriticalPathHop& hop = chain[i];
    if (hop.kind != TraceKind::kDeliver || hop.arg < 0) continue;
    out.push_back(EdgeShare{hop.arg, i, hop.delay});
  }
  std::sort(out.begin(), out.end(), [](const EdgeShare& a, const EdgeShare& b) {
    return a.edge != b.edge ? a.edge < b.edge : a.hops < b.hops;
  });
  std::size_t runs = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const EdgeShare hop = out[i];  // out[runs] may be this very entry
    if (runs == 0 || hop.edge != out[runs - 1].edge) {
      out[runs++] = EdgeShare{hop.edge, 0, 0.0};
    }
    out[runs - 1].hops += 1;
    out[runs - 1].delay += hop.delay;
  }
  out.resize(runs);
  return out;
}

std::string CriticalPath::render() const {
  std::ostringstream os;
  os.precision(6);
  if (!found) {
    os << "no critical path (decision event not retained)\n";
    return os.str();
  }
  os << "critical path: " << hops << " hop(s), span " << span
     << (truncated ? " (TRUNCATED: chain left the flight ring)" : "") << "\n"
     << "  attribution: waiting " << waiting << " + channel " << channel_delay
     << " + processing " << processing << " + queueing " << queueing << "\n";
  for (const CriticalPathHop& hop : chain) {
    os << "  #" << hop.id << " t=" << hop.time << " "
       << trace_kind_name(hop.kind) << " node=" << hop.node;
    if (hop.arg >= 0) os << " arg=" << hop.arg;
    if (hop.kind == TraceKind::kDeliver) {
      os << " gap=" << hop.gap << " (delay " << hop.delay << ", work "
         << hop.work << ", queue " << hop.queue << ")";
    } else if (hop.gap > 0.0 || hop.wait > 0.0) {
      os << " wait=" << hop.wait;
    }
    os << "\n";
  }
  return os.str();
}

namespace {

// The one extraction body behind both overloads: `size` retained events,
// oldest first, where at(i) is the i-th one's TraceRecord.
template <typename At>
CriticalPath extract_chain(std::size_t size, const At& at,
                           NodeId decision_node, SimTime decision_time) {
  CriticalPath path;
  if (size == 0) return path;
  // Ids are dense since clear(), so the retained window maps to indices by
  // subtracting the oldest retained id.
  const std::int64_t first_id = at(0).id;

  // The decision event: last DELIVER/TIMER record at the decision node at
  // or before the decision instant — decisions fire inside message or timer
  // handlers. Periodic TICK activations only anchor when no such handler
  // exists (a node that decided on pure self-activation): on the thread
  // runtime a background tick already in the mailbox can pop between the
  // deciding DELIVER and the wall-clock decision_time read, and preferring
  // it would yield a hop-free tick chain. Settle-phase traffic recorded
  // after the decision sits later in the ring and is skipped by the time
  // filter either way.
  std::size_t decision_index = size;
  std::size_t tick_index = size;
  for (std::size_t i = size; i-- > 0;) {
    const auto& e = at(i);
    if (e.node != decision_node || !is_handler_kind(e.kind) ||
        e.time > decision_time) {
      continue;
    }
    if (e.kind == TraceKind::kTick) {
      if (tick_index == size) tick_index = i;
      continue;
    }
    decision_index = i;
    break;
  }
  if (decision_index == size) decision_index = tick_index;
  if (decision_index == size) return path;

  // Walk cause links back to a root (cause == -1) or out of the ring: once
  // to size the chain, once to fill it from the back (root first).
  std::size_t length = 0;
  for (std::size_t index = decision_index;;) {
    const auto& e = at(index);
    ++length;
    if (e.cause < 0) break;  // a true root
    if (e.cause < first_id || e.cause >= e.id) {
      path.truncated = true;  // evicted parent (or malformed link)
      break;
    }
    index = static_cast<std::size_t>(e.cause - first_id);
  }
  path.found = true;
  path.chain.resize(length);
  for (std::size_t index = decision_index, k = length; k-- > 0;) {
    const auto& e = at(index);
    CriticalPathHop& hop = path.chain[k];
    hop.id = e.id;
    hop.kind = e.kind;
    hop.node = e.node;
    hop.arg = e.arg;
    hop.time = e.time;
    hop.delay = e.delay;
    hop.work = e.work;
    if (k > 0) index = static_cast<std::size_t>(e.cause - first_id);
  }

  // Attribute each gap. The chain telescopes, so summing the four components
  // reproduces the decision time exactly when the root was reached (the
  // root's own lead-in from t = 0 counts as waiting).
  for (std::size_t i = 0; i < path.chain.size(); ++i) {
    CriticalPathHop& hop = path.chain[i];
    double gap;
    if (i == 0) {
      gap = path.truncated ? 0.0 : hop.time;
    } else {
      gap = hop.time - path.chain[i - 1].time;
      // Real-thread timestamps can jitter by clock granularity; the
      // simulator never produces a negative gap.
      if (gap < 0.0) gap = 0.0;
    }
    hop.gap = gap;
    if (i > 0 && hop.kind == TraceKind::kDeliver) {
      hop.delay = std::min(hop.delay, gap);
      hop.work = std::min(hop.work, gap - hop.delay);
      hop.queue = gap - hop.delay - hop.work;
      hop.wait = 0.0;
      path.hops += 1;
      path.channel_delay += hop.delay;
      path.processing += hop.work;
      path.queueing += hop.queue;
    } else {
      hop.delay = 0.0;
      hop.work = 0.0;
      hop.queue = 0.0;
      hop.wait = gap;
      path.waiting += gap;
    }
  }
  const CriticalPathHop& last = path.chain.back();
  path.span = path.truncated ? last.time - path.chain.front().time : last.time;
  return path;
}

}  // namespace

CriticalPath extract_critical_path(const std::vector<TraceEvent>& events,
                                   NodeId decision_node,
                                   SimTime decision_time) {
  return extract_chain(
      events.size(),
      [&events](std::size_t i) -> const TraceRecord& { return events[i]; },
      decision_node, decision_time);
}

CriticalPath extract_critical_path(const Trace& trace, NodeId decision_node,
                                   SimTime decision_time) {
  return extract_chain(
      trace.size(),
      [&trace](std::size_t i) -> const TraceRecord& { return trace.at(i); },
      decision_node, decision_time);
}

CriticalPathStats CriticalPathStats::from_path(const CriticalPath& path) {
  CriticalPathStats stats;
  stats.found = path.found;
  stats.truncated = path.truncated;
  stats.hops = path.hops;
  stats.span = path.span;
  stats.channel_delay = path.channel_delay;
  stats.processing = path.processing;
  stats.queueing = path.queueing;
  stats.waiting = path.waiting;
  stats.edges = path.edge_shares();
  return stats;
}

namespace {

// Adds each share of `from` onto the entry of its edge in `into`, which stays
// ascending by edge; a new edge's entry starts at {edge, 0, 0.0}.
void add_shares(std::vector<EdgeShare>& into,
                const std::vector<EdgeShare>& from) {
  for (const EdgeShare& share : from) {
    auto it = std::lower_bound(
        into.begin(), into.end(), share.edge,
        [](const EdgeShare& e, std::int64_t edge) { return e.edge < edge; });
    if (it == into.end() || it->edge != share.edge) {
      it = into.insert(it, EdgeShare{share.edge, 0, 0.0});
    }
    it->hops += share.hops;
    it->delay += share.delay;
  }
}

}  // namespace

void CriticalPathAggregate::add(const CriticalPathStats& stats,
                                std::uint64_t seed) {
  ++considered;
  if (!stats.found) return;
  ++found;
  if (stats.truncated) ++truncated;
  hops.add(static_cast<double>(stats.hops));
  span.add(stats.span);
  channel_delay.add(stats.channel_delay);
  processing.add(stats.processing);
  queueing.add(stats.queueing);
  waiting.add(stats.waiting);
  add_shares(channels, stats.edges);
  if (!has_worst || stats.span > worst_span ||
      (stats.span == worst_span && seed < worst_seed)) {
    has_worst = true;
    worst_span = stats.span;
    worst_seed = seed;
  }
}

void CriticalPathAggregate::merge(const CriticalPathAggregate& other) {
  considered += other.considered;
  found += other.found;
  truncated += other.truncated;
  hops.merge(other.hops);
  span.merge(other.span);
  channel_delay.merge(other.channel_delay);
  processing.merge(other.processing);
  queueing.merge(other.queueing);
  waiting.merge(other.waiting);
  add_shares(channels, other.channels);
  if (other.has_worst &&
      (!has_worst || other.worst_span > worst_span ||
       (other.worst_span == worst_span && other.worst_seed < worst_seed))) {
    has_worst = true;
    worst_span = other.worst_span;
    worst_seed = other.worst_seed;
  }
}

std::vector<EdgeShare> CriticalPathAggregate::top_channels(
    std::size_t k) const {
  std::vector<EdgeShare> out = channels;
  std::sort(out.begin(), out.end(), [](const EdgeShare& a, const EdgeShare& b) {
    if (a.delay != b.delay) return a.delay > b.delay;
    return a.edge < b.edge;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace abe
