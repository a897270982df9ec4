// In-memory span log for the traced run.
//
// A span is one timed interval around a call into a program layer: name,
// start, end, the request it belongs to (one trial, or one sweep pass) and
// the span that caused it. Spans are recorded from the benchmark's own code
// around public calls only; the library carries no instrumentation for
// them. The log is kept in memory and written out when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  std::int64_t request = -1;  // trial seed, or pass index for pass spans
  int parent = -1;            // index of the causing span; -1 for a root
  Clock::time_point start{};
  Clock::time_point end{};

  double ms() const { return ms_between(start, end); }
};

class SpanLog {
 public:
  // Opens a span starting now and returns its index.
  int open(const char* name, std::int64_t request, int parent) {
    Span span;
    span.name = name;
    span.request = request;
    span.parent = parent;
    span.start = Clock::now();
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) { spans_[static_cast<std::size_t>(index)].end = Clock::now(); }
  // Records an interval measured elsewhere.
  int add(const char* name, std::int64_t request, int parent,
          Clock::time_point start, Clock::time_point end) {
    Span span{name, request, parent, start, end};
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }

  // Appends another log, re-basing its parent links.
  void append(const SpanLog& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) span.parent += base;
      spans_.push_back(span);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of durations per span name over the children of the roots named
  // `root`; the roots' remaining self time is "uncovered". Children named
  // "bench.*" are the benchmark's own checks: they are cut out of the root
  // time and listed nowhere.
  struct Ledger {
    std::uint64_t roots = 0;
    double root_ms = 0.0;
    std::map<std::string, double> child_ms;
    double uncovered_ms = 0.0;
  };
  Ledger ledger(const char* root) const {
    Ledger out;
    std::vector<double> covered(spans_.size(), 0.0);
    std::vector<double> excluded(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent < 0) continue;
      const auto p = static_cast<std::size_t>(span.parent);
      if (spans_[p].parent >= 0 || std::string(spans_[p].name) != root) {
        continue;
      }
      if (std::string(span.name).rfind("bench.", 0) == 0) {
        excluded[p] += span.ms();
      } else {
        out.child_ms[span.name] += span.ms();
        covered[p] += span.ms();
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.parent >= 0 || std::string(span.name) != root) continue;
      ++out.roots;
      out.root_ms += span.ms() - excluded[i];
      out.uncovered_ms += span.ms() - excluded[i] - covered[i];
    }
    return out;
  }

  // Total duration of root spans named `root`.
  double root_total_ms(const char* root) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.parent < 0 && std::string(span.name) == root) total += span.ms();
    }
    return total;
  }

  // One JSON object per line: name, request, parent, start/end in ns since
  // `origin`; at most `max_spans` of them, then a line counting the rest.
  void write_jsonl(std::ostream& os, Clock::time_point origin,
                   std::size_t max_spans) const {
    const std::size_t shown = std::min(spans_.size(), max_spans);
    for (std::size_t i = 0; i < shown; ++i) {
      const Span& s = spans_[i];
      const auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count();
      };
      os << "{\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
         << ", \"start_ns\": " << ns(s.start) << ", \"end_ns\": " << ns(s.end)
         << "}\n";
    }
    if (shown < spans_.size()) {
      os << "{\"omitted\": " << spans_.size() - shown << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
