// perfbench: the simulator benchmark's measuring program.
//
//   perfbench --workload torus-10k|sweep-robustness --seed S --seconds T
//             --trace 0|1 [--expect-digest HEX] [--n N] [--sweep-trials K]
//             [--out-dir DIR]
//   perfbench --workload W --record [--n N] [--sweep-trials K]
//
// Every workload is a closed loop: one process submits trials (or, for the
// sweep, whole sweep passes) back to back at a fixed trial-pool width that
// never exceeds the host's cores. --trace 0 times the library's public entry
// points (run_scenario_trial inside the trial pool, write_sweep_json) and
// prints the end-to-end metrics. --trace 1 re-runs the same trials through a
// mirror of the run_scenario_trial -> run_algorithm_trial lifecycle with a
// span around each public call, checks each traced outcome against
// run_scenario_trial for the same seed, and prints the per-layer ledger plus
// the layer ladder rows (ladders.h). --record prints the value the
// correctness gate compares against (the reference-set digest).
//
// The last stdout line is one JSON object: correct, errors, attempted,
// failed, metrics {name: {value, unit}} and info (provenance, tail
// percentile, ledger). Human-readable tables go to stderr.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/trial_pool.h"
#include "ladders.h"
#include "obs/causal.h"
#include "runtime/runtime.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "sim/equeue/backend.h"
#include "sim/rng.h"
#include "spans.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kReferenceSeed = 1;  // seed base of the reference set
constexpr std::uint64_t kMinUntracedRequests = 20;  // >= 10 beyond the tail
constexpr std::uint64_t kMinTracedTrials = 3;
constexpr std::uint64_t kCausalFlipTrials = 3;  // per cell, from the seed base
constexpr double kMaxUncoveredShare = 0.10;
constexpr int kMinSetups = 5;
constexpr double kMinSetupMs = 3000.0;
constexpr double kLadderRowSeconds = 0.3;
constexpr std::size_t kMaxWrittenSpans = 100000;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::vector<abe::ScenarioSpec> cells;
  bool sweep = false;  // requests are sweep passes over all cells
  std::uint64_t trials_per_cell = 1;  // per request
  unsigned pool_width = 1;
  LadderShape shape;
};

unsigned host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

bool make_workload(const std::string& name, std::size_t n_override,
                   std::uint64_t sweep_trials, Workload* out,
                   std::string* problem) {
  Workload w;
  w.name = name;
  const auto single = [&](const char* scenario, std::size_t n,
                          abe::TopologyFamily ladder_family) {
    const abe::ScenarioSpec* spec = abe::find_scenario(scenario);
    if (spec == nullptr) {
      *problem = std::string("scenario '") + scenario + "' is not registered";
      return false;
    }
    abe::ScenarioSpec cell = *spec;
    cell.topology.n = n_override > 0 ? n_override : n;
    *problem = cell.topology.problem();
    if (!problem->empty()) return false;
    w.shape.topology = abe::TopologySpec{ladder_family, cell.topology.n, 0.0};
    w.shape.pending = cell.topology.n;
    w.shape.delay_name = cell.delay_name;
    w.shape.causal_history = cell.causal_history;
    w.cells.push_back(std::move(cell));
    return true;
  };
  if (name == "torus-10k") {
    if (!single("polling-torus", 10000, abe::TopologyFamily::kTorus)) {
      return false;
    }
  } else if (name == "sweep-robustness") {
    const abe::ScenarioMatrix* matrix = abe::find_sweep("robustness");
    if (matrix == nullptr) {
      *problem = "sweep 'robustness' is not registered";
      return false;
    }
    // Observed the way `abe_scenarios critical-path --timeseries 1` does.
    w.cells = matrix->expand();
    for (abe::ScenarioSpec& cell : w.cells) {
      cell.causal_history = true;
      cell.timeseries_interval = 1.0;
    }
    w.sweep = true;
    w.trials_per_cell = sweep_trials;
    w.pool_width = 2;
    const abe::ScenarioSpec& first = w.cells.front();
    w.shape.topology =
        abe::TopologySpec{abe::TopologyFamily::kTorus, first.topology.n, 0.0};
    w.shape.pending = first.topology.n;
    w.shape.delay_name = "exponential";
    w.shape.causal_history = true;
  } else {
    *problem =
        "unknown workload '" + name + "' (torus-10k, sweep-robustness)";
    return false;
  }
  w.pool_width = std::min(w.pool_width, host_cores());
  *out = std::move(w);
  return true;
}

std::uint64_t seed_base_of(std::uint64_t seed) {
  std::uint64_t state = seed;
  return 2 + (abe::splitmix64(state) >> 24);  // < 2^40, never the reference
}

// ---------------------------------------------------------------------------
// Aggregates and checks

// run_scenario_trials' per-trial fold, for loops that time each trial.
void fold_trial(abe::ScenarioAggregate& out, const abe::TrialOutcome& run,
                std::uint64_t seed) {
  ++out.trials;
  if (run.has_metrics) out.metrics.merge(run.metrics);
  out.wall += run.wall;
  if (run.has_critical_path) out.critical_path.add(run.critical_path, seed);
  if (run.has_timeseries) out.timeseries.merge(run.timeseries);
  if (!run.completed) {
    if (run.stalled) {
      ++out.stalled;
    } else {
      ++out.failures;
    }
    return;
  }
  if (!run.safety_ok) {
    ++out.safety_violations;
    out.violation_seeds.push_back(seed);
  }
  out.messages.add(static_cast<double>(run.messages));
  out.time.add(run.time);
}

bool trial_ok(const abe::TrialOutcome& run, std::size_t n) {
  return run.completed && !run.stalled && run.safety_ok &&
         run.decision_node >= 0 &&
         static_cast<std::size_t>(run.decision_node) < n;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// FNV-1a over each cell's id, counts and message/time summaries (the
// summaries serialise at round-trip precision, so equal text means equal
// bits).
std::string aggregate_digest(const std::vector<abe::SweepCellOutcome>& cells) {
  std::uint64_t h = 1469598103934665603ull;
  const auto feed = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const abe::SweepCellOutcome& cell : cells) {
    const abe::ScenarioAggregate& a = cell.aggregate;
    std::ostringstream os;
    os << cell.spec.cell_id() << '|' << a.trials << ' ' << a.failures << ' '
       << a.stalled << ' ' << a.safety_violations << '|'
       << a.messages.to_json() << '|' << a.time.to_json() << '\n';
    feed(os.str());
  }
  return hex64(h);
}

// Problems of one cell's aggregate: every trial completed and was safe.
void check_cell(const abe::SweepCellOutcome& cell, std::uint64_t trials,
                const std::string& workload, std::vector<std::string>* errors) {
  const abe::ScenarioAggregate& a = cell.aggregate;
  if (a.trials != trials || a.failures != 0 || a.stalled != 0 ||
      a.safety_violations != 0 || a.messages.count() != trials) {
    std::ostringstream os;
    os << workload << ": cell " << cell.spec.cell_id() << " ran " << a.trials
       << "/" << trials << " trials with " << a.failures << " deadline misses, "
       << a.stalled << " stalls, " << a.safety_violations
       << " safety violations";
    errors->push_back(os.str());
  }
}

// "heap" / "calendar" / "ladder" at the end of a trial, inferred from the
// documented auto policy and the harvested queue high-water mark.
std::string inferred_backend(const abe::ScenarioSpec& spec,
                             const abe::MetricsSnapshot& metrics) {
  const abe::EqueueBackend chosen = abe::resolve_equeue_backend(spec.equeue);
  if (chosen != abe::EqueueBackend::kAuto) {
    return abe::equeue_backend_name(chosen);
  }
  return metrics.value_of("sched.queue_high_water") >
                 static_cast<double>(abe::kEqueueAutoThreshold)
             ? "calendar"
             : "heap";
}

// The reference set: `trials` trials per cell from kReferenceSeed.
std::vector<abe::SweepCellOutcome> run_reference(const Workload& w,
                                                 std::uint64_t trials,
                                                 unsigned width) {
  if (w.sweep) return abe::run_sweep(w.cells, trials, kReferenceSeed, width);
  abe::SweepCellOutcome cell;
  cell.spec = w.cells.front();
  cell.aggregate =
      abe::run_scenario_trials(cell.spec, trials, kReferenceSeed, width);
  return {cell};
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// The highest order statistic with at least ten samples beyond it, and its
// percentile.
std::pair<double, double> tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t rank = v.size() > 10 ? v.size() - 10 : 1;  // 1-based
  return {v[rank - 1], 100.0 * static_cast<double>(rank) /
                           static_cast<double>(v.size())};
}

double cpu_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Output

struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // raw JSON values

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void error(const std::string& e) {
    correct = false;
    errors.push_back(e);
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

void print_result(const Result& r) {
  std::fprintf(stderr, "%-32s %20s  %s\n", "metric", "value", "unit");
  for (const auto& [name, vu] : r.metrics) {
    std::fprintf(stderr, "%-32s %20.6g  %s\n", name.c_str(), vu.first,
                 vu.second.c_str());
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "ERROR %s\n", e.c_str());
  }
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? ", " : "") << json_string(r.errors[i]);
  }
  os << "], \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    os << (i ? ", " : "") << json_string(name)
       << ": {\"value\": " << json_number(vu.first)
       << ", \"unit\": " << json_string(vu.second) << "}";
  }
  os << "}, \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    os << (i ? ", " : "") << json_string(r.info[i].first) << ": "
       << r.info[i].second;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

std::string json_counts(const std::map<std::string, std::uint64_t>& counts) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [k, v] : counts) {
    os << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  os << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string expect_digest;
  std::size_t n = 0;
  std::uint64_t sweep_trials = 64;
  std::string out_dir = ".";
};

abe::SweepRunMetadata sweep_metadata(const Workload& w, std::uint64_t base) {
  abe::SweepRunMetadata meta;
  meta.compiler = PERFBENCH_COMPILER;
  meta.build_type = PERFBENCH_BUILD_TYPE;
  meta.threads = w.pool_width;
  meta.trials = w.trials_per_cell;
  meta.seed_base = base;
  return meta;
}

// One chunk of timed trials: run_scenario_trials' per-chunk aggregate, each
// trial's CPU time on the worker that ran it, and the seeds of trials that
// did not end with exactly one safe decision.
struct TimedChunk {
  abe::ScenarioAggregate agg;
  std::vector<double> trial_ms;
  std::vector<std::uint64_t> bad_seeds;

  void merge(const TimedChunk& other) {
    agg.merge(other.agg);
    trial_ms.insert(trial_ms.end(), other.trial_ms.begin(),
                    other.trial_ms.end());
    bad_seeds.insert(bad_seeds.end(), other.bad_seeds.begin(),
                     other.bad_seeds.end());
  }
};

// run_scenario_trials with every trial timed: the same chunks, per-trial
// fold and merge order, so the aggregate is bit-identical to the library's.
TimedChunk timed_trials(const abe::ScenarioSpec& spec, std::uint64_t trials,
                        std::uint64_t seed_base, unsigned width) {
  return abe::run_seed_chunked_trials<TimedChunk>(
      trials, seed_base, width,
      [&spec](std::uint64_t lo, std::uint64_t hi, TimedChunk& out) {
        for (std::uint64_t s = lo; s < hi; ++s) {
          const double c0 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
          const abe::TrialOutcome run = abe::run_scenario_trial(spec, s);
          out.trial_ms.push_back(cpu_ms(CLOCK_THREAD_CPUTIME_ID) - c0);
          if (!trial_ok(run, spec.topology.n)) out.bad_seeds.push_back(s);
          fold_trial(out.agg, run, s);
        }
      });
}

// Requests run back to back: one trial (serial workloads) or one sweep pass
// written out as JSON. Each trial is timed on its worker thread's CPU clock
// and each request on the process CPU clock. Neither advances while a
// virtual machine's vCPU is descheduled or a pool worker waits at the
// per-cell barrier; the traced run reports that idle time as
// pool.busy_share.
//
// Trial times are summarised per sample set: one sweep pass (960 trials of
// the same cell mix), or the whole run of a serial workload. The run reports
// the median over sets of each set's median and tail, so a sweep's tail
// stays a per-pass percentile instead of the extreme order statistic of
// hundreds of thousands of trials.
void untraced_run(const Workload& w, const Options& opt, Result* r) {
  const std::uint64_t base = seed_base_of(opt.seed);
  std::vector<double> set_ms;  // trial times of the open sample set
  std::vector<double> set_p50, set_tail;
  std::pair<double, double> last_tail{0.0, 0.0};
  std::size_t set_size = 0;
  const auto close_set = [&] {
    last_tail = tail_of(set_ms);
    set_size = set_ms.size();
    set_p50.push_back(median(set_ms));
    set_tail.push_back(last_tail.first);
    set_ms.clear();
  };
  double request_cpu_ms = 0.0;
  std::map<std::string, std::uint64_t> backends;
  std::uint64_t ok = 0;
  const Clock::time_point start = Clock::now();
  std::uint64_t request = 0;
  for (; request < kMinUntracedRequests ||
         ms_between(start, Clock::now()) < opt.seconds * 1000.0;
       ++request) {
    const std::uint64_t request_base = base + request * w.trials_per_cell;
    const double c0 = cpu_ms(CLOCK_PROCESS_CPUTIME_ID);
    std::vector<abe::SweepCellOutcome> outcomes;
    std::vector<std::vector<std::uint64_t>> bad_seeds;
    for (const abe::ScenarioSpec& spec : w.cells) {
      TimedChunk cell =
          timed_trials(spec, w.trials_per_cell, request_base, w.pool_width);
      set_ms.insert(set_ms.end(), cell.trial_ms.begin(), cell.trial_ms.end());
      bad_seeds.push_back(std::move(cell.bad_seeds));
      outcomes.push_back({spec, std::move(cell.agg)});
    }
    std::ostringstream json;
    if (w.sweep) {
      abe::write_sweep_json(json, sweep_metadata(w, request_base), outcomes);
    }
    request_cpu_ms += cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - c0;
    if (w.sweep) close_set();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const abe::SweepCellOutcome& cell = outcomes[i];
      std::vector<std::string> problems;
      check_cell(cell, w.trials_per_cell, w.name, &problems);
      for (std::uint64_t seed : bad_seeds[i]) {
        problems.push_back(w.name + ": " + cell.spec.cell_id() + " seed " +
                           std::to_string(seed) +
                           " did not complete safely with one leader");
      }
      for (const std::string& p : problems) r->error(p);
      r->attempted += cell.aggregate.trials;
      ok += problems.empty() ? cell.aggregate.trials : 0;
      backends[inferred_backend(cell.spec, cell.aggregate.metrics)] +=
          cell.aggregate.trials;
    }
    if (request == 0 && w.sweep) {
      // The abe_scenarios cross-check (run.py) re-runs this pass.
      std::ofstream(opt.out_dir + "/sweep-first-pass.json") << json.str();
      r->info.push_back({"first_pass_seed", std::to_string(request_base)});
    }
  }
  if (!set_ms.empty()) close_set();
  r->failed = r->attempted - ok;
  r->metric("trials_per_s",
            static_cast<double>(r->attempted) * 1000.0 /
                (request_cpu_ms / static_cast<double>(w.pool_width)),
            "1/s");
  r->metric("trial_ms_p50", median(set_p50), "ms");
  r->metric("trial_ms_tail", median(set_tail), "ms");
  r->metric("peak_rss_mb", peak_rss_mb(), "MB");
  r->metric("trial_ok_ratio",
            static_cast<double>(ok) / static_cast<double>(r->attempted),
            "ratio");
  r->info.push_back({"seed_base", std::to_string(base)});
  r->info.push_back({"requests", std::to_string(request)});
  r->info.push_back(
      {"clocks", json_string("trial: worker thread CPU; trials_per_s: "
                             "process CPU per request / pool width")});
  r->info.push_back({"tail_percentile", json_number(last_tail.second)});
  r->info.push_back({"tail_samples", std::to_string(set_size)});
  r->info.push_back({"sample_sets", std::to_string(set_tail.size())});
  r->info.push_back({"equeue_end", json_counts(backends)});
  r->info.push_back(
      {"equeue_end_source",
       json_string("inferred from sched.queue_high_water and the auto "
                   "policy threshold")});
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer ledger

struct TrialCounts {
  std::uint64_t trials = 0;
  std::uint64_t run_events = 0;  // popped during run_until_done
  std::uint64_t events = 0;      // popped over the whole trial
  std::uint64_t high_water = 0;
  std::uint64_t ticks = 0;
  std::uint64_t sent = 0;
  std::uint64_t records = 0;
  std::uint64_t messages = 0;
  double time = 0.0;
  std::map<std::string, std::uint64_t> backend_end;

  void merge(const TrialCounts& o) {
    trials += o.trials;
    run_events += o.run_events;
    events += o.events;
    high_water += o.high_water;
    ticks += o.ticks;
    sent += o.sent;
    records += o.records;
    messages += o.messages;
    time += o.time;
    for (const auto& [k, v] : o.backend_end) backend_end[k] += v;
  }
};

// Trial-pool aggregate of the traced run: the library aggregate plus the
// spans, counts and problems of the chunk's trials.
struct TracedChunk {
  abe::ScenarioAggregate agg;
  SpanLog log;
  TrialCounts counts;
  std::vector<std::string> errors;
  std::uint64_t bad = 0;

  void merge(const TracedChunk& other) {
    const Clock::time_point t0 = Clock::now();
    agg.merge(other.agg);
    log.add("chunk.merge", -1, -1, t0, Clock::now());
    log.append(other.log);
    counts.merge(other.counts);
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
    bad += other.bad;
  }
};

// run_scenario_trial -> run_algorithm_trial, call for call, with a span
// around each public call; folds the outcome into chunk->agg the way
// run_scenario_trials does.
abe::TrialOutcome traced_trial(const abe::ScenarioSpec& spec,
                               std::uint64_t seed, TracedChunk* chunk) {
  SpanLog& log = chunk->log;
  const auto id = static_cast<std::int64_t>(seed);
  const int root = log.open("trial", id, -1);

  int s = log.open("scenario.topology", id, root);
  const std::string problem = abe::runtime_cell_problem(spec);
  abe::Rng topo_rng = abe::Rng(seed).substream("scenario-topology");
  const abe::Topology topology = spec.topology.build(topo_rng);
  log.close(s);

  s = log.open("scenario.driver", id, root);
  abe::ScenarioTrialDriver binding =
      abe::make_scenario_driver(spec, topology, seed);
  abe::RuntimeConfig config = abe::scenario_runtime_config(spec, topology, seed);
  abe::AlgorithmDriver& driver = *binding.driver;
  driver.configure(config);
  const abe::SimTime deadline = config.deadline;
  const bool want_metrics = config.metrics;
  log.close(s);

  const int build = log.open("runtime.build", id, root);
  std::unique_ptr<abe::Runtime> rt =
      abe::make_runtime(spec.runtime, std::move(config));
  rt->build_nodes([&driver](std::size_t i) { return driver.make_node(i); });
  log.close(build);

  const int run = log.open("runtime.run", id, root);
  rt->start();
  const bool completed =
      rt->run_until_done([&] { return driver.done(*rt); }, deadline);
  log.close(run);
  abe::Scheduler& sched =
      dynamic_cast<abe::SimRuntime&>(*rt).network().scheduler();
  const std::uint64_t run_events = sched.processed_count();

  const int settle1 = log.open("runtime.settle", id, root);
  if (completed) driver.on_complete(*rt);
  log.close(settle1);
  const int snap = log.open("obs.critical_path", id, root);
  abe::Trace decided_trace;
  if (completed) decided_trace = rt->trace_snapshot();
  log.close(snap);
  const int settle2 = log.open("runtime.settle", id, root);
  driver.settle(*rt, completed);
  rt->stop();
  log.close(settle2);

  s = log.open("runtime.extract", id, root);
  abe::TrialOutcome outcome = driver.extract(*rt, completed);
  log.close(s);
  const std::vector<Span>& spans = log.spans();
  const auto span_ms = [&spans](int i) {
    return spans[static_cast<std::size_t>(i)].ms();
  };
  outcome.wall.build_ms = span_ms(build);
  outcome.wall.run_ms = span_ms(run);
  outcome.wall.settle_ms = span_ms(settle1) + span_ms(snap) + span_ms(settle2);
  outcome.wall.total_ms =
      outcome.wall.build_ms + outcome.wall.run_ms + outcome.wall.settle_ms;

  s = log.open("obs.snapshot", id, root);
  if (want_metrics) {
    outcome.metrics = rt->metrics_snapshot();
    outcome.has_metrics = true;
  }
  log.close(s);
  s = log.open("obs.critical_path", id, root);
  if (outcome.completed && outcome.decision_node >= 0) {
    const abe::CriticalPath path = abe::extract_critical_path(
        decided_trace.events(), abe::NodeId{outcome.decision_node},
        outcome.time);
    outcome.critical_path = abe::CriticalPathStats::from_path(path);
    outcome.has_critical_path = true;
  }
  log.close(s);
  s = log.open("obs.snapshot", id, root);
  {
    abe::TimeSeries series = rt->timeseries_snapshot();
    if (series.enabled()) {
      series.trials = 1;
      outcome.timeseries = std::move(series);
      outcome.has_timeseries = true;
    }
  }
  if (!outcome.completed || outcome.stalled || !outcome.safety_ok) {
    outcome.flight_tail = rt->trace_snapshot().events();
  }
  log.close(s);

  // The benchmark's own check; the ledger leaves "bench." spans out.
  s = log.open("bench.check", id, root);
  std::size_t leaders = 0;
  for (std::size_t i = 0; i < rt->size(); ++i) {
    if (rt->node(i).algorithm_node().state_string() == "leader") ++leaders;
  }
  TrialCounts& c = chunk->counts;
  ++c.trials;
  c.run_events += run_events;
  c.events += sched.processed_count();
  c.high_water += sched.queue_high_water();
  c.backend_end[sched.backend_name()] += 1;
  c.ticks += static_cast<std::uint64_t>(outcome.metrics.value_of("net.ticks"));
  c.sent += static_cast<std::uint64_t>(outcome.metrics.value_of("net.sent"));
  c.records +=
      static_cast<std::uint64_t>(outcome.metrics.value_of("trace.recorded"));
  log.close(s);

  s = log.open("runtime.teardown", id, root);
  rt.reset();
  decided_trace = abe::Trace();
  log.close(s);
  s = log.open("runtime.extract", id, root);
  outcome = binding.project(outcome);
  log.close(s);
  s = log.open("runtime.teardown", id, root);
  binding.driver.reset();
  binding.project = nullptr;
  log.close(s);

  s = log.open("scenario.merge", id, root);
  fold_trial(chunk->agg, outcome, seed);
  log.close(s);
  log.close(root);

  c.messages += outcome.messages;
  c.time += outcome.time;
  if (!problem.empty() || !trial_ok(outcome, spec.topology.n) ||
      leaders != 1) {
    ++chunk->bad;
    chunk->errors.push_back(spec.cell_id() + " seed " + std::to_string(seed) +
                            ": not completed safely with exactly one leader (" +
                            std::to_string(leaders) + " leaders)");
  }
  return outcome;
}

bool same_outcome(const abe::TrialOutcome& a, const abe::TrialOutcome& b) {
  const abe::CriticalPathStats& p = a.critical_path;
  const abe::CriticalPathStats& q = b.critical_path;
  bool same = a.completed == b.completed && a.stalled == b.stalled &&
              a.safety_ok == b.safety_ok && a.time == b.time &&
              a.messages == b.messages && a.decision_node == b.decision_node &&
              a.has_metrics == b.has_metrics && a.metrics == b.metrics &&
              a.has_critical_path == b.has_critical_path &&
              p.found == q.found && p.truncated == q.truncated &&
              p.hops == q.hops && p.span == q.span &&
              p.channel_delay == q.channel_delay &&
              p.processing == q.processing && p.queueing == q.queueing &&
              p.waiting == q.waiting &&
              a.has_timeseries == b.has_timeseries &&
              a.timeseries.samples.size() == b.timeseries.samples.size();
  for (std::size_t i = 0; same && i < a.timeseries.samples.size(); ++i) {
    const abe::TimeSeriesSample& x = a.timeseries.samples[i];
    const abe::TimeSeriesSample& y = b.timeseries.samples[i];
    same = x.t == y.t && x.pending == y.pending &&
           x.in_flight == y.in_flight && x.live == y.live;
  }
  return same;
}

// One seed of the traced run: the traced lifecycle, then run_scenario_trial
// on the same seed (parity, and the untraced time the tracing overhead is
// measured against), then for the first seeds of a cell the same trial with
// causal history flipped.
void traced_seed(const abe::ScenarioSpec& spec, std::uint64_t seed,
                 std::uint64_t cell_base, TracedChunk* chunk) {
  const abe::TrialOutcome traced = traced_trial(spec, seed, chunk);
  const auto id = static_cast<std::int64_t>(seed);
  int s = chunk->log.open("untraced", id, -1);
  const abe::TrialOutcome plain = abe::run_scenario_trial(spec, seed);
  chunk->log.close(s);
  if (!same_outcome(traced, plain)) {
    ++chunk->bad;
    chunk->errors.push_back(spec.cell_id() + " seed " + std::to_string(seed) +
                            ": traced lifecycle outcome differs from "
                            "run_scenario_trial");
  }
  if (seed < cell_base + kCausalFlipTrials) {
    abe::ScenarioSpec flipped = spec;
    flipped.causal_history = !spec.causal_history;
    s = chunk->log.open(
        spec.causal_history ? "causal_off" : "causal_on", id, -1);
    abe::run_scenario_trial(flipped, seed);
    chunk->log.close(s);
  }
}

// Sums of root spans per name for one request id (seed).
std::map<std::int64_t, std::map<std::string, double>> roots_by_request(
    const SpanLog& log) {
  std::map<std::int64_t, std::map<std::string, double>> out;
  for (const Span& span : log.spans()) {
    if (span.parent < 0) out[span.request][span.name] += span.ms();
  }
  return out;
}

void traced_run(const Workload& w, const Options& opt, Result* r) {
  const std::uint64_t base = seed_base_of(opt.seed);
  TracedChunk all;
  double pool_wall_ms = 0.0;
  std::uint64_t json_writes = 0;
  const Clock::time_point origin = Clock::now();
  Clock::time_point now = origin;
  if (w.sweep) {
    for (std::uint64_t pass = 0;
         ms_between(origin, now) < opt.seconds * 1000.0 || pass < 1; ++pass) {
      const std::uint64_t pass_base = base + pass * w.trials_per_cell;
      std::vector<abe::SweepCellOutcome> outcomes;
      for (const abe::ScenarioSpec& spec : w.cells) {
        const Clock::time_point t0 = Clock::now();
        TracedChunk cell = abe::run_seed_chunked_trials<TracedChunk>(
            w.trials_per_cell, pass_base, w.pool_width,
            [&spec, pass_base](std::uint64_t lo, std::uint64_t hi,
                               TracedChunk& out) {
              for (std::uint64_t s = lo; s < hi; ++s) {
                traced_seed(spec, s, pass_base, &out);
              }
            });
        pool_wall_ms += ms_between(t0, Clock::now());
        outcomes.push_back({spec, cell.agg});
        all.log.append(cell.log);
        all.counts.merge(cell.counts);
        all.errors.insert(all.errors.end(), cell.errors.begin(),
                          cell.errors.end());
        all.bad += cell.bad;
      }
      const Clock::time_point j0 = Clock::now();
      std::ostringstream json;
      abe::write_sweep_json(json, sweep_metadata(w, pass_base), outcomes);
      now = Clock::now();
      all.log.add("scenario.json", static_cast<std::int64_t>(pass), -1, j0,
                  now);
      ++json_writes;
      for (const abe::SweepCellOutcome& cell : outcomes) {
        check_cell(cell, w.trials_per_cell, w.name, &all.errors);
      }
    }
  } else {
    const abe::ScenarioSpec& spec = w.cells.front();
    TracedChunk chunk;
    std::uint64_t i = 0;
    for (; ms_between(origin, now) < opt.seconds * 1000.0 ||
           i < kMinTracedTrials;
         ++i) {
      traced_seed(spec, base + i, base, &chunk);
      if (chunk.agg.trials == abe::kTrialChunk) {
        all.merge(chunk);
        chunk = TracedChunk{};
      }
      now = Clock::now();
    }
    if (chunk.agg.trials > 0) all.merge(chunk);
    pool_wall_ms = ms_between(origin, Clock::now());
    const Clock::time_point j0 = Clock::now();
    std::ostringstream json;
    abe::write_sweep_json(json, sweep_metadata(w, base), {{spec, all.agg}});
    all.log.add("scenario.json", 0, -1, j0, Clock::now());
    json_writes = 1;
    check_cell({spec, all.agg}, i, w.name, &all.errors);
  }

  const LadderResults lad = run_ladders(w.shape, kLadderRowSeconds);

  const TrialCounts& c = all.counts;
  const auto n = static_cast<double>(c.trials);
  const SpanLog::Ledger ledger = all.log.ledger("trial");
  const auto row = [&ledger](const char* name) {
    const auto it = ledger.child_ms.find(name);
    return it == ledger.child_ms.end() ? 0.0 : it->second;
  };
  const double merge_ms = row("scenario.merge") +
                          all.log.root_total_ms("chunk.merge");
  const double run_ns_per_event =
      row("runtime.run") * 1e6 / static_cast<double>(c.run_events);

  // Tracing overhead and the causal-history A/B, from paired root spans.
  double traced_ms = 0.0, untraced_ms = 0.0, flip_ms = 0.0, flip_base_ms = 0.0;
  double pool_busy_ms = 0.0;
  for (const auto& [request, roots] : roots_by_request(all.log)) {
    (void)request;
    const auto get = [&roots](const char* name) {
      const auto it = roots.find(name);
      return it == roots.end() ? 0.0 : it->second;
    };
    traced_ms += get("trial");
    untraced_ms += get("untraced");
    const double flip = get("causal_on") + get("causal_off");
    if (flip > 0.0) {
      flip_ms += flip;
      flip_base_ms += get("untraced");
    }
    pool_busy_ms += get("trial") + get("untraced") + flip;
  }
  const bool base_causal = w.cells.front().causal_history;
  const double causal_share = base_causal ? flip_base_ms / flip_ms - 1.0
                                          : flip_ms / flip_base_ms - 1.0;

  r->attempted = c.trials;
  r->failed = all.bad;
  for (const std::string& e : all.errors) r->error(w.name + ": " + e);
  r->metric("scenario.topology_ms", row("scenario.topology") / n, "ms");
  r->metric("scenario.driver_ms", row("scenario.driver") / n, "ms");
  r->metric("scenario.merge_us", merge_ms * 1000.0 / n, "us");
  r->metric("scenario.json_ms",
            all.log.root_total_ms("scenario.json") /
                static_cast<double>(json_writes),
            "ms");
  r->metric("runtime.build_ms", row("runtime.build") / n, "ms");
  r->metric("runtime.run_ms", row("runtime.run") / n, "ms");
  r->metric("runtime.settle_ms", row("runtime.settle") / n, "ms");
  r->metric("runtime.extract_us", row("runtime.extract") * 1000.0 / n, "us");
  r->metric("runtime.teardown_us", row("runtime.teardown") * 1000.0 / n, "us");
  r->metric("runtime.ns_per_event", run_ns_per_event, "ns");
  r->metric("sim.events_per_trial", static_cast<double>(c.events) / n,
            "count");
  r->metric("sim.queue_high_water", static_cast<double>(c.high_water) / n,
            "count");
  r->metric("sim.messages_per_trial", static_cast<double>(c.messages) / n,
            "count");
  r->metric("sim.time_per_trial", c.time / n, "sim_time");
  r->metric("sched.dispatch_ns", lad.sched_dispatch_ns, "ns");
  r->metric("equeue.hold_ns.heap", lad.hold_heap_ns, "ns");
  r->metric("equeue.hold_ns.calendar", lad.hold_calendar_ns, "ns");
  r->metric("equeue.hold_ns.ladder", lad.hold_ladder_ns, "ns");
  r->metric("net.tick_ns", lad.net_tick_ns, "ns");
  r->metric("net.message_ns", lad.net_message_ns, "ns");
  r->metric("net.delay_sample_ns", lad.delay_sample_ns, "ns");
  r->metric("net.messages_per_trial", static_cast<double>(c.sent) / n,
            "count");
  r->metric("net.ticks_per_trial", static_cast<double>(c.ticks) / n, "count");
  r->metric("obs.snapshot_us", row("obs.snapshot") * 1000.0 / n, "us");
  r->metric("obs.critical_path_us", row("obs.critical_path") * 1000.0 / n,
            "us");
  r->metric("obs.causal_overhead_share", causal_share, "ratio");
  r->metric("trace.records_per_event",
            static_cast<double>(c.records) / static_cast<double>(c.events),
            "count");
  r->metric("trace.overhead_share", traced_ms / untraced_ms - 1.0, "ratio");
  r->metric("trace.overhead_trials_per_s",
            1000.0 * n / untraced_ms - 1000.0 * n / traced_ms, "1/s");
  r->metric("pool.busy_share",
            pool_busy_ms / (static_cast<double>(w.pool_width) * pool_wall_ms),
            "ratio");
  r->metric("ledger.trial_ms", ledger.root_ms / n, "ms");
  r->metric("ledger.uncovered_us", ledger.uncovered_ms * 1000.0 / n, "us");

  // Ledger closure: the rows plus the uncovered remainder are the traced
  // trial time.
  double rows_ms = 0.0;
  std::ostringstream table;
  table << "ledger (" << w.name << ", ms per traced trial, " << c.trials
        << " trials)\n";
  std::ostringstream rows_json;
  rows_json << "{";
  bool first = true;
  for (const auto& [name, ms] : ledger.child_ms) {
    rows_ms += ms;
    char line[128];
    std::snprintf(line, sizeof(line), "  %-22s %14.6f\n", name.c_str(), ms / n);
    table << line;
    rows_json << (first ? "" : ", ") << json_string(name) << ": "
              << json_number(ms / n);
    first = false;
  }
  rows_json << ", \"uncovered\": " << json_number(ledger.uncovered_ms / n)
            << ", \"trial\": " << json_number(ledger.root_ms / n) << "}";
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "  %-22s %14.6f\n  %-22s %14.6f  (rows + uncovered)\n",
                "uncovered", ledger.uncovered_ms / n, "traced trial",
                ledger.root_ms / n);
  table << tail;
  std::fprintf(stderr, "%s", table.str().c_str());
  const double closure = rows_ms + ledger.uncovered_ms - ledger.root_ms;
  if (std::fabs(closure) > 1e-6 * ledger.root_ms ||
      ledger.uncovered_ms < 0.0 ||
      ledger.uncovered_ms > kMaxUncoveredShare * ledger.root_ms) {
    r->error(w.name + ": ledger does not close (uncovered " +
             json_number(ledger.uncovered_ms / ledger.root_ms) +
             " of the traced trial time)");
  }
  r->info.push_back({"ledger_ms_per_trial", rows_json.str()});
  r->info.push_back({"seed_base", std::to_string(base)});
  r->info.push_back({"equeue_end", json_counts(c.backend_end)});
  r->info.push_back({"equeue_end_source", json_string("observed")});

  std::ofstream spans(opt.out_dir + "/spans-" + w.name + ".jsonl");
  all.log.write_jsonl(spans, origin, kMaxWrittenSpans);
}

// ---------------------------------------------------------------------------
// CLI

bool parse_options(int argc, char** argv, Options* opt, std::string* problem) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      opt->record = true;
      continue;
    }
    if (i + 1 >= argc) {
      *problem = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    const double num = std::strtod(value.c_str(), &end);
    const bool numeric = end != value.c_str() && *end == '\0' && num >= 0.0;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--expect-digest") {
      opt->expect_digest = value;
    } else if (flag == "--out-dir") {
      opt->out_dir = value;
    } else if (!numeric) {
      *problem = "bad or unknown flag " + flag + " " + value;
      return false;
    } else if (flag == "--seed") {
      opt->seed = static_cast<std::uint64_t>(num);
    } else if (flag == "--seconds") {
      opt->seconds = num;
    } else if (flag == "--trace") {
      opt->trace = num != 0.0;
    } else if (flag == "--n") {
      opt->n = static_cast<std::size_t>(num);
    } else if (flag == "--sweep-trials") {
      opt->sweep_trials = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(num));
    } else {
      *problem = "unknown flag " + flag;
      return false;
    }
  }
  if (opt->workload.empty()) {
    *problem = "--workload is required";
    return false;
  }
  return true;
}

int run(int argc, char** argv) {
  Options opt;
  std::string problem;
  if (!parse_options(argc, argv, &opt, &problem)) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
    return 2;
  }
  // The library reads these to override the backend and pool width; a
  // measured run must use exactly the configuration it records.
  for (const char* var : {"ABE_EQUEUE", "ABE_TRIAL_THREADS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }

  Result r;
  Workload w;
  std::vector<double> setup_s;
  std::string digest;
  // At least kMinSetups set-ups and at least kMinSetupMs of them, so the
  // median of a cheap set-up rests on many samples.
  const Clock::time_point setups_start = Clock::now();
  for (int i = 0; i < kMinSetups ||
                  ms_between(setups_start, Clock::now()) < kMinSetupMs;
       ++i) {
    const double c0 = cpu_ms(CLOCK_PROCESS_CPUTIME_ID);
    if (!make_workload(opt.workload, opt.n, opt.sweep_trials, &w, &problem)) {
      std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
      return 2;
    }
    const std::string d = aggregate_digest(
        run_reference(w, w.trials_per_cell, w.pool_width));
    setup_s.push_back((cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - c0) / 1000.0);
    if (!digest.empty() && d != digest) {
      r.error(w.name + ": reference aggregate differs between set-ups (" +
              digest + " vs " + d + ")");
    }
    digest = d;
  }

  if (opt.record) {
    std::printf("{\"workload\": %s, \"n\": %zu, \"reference_digest\": %s}\n",
                json_string(w.name).c_str(), w.cells.front().topology.n,
                json_string(digest).c_str());
    return 0;
  }
  if (!opt.expect_digest.empty() && digest != opt.expect_digest) {
    r.error(w.name + ": reference aggregate digest " + digest +
            " does not match the recorded " + opt.expect_digest);
  }

  r.info.push_back({"workload", json_string(w.name)});
  r.info.push_back({"n", std::to_string(w.cells.front().topology.n)});
  r.info.push_back({"cells", std::to_string(w.cells.size())});
  r.info.push_back({"pool_width", std::to_string(w.pool_width)});
  r.info.push_back({"nproc", std::to_string(host_cores())});
  r.info.push_back({"compiler", json_string(PERFBENCH_COMPILER)});
  r.info.push_back({"build_type", json_string(PERFBENCH_BUILD_TYPE)});
  r.info.push_back({"reference_digest", json_string(digest)});
  std::ostringstream setups;
  setups << "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setups << (i ? ", " : "") << json_number(setup_s[i]);
  }
  setups << "]";
  r.info.push_back({"setup_samples_s", setups.str()});

  if (r.correct) {
    if (opt.trace) {
      traced_run(w, opt, &r);
    } else {
      r.metric("setup_s", median(setup_s), "s");
      untraced_run(w, opt, &r);
    }
  }
  print_result(r);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
