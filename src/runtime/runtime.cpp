#include "runtime/runtime.h"

#include <chrono>
#include <utility>

#include "runtime/wall_net.h"
#include "util/check.h"

namespace abe {

const char* runtime_kind_name(RuntimeKind kind) {
  switch (kind) {
    case RuntimeKind::kSim:
      return "sim";
    case RuntimeKind::kThread:
      return "thread";
    case RuntimeKind::kUdp:
      return "udp";
  }
  return "?";
}

bool runtime_kind_from_name(const std::string& name, RuntimeKind* out) {
  for (RuntimeKind kind :
       {RuntimeKind::kSim, RuntimeKind::kThread, RuntimeKind::kUdp}) {
    if (name == runtime_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// SimRuntime

NetworkConfig SimRuntime::to_network_config(RuntimeConfig config) {
  NetworkConfig net;
  net.plan = std::move(config.plan);
  net.delay = std::move(config.delay);
  net.adversary_delay = std::move(config.adversary_delay);
  net.ordering = config.ordering;
  net.clock_bounds = config.clock_bounds;
  net.drift = config.drift;
  net.processing = config.processing;
  net.enable_ticks = config.enable_ticks;
  net.tick_local_period = config.tick_local_period;
  net.loss_probability = config.loss_probability;
  net.seed = config.seed;
  net.equeue = config.equeue;
  net.metrics = config.metrics;
  net.causal_history = config.causal_history;
  net.timeseries_interval = config.timeseries_interval;
  return net;
}

SimRuntime::SimRuntime(RuntimeConfig config)
    : trace_(config.trace), net_(to_network_config(std::move(config))) {
  if (trace_) net_.trace().enable();
}

void SimRuntime::build_nodes(
    const std::function<NodePtr(std::size_t)>& factory) {
  net_.build_nodes(factory);
}

void SimRuntime::start() { net_.start(); }

bool SimRuntime::run_until_done(const std::function<bool()>& done,
                                SimTime deadline) {
  return net_.run_until(done, deadline);
}

void SimRuntime::run_for(SimTime duration) {
  net_.run_until([] { return false; }, net_.now() + duration);
}

bool SimRuntime::drain(SimTime max_wait) {
  const SimTime deadline = max_wait >= kTimeInfinity
                               ? kTimeInfinity
                               : net_.now() + max_wait;
  net_.run_until_quiescent(deadline);
  return net_.metrics().in_flight() == 0;
}

bool SimRuntime::terminated(std::size_t i) const {
  return const_cast<Network&>(net_).node(i).is_terminated();
}

RunStats SimRuntime::stats() const {
  const NetworkMetrics& m = net_.metrics();
  RunStats stats;
  stats.messages_sent = m.messages_sent;
  stats.messages_delivered = m.messages_delivered;
  stats.messages_dropped = m.messages_dropped;
  stats.ticks_fired = m.ticks_fired;
  stats.now = net_.now();
  return stats;
}

// ---------------------------------------------------------------------------
// Factory and trial loop

std::unique_ptr<Runtime> make_runtime(RuntimeKind kind,
                                      RuntimeConfig config) {
  switch (kind) {
    case RuntimeKind::kSim:
      return std::make_unique<SimRuntime>(std::move(config));
    case RuntimeKind::kThread:
    case RuntimeKind::kUdp:
      return std::make_unique<WallRuntime>(kind, std::move(config));
  }
  ABE_CHECK(false) << "unhandled runtime kind";
  return nullptr;
}

TrialOutcome run_algorithm_trial(RuntimeKind kind, RuntimeConfig config,
                                 AlgorithmDriver& driver, Trace* trace_out) {
  using WallClock = std::chrono::steady_clock;
  const auto ms_between = [](WallClock::time_point a, WallClock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  driver.configure(config);
  const SimTime deadline = config.deadline;
  const bool want_metrics = config.metrics;
  const auto wall_begin = WallClock::now();
  std::unique_ptr<Runtime> rt = make_runtime(kind, std::move(config));
  rt->build_nodes([&driver](std::size_t i) { return driver.make_node(i); });
  const auto wall_built = WallClock::now();
  rt->start();
  const bool completed =
      rt->run_until_done([&] { return driver.done(*rt); }, deadline);
  const auto wall_ran = WallClock::now();
  if (completed) driver.on_complete(*rt);
  // The decision's causal history must be snapshotted BEFORE the settle
  // phase: settle traffic keeps recording and would evict the decision
  // neighborhood from the lite flight ring. The decision NODE is only known
  // after extract(), so hold the whole (bounded) ring: one flat copy of its
  // POD records (trace/trace.h).
  Trace decided_trace;
  if (completed) decided_trace = rt->trace_snapshot();
  driver.settle(*rt, completed);
  rt->stop();
  const auto wall_settled = WallClock::now();
  TrialOutcome outcome = driver.extract(*rt, completed);
  // Observability harvest happens here, after extract(): wall phases and
  // metrics belong to the trial loop, not to individual drivers.
  outcome.wall.build_ms = ms_between(wall_begin, wall_built);
  outcome.wall.run_ms = ms_between(wall_built, wall_ran);
  outcome.wall.settle_ms = ms_between(wall_ran, wall_settled);
  // Computed from the SAME chained reads as the phases — one clock read
  // per phase boundary — so build + run + settle == total identically.
  outcome.wall.total_ms = ms_between(wall_begin, wall_settled);
  if (want_metrics) {
    outcome.metrics = rt->metrics_snapshot();
    outcome.has_metrics = true;
  }
  if (outcome.completed && outcome.decision_node >= 0) {
    // Decision-terminated critical path (obs/causal.h). Pure analysis of
    // the pre-settle snapshot: no RNG, no event reordering, so aggregates
    // are untouched; chains may be `truncated` in lite flight mode
    // (RuntimeConfig::causal_history widens the ring). Reads the snapshot's
    // ring in place.
    const CriticalPath path = extract_critical_path(
        decided_trace, NodeId{outcome.decision_node}, outcome.time);
    outcome.critical_path = CriticalPathStats::from_path(path);
    outcome.has_critical_path = true;
  }
  {
    TimeSeries series = rt->take_timeseries();
    if (series.enabled()) {
      series.trials = 1;
      outcome.timeseries = std::move(series);
      outcome.has_timeseries = true;
    }
  }
  if (!outcome.completed || outcome.stalled || !outcome.safety_ok) {
    // Failure forensics: dump the always-on flight recorder's recent
    // history so stalled or violating trials are diagnosable without
    // having pre-enabled tracing.
    outcome.flight_tail = rt->trace_snapshot().events();
  }
  if (trace_out != nullptr) *trace_out = rt->trace_snapshot();
  return outcome;
}

}  // namespace abe
