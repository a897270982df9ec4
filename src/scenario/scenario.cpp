#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <tuple>

#include "adversary/delay_policy.h"
#include "core/election.h"
#include "util/check.h"
#include "util/thread_annotations.h"

namespace abe {

// ---------------------------------------------------------------------------
// Topology axis

const char* topology_family_name(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::kRingUni:
      return "ring-uni";
    case TopologyFamily::kRingBi:
      return "ring-bi";
    case TopologyFamily::kLine:
      return "line";
    case TopologyFamily::kStar:
      return "star";
    case TopologyFamily::kComplete:
      return "complete";
    case TopologyFamily::kGrid:
      return "grid";
    case TopologyFamily::kTorus:
      return "torus";
    case TopologyFamily::kHypercube:
      return "hypercube";
    case TopologyFamily::kGnp:
      return "gnp";
    case TopologyFamily::kGeometric:
      return "rgg";
  }
  return "?";
}

TopologyFamily topology_family_from_name(const std::string& name) {
  for (TopologyFamily f :
       {TopologyFamily::kRingUni, TopologyFamily::kRingBi,
        TopologyFamily::kLine, TopologyFamily::kStar,
        TopologyFamily::kComplete, TopologyFamily::kGrid,
        TopologyFamily::kTorus, TopologyFamily::kHypercube,
        TopologyFamily::kGnp, TopologyFamily::kGeometric}) {
    if (name == topology_family_name(f)) return f;
  }
  ABE_CHECK(false) << "unknown topology family '" << name << "'";
  return TopologyFamily::kRingUni;
}

namespace {

// Near-square factoring for grid/torus sizes: the largest rows <= sqrt(n)
// dividing n. Prime sizes degrade to 1×n (rejected for the torus, which
// needs both sides >= 2).
void near_square(std::size_t n, std::size_t& rows, std::size_t& cols) {
  ABE_CHECK_GE(n, 1u);
  rows = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  while (rows > 1 && n % rows != 0) --rows;
  cols = n / rows;
}

std::size_t log2_exact(std::size_t n) {
  std::size_t dim = 0;
  while ((std::size_t{1} << dim) < n) ++dim;
  ABE_CHECK_EQ(std::size_t{1} << dim, n)
      << "hypercube size must be a power of two";
  return dim;
}

}  // namespace

Topology TopologySpec::build(Rng& rng) const {
  ABE_CHECK_GE(n, 1u);
  switch (family) {
    case TopologyFamily::kRingUni:
      return unidirectional_ring(n);
    case TopologyFamily::kRingBi:
      return bidirectional_ring(n);
    case TopologyFamily::kLine:
      return line(n);
    case TopologyFamily::kStar:
      return star(n);
    case TopologyFamily::kComplete:
      return complete(n);
    case TopologyFamily::kGrid: {
      std::size_t rows = 0, cols = 0;
      near_square(n, rows, cols);
      return grid(rows, cols);
    }
    case TopologyFamily::kTorus: {
      std::size_t rows = 0, cols = 0;
      near_square(n, rows, cols);
      return torus(rows, cols);
    }
    case TopologyFamily::kHypercube:
      return hypercube(log2_exact(n));
    case TopologyFamily::kGnp: {
      // Default density: comfortably above the ln(n)/n connectivity
      // threshold so the resample loop rarely iterates.
      const double log_n =
          std::log(static_cast<double>(n < 2 ? 2 : n));
      const double p =
          param > 0.0
              ? param
              : std::min(1.0, 2.0 * log_n / static_cast<double>(n));
      return random_connected(n, p, rng);
    }
    case TopologyFamily::kGeometric: {
      // Default radius: just above the sqrt(ln n / (π n)) connectivity
      // threshold; random_geometric grows it further if the draw is unlucky.
      const double r =
          param > 0.0
              ? param
              : std::sqrt(2.0 * std::log(static_cast<double>(n < 2 ? 2 : n)) /
                          (3.14159265358979323846 * static_cast<double>(n)));
      return random_geometric(n, r, rng);
    }
  }
  ABE_CHECK(false) << "unhandled topology family";
  return Topology{};
}

bool TopologySpec::is_random() const {
  return family == TopologyFamily::kGnp ||
         family == TopologyFamily::kGeometric;
}

namespace {

// trial_plan's cache: the most recently used plan first.
class PlanCache {
 public:
  std::shared_ptr<const NetworkPlan> get(const TopologySpec& spec) {
    const Key key{spec.family, spec.n, spec.param};
    {
      MutexLock lock(mutex_);
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->key == key) {
          std::rotate(entries_.begin(), it, it + 1);
          return entries_.front().plan;
        }
      }
    }
    // Built outside the lock: a deterministic family's rng is never read.
    Rng unused(0);
    std::shared_ptr<const NetworkPlan> plan = make_plan(spec.build(unused));
    MutexLock lock(mutex_);
    for (const Entry& entry : entries_) {
      if (entry.key == key) return entry.plan;  // another thread won
    }
    if (entries_.size() == kPlanCacheCapacity) entries_.pop_back();
    entries_.insert(entries_.begin(), Entry{key, plan});
    return plan;
  }

  std::size_t size() {
    MutexLock lock(mutex_);
    return entries_.size();
  }

 private:
  using Key = std::tuple<TopologyFamily, std::size_t, double>;
  struct Entry {
    Key key;
    std::shared_ptr<const NetworkPlan> plan;
  };
  AnnotatedMutex mutex_;
  std::vector<Entry> entries_ GUARDED_BY(mutex_);
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const NetworkPlan> trial_plan(const TopologySpec& topology,
                                              std::uint64_t seed) {
  if (!topology.is_random()) return plan_cache().get(topology);
  Rng rng = Rng(seed).substream("scenario-topology");
  return make_plan(topology.build(rng));
}

std::size_t cached_plan_count() { return plan_cache().size(); }

std::string TopologySpec::problem() const {
  if (n < 1) return "topology size must be >= 1";
  switch (family) {
    case TopologyFamily::kHypercube: {
      if ((n & (n - 1)) != 0) {
        return "hypercube size must be a power of two, got " +
               std::to_string(n);
      }
      return "";
    }
    case TopologyFamily::kTorus: {
      std::size_t rows = 0, cols = 0;
      near_square(n, rows, cols);
      if (rows < 2) {
        return "torus size must factor into rows x cols with both >= 2, "
               "got " +
               std::to_string(n);
      }
      return "";
    }
    case TopologyFamily::kGnp:
      if (param > 1.0) return "gnp edge probability must be <= 1";
      return "";
    default:
      return "";
  }
}

std::string TopologySpec::describe() const {
  std::ostringstream os;
  os << topology_family_name(family) << "-" << n;
  if (param > 0.0 &&
      (family == TopologyFamily::kGnp ||
       family == TopologyFamily::kGeometric)) {
    os << (family == TopologyFamily::kGnp ? "(p=" : "(r=") << param << ")";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Failure-injection axis

FailureProfile FailureProfile::loss(double p) {
  ABE_CHECK_GE(p, 0.0);
  ABE_CHECK_LT(p, 1.0);
  FailureProfile f;
  f.kind = Kind::kLoss;
  f.loss_probability = p;
  return f;
}

FailureProfile FailureProfile::degrade(double probability, double factor) {
  ABE_CHECK_GE(probability, 0.0);
  ABE_CHECK_LE(probability, 1.0);
  ABE_CHECK_GE(factor, 1.0);
  FailureProfile f;
  f.kind = Kind::kDegrade;
  f.degrade_probability = probability;
  f.degrade_factor = factor;
  return f;
}

namespace {

// Congestion events as a delay transform: with probability q a message's
// sampled delay is stretched by `factor`. Still an admissible ABE delay —
// the advertised mean degrades by the same transform, so algorithms that
// only rely on the expected bound keep their guarantees (the point of the
// failure axis).
class DegradedDelay final : public DelayModel {
 public:
  DegradedDelay(DelayModelPtr base, double probability, double factor)
      : base_(std::move(base)), probability_(probability), factor_(factor) {}

  double sample(Rng& rng) const override {
    const double d = base_->sample(rng);
    return rng.bernoulli(probability_) ? d * factor_ : d;
  }
  double mean_delay() const override {
    return base_->mean_delay() *
           (1.0 + probability_ * (factor_ - 1.0));
  }
  bool bounded() const override { return base_->bounded(); }
  double worst_case() const override {
    return base_->worst_case() * factor_;
  }
  std::string name() const override {
    return base_->name() + "+degrade";
  }

 private:
  DelayModelPtr base_;
  double probability_;
  double factor_;
};

}  // namespace

DelayModelPtr FailureProfile::apply(DelayModelPtr base) const {
  if (kind != Kind::kDegrade || degrade_probability == 0.0 ||
      degrade_factor == 1.0) {
    return base;
  }
  return std::make_shared<DegradedDelay>(std::move(base),
                                         degrade_probability,
                                         degrade_factor);
}

namespace {

// Longest-prefix double parse; returns false when nothing was consumed or
// the value is negative (no failure knob is). strtod would happily consume
// hexadecimal floats ("0x1" -> 1.0), but this grammar uses 'x' as a field
// separator ("degrade-<q>x<f>"), so the scan stops at the first 'x'.
bool parse_failure_number(const char* text, double* value,
                          const char** rest) {
  std::string token(text);
  const std::size_t cut = token.find_first_of("xX");
  if (cut != std::string::npos) token.resize(cut);
  char* end = nullptr;
  const double parsed = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || parsed < 0.0) return false;
  *value = parsed;
  *rest = text + (end - token.c_str());
  return true;
}

}  // namespace

bool FailureProfile::parse(const std::string& text, FailureProfile* out) {
  ABE_CHECK(out != nullptr);
  if (text == "none") {
    *out = FailureProfile::none();
    return true;
  }
  if (text.rfind("loss-", 0) == 0) {
    double p = 0.0;
    const char* rest = nullptr;
    if (!parse_failure_number(text.c_str() + 5, &p, &rest)) return false;
    if (*rest != '\0' || p > 1.0) return false;
    // Direct field construction, not the loss() factory: the factory
    // rejects p = 1 (an everything-lost sweep cell is useless), but
    // describe()/parse() must round-trip any profile that already exists —
    // the network layer accepts the full closed interval.
    FailureProfile f;
    f.kind = Kind::kLoss;
    f.loss_probability = p;
    *out = f;
    return true;
  }
  if (text.rfind("degrade-", 0) == 0) {
    double q = 0.0, factor = 0.0;
    const char* rest = nullptr;
    if (!parse_failure_number(text.c_str() + 8, &q, &rest)) return false;
    if (*rest != 'x' || q > 1.0) return false;
    if (!parse_failure_number(rest + 1, &factor, &rest)) return false;
    if (*rest != '\0' || factor < 1.0) return false;
    FailureProfile f;
    f.kind = Kind::kDegrade;
    f.degrade_probability = q;
    f.degrade_factor = factor;
    *out = f;
    return true;
  }
  return false;
}

std::string FailureProfile::describe() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kLoss:
      os << "loss-" << loss_probability;
      return os.str();
    case Kind::kDegrade:
      os << "degrade-" << degrade_probability << "x" << degrade_factor;
      return os.str();
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Algorithm axis

const char* scenario_algorithm_name(ScenarioAlgorithm algorithm) {
  switch (algorithm) {
    case ScenarioAlgorithm::kRingElection:
      return "abe-ring";
    case ScenarioAlgorithm::kPollingElection:
      return "polling";
    case ScenarioAlgorithm::kGossip:
      return "gossip";
    case ScenarioAlgorithm::kBetaSync:
      return "beta-sync";
    case ScenarioAlgorithm::kUnsafeToy:
      return "unsafe-toy";
  }
  return "?";
}

ScenarioAlgorithm scenario_algorithm_from_name(const std::string& name) {
  for (ScenarioAlgorithm a :
       {ScenarioAlgorithm::kRingElection, ScenarioAlgorithm::kPollingElection,
        ScenarioAlgorithm::kGossip, ScenarioAlgorithm::kBetaSync,
        ScenarioAlgorithm::kUnsafeToy}) {
    if (name == scenario_algorithm_name(a)) return a;
  }
  ABE_CHECK(false) << "unknown scenario algorithm '" << name << "'";
  return ScenarioAlgorithm::kRingElection;
}

bool scenario_algorithm_supports(ScenarioAlgorithm algorithm,
                                 TopologyFamily family) {
  switch (algorithm) {
    case ScenarioAlgorithm::kRingElection:
      // The paper's election forwards on a node's single out-channel.
      return family == TopologyFamily::kRingUni;
    case ScenarioAlgorithm::kPollingElection:
      // The tree echo needs a reverse channel per tree edge; every builder
      // except the unidirectional ring emits both directions.
      return family != TopologyFamily::kRingUni;
    case ScenarioAlgorithm::kGossip:
      return true;
    case ScenarioAlgorithm::kBetaSync:
      // β acks every app message and talks both ways along its tree.
      return family != TopologyFamily::kRingUni;
    case ScenarioAlgorithm::kUnsafeToy:
      // Pinned to the paper's topology: the toy exists to exercise the
      // ring safety probe, not to be a real algorithm.
      return family == TopologyFamily::kRingUni;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Spec rendering

std::string DriftBand::describe() const {
  if (model == DriftModel::kNone) return "ideal";
  std::ostringstream os;
  os << drift_model_name(model) << "[" << bounds.s_low << "," << bounds.s_high
     << "]";
  return os.str();
}

std::string ScenarioSpec::cell_id() const {
  std::ostringstream os;
  os << scenario_algorithm_name(algorithm) << "/" << topology.describe()
     << "/" << delay_name << "/" << DriftBand{clock_bounds, drift}.describe()
     << "/" << failure.describe();
  if (equeue != EqueueBackend::kAuto) {
    os << "/eq-" << equeue_backend_name(equeue);
  }
  if (runtime != RuntimeKind::kSim) {
    os << "/rt-" << runtime_kind_name(runtime);
    // ARQ reliable mode changes what a udp cell measures (goodput under
    // retransmission vs raw loss), so it re-keys the cell.
    if (runtime == RuntimeKind::kUdp && udp_reliable) os << "/arq";
  }
  if (!behavior.is_honest()) {
    os << "/beh-" << behavior.describe();
  }
  if (!adversary.empty()) {
    os << "/adv-" << adversary;
  }
  return os.str();
}

std::string behavior_cell_problem(const ScenarioSpec& spec) {
  if (!spec.behavior.is_honest()) {
    const std::string problem = spec.behavior.problem(spec.topology.n);
    if (!problem.empty()) return problem;
    if (spec.algorithm != ScenarioAlgorithm::kRingElection &&
        spec.algorithm != ScenarioAlgorithm::kUnsafeToy) {
      return std::string("behavior profiles are realised for the ring "
                         "election only; ") +
             scenario_algorithm_name(spec.algorithm) +
             " keeps honest-run invariants as hard checks";
    }
  }
  if (!spec.adversary.empty()) {
    bool known = false;
    make_named_adversary(spec.adversary, /*bound=*/1.0, &known);
    if (!known) {
      return "unknown adversary policy '" + spec.adversary +
             "' (known: targeted, burst-stall)";
    }
  }
  return "";
}

std::string runtime_cell_problem(const ScenarioSpec& spec) {
  if (spec.runtime == RuntimeKind::kSim) return "";
  const bool udp = spec.runtime == RuntimeKind::kUdp;
  if (spec.drift == DriftModel::kPiecewiseRandom) {
    if (udp) {
      return "udp runtime realises clocks as scaled wall time; "
             "piecewise-random drift is impossible there (use kNone or "
             "kFixedRandomRate)";
    }
    return "thread runtime realises clocks as scaled wall time; "
           "piecewise-random drift is impossible there (use kNone or "
           "kFixedRandomRate)";
  }
  if (spec.equeue != EqueueBackend::kAuto) {
    if (udp) {
      return "the event-queue backend is a simulator scheduler knob; udp "
             "cells must keep equeue=auto";
    }
    return "the event-queue backend is a simulator scheduler knob; thread "
           "cells must keep equeue=auto";
  }
  if (udp) {
    if (spec.topology.n > kMaxUdpRuntimeNodes) {
      return "n=" + std::to_string(spec.topology.n) +
             " exceeds the per-node socket/port budget (max " +
             std::to_string(kMaxUdpRuntimeNodes) +
             ": one loopback socket and two OS threads per node)";
    }
  } else if (spec.topology.n > kMaxThreadRuntimeNodes) {
    return "n=" + std::to_string(spec.topology.n) +
           " exceeds the one-OS-thread-per-node budget (max " +
           std::to_string(kMaxThreadRuntimeNodes) + ")";
  }
  if (spec.thread_time_scale_us <= 0.0 || spec.thread_wall_timeout_ms <= 0.0) {
    return "thread_time_scale_us and thread_wall_timeout_ms must be > 0";
  }
  return "";
}

std::string ScenarioSpec::describe() const {
  std::ostringstream os;
  os << "scenario : " << (name.empty() ? cell_id() : name) << "\n";
  if (!description.empty()) os << "about    : " << description << "\n";
  os << "cell     : " << cell_id() << "\n"
     << "algorithm: " << scenario_algorithm_name(algorithm) << "\n"
     << "topology : " << topology.describe() << "\n"
     << "delay    : " << delay_name << " (mean " << mean_delay << ")\n"
     << "clocks   : " << DriftBand{clock_bounds, drift}.describe() << "\n"
     << "process  : gamma=" << processing.mean << "\n"
     << "failure  : " << failure.describe() << "\n"
     << "behavior : " << behavior.describe() << "\n"
     << "adversary: " << (adversary.empty() ? "none" : adversary) << "\n";
  if (algorithm == ScenarioAlgorithm::kRingElection) {
    os << "a0       : "
       << (a0 > 0.0 ? std::to_string(a0)
                    : "calibrated c/n^2 (linear regime)")
       << "\n";
  }
  os << "equeue   : " << equeue_backend_name(equeue) << "\n"
     << "runtime  : " << runtime_kind_name(runtime)
     << (runtime == RuntimeKind::kUdp && udp_reliable ? " (arq reliable)" : "")
     << "\n";
  // Structural runtime compatibility, mirroring the algorithm×topology
  // filter: say up front why a thread or udp run of this cell would be
  // rejected instead of letting the user hit a bare error.
  {
    ScenarioSpec threaded = *this;
    threaded.runtime = RuntimeKind::kThread;
    const std::string problem = runtime_cell_problem(threaded);
    os << "thread?  : "
       << (problem.empty() ? "ok (--runtime thread)" : "rejected — " + problem)
       << "\n";
  }
  {
    ScenarioSpec udp = *this;
    udp.runtime = RuntimeKind::kUdp;
    const std::string problem = runtime_cell_problem(udp);
    os << "udp?     : "
       << (problem.empty() ? "ok (--runtime udp)" : "rejected — " + problem)
       << "\n";
  }
  os << "trials   : " << default_trials << " (default)\n"
     << "deadline : " << deadline << "\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Registry

namespace {

ScenarioSpec make_spec(std::string name, std::string description,
                       ScenarioAlgorithm algorithm, TopologySpec topology) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.algorithm = algorithm;
  s.topology = topology;
  return s;
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> reg;

  // The paper's baseline: probabilistic election on the anonymous ring.
  reg.push_back(make_spec(
      "ring-election",
      "paper Section 3: probabilistic election, anonymous uni ring",
      ScenarioAlgorithm::kRingElection,
      TopologySpec{TopologyFamily::kRingUni, 16, 0.0}));

  // Migrated from examples/sensor_network.cpp: lossy-radio MAC (geometric
  // retransmission delay), drifting oscillators, slow CPUs.
  {
    ScenarioSpec s = make_spec(
        "sensor-network",
        "migrated example: election over a lossy-MAC ring (case iii)",
        ScenarioAlgorithm::kRingElection,
        TopologySpec{TopologyFamily::kRingUni, 32, 0.0});
    s.delay_name = "georetx";
    s.mean_delay = 1.0 / 0.6;  // slot/p with p = 0.6
    s.clock_bounds = ClockBounds{1.0 / 1.5, 1.5};
    s.drift = DriftModel::kPiecewiseRandom;
    s.processing = ProcessingModel::exponential(0.05);
    s.settle_time = 50.0;
    reg.push_back(std::move(s));
  }

  // Migrated from examples/adhoc_field.cpp: rumor spreading over a random
  // sensor field with heavy-ish wireless retry delays.
  {
    ScenarioSpec s = make_spec(
        "adhoc-field",
        "migrated example: push gossip over a random geometric field",
        ScenarioAlgorithm::kGossip,
        TopologySpec{TopologyFamily::kGeometric, 36, 0.25});
    s.delay_name = "weibull";
    s.clock_bounds = ClockBounds{0.8, 1.25};
    s.drift = DriftModel::kPiecewiseRandom;
    s.deadline = 1e6;
    reg.push_back(std::move(s));
  }

  // The polling baseline across the general-graph families.
  reg.push_back(make_spec(
      "polling-ring",
      "polling election (broadcast/echo + extinction) on the bi ring",
      ScenarioAlgorithm::kPollingElection,
      TopologySpec{TopologyFamily::kRingBi, 16, 0.0}));
  reg.push_back(make_spec(
      "polling-torus", "polling election on an 8x8 torus",
      ScenarioAlgorithm::kPollingElection,
      TopologySpec{TopologyFamily::kTorus, 64, 0.0}));
  reg.push_back(make_spec(
      "polling-hypercube", "polling election on the 6-cube",
      ScenarioAlgorithm::kPollingElection,
      TopologySpec{TopologyFamily::kHypercube, 64, 0.0}));
  reg.push_back(make_spec(
      "polling-rgg", "polling election on a random geometric graph",
      ScenarioAlgorithm::kPollingElection,
      TopologySpec{TopologyFamily::kGeometric, 64, 0.0}));
  {
    ScenarioSpec s = make_spec(
        "polling-heavytail",
        "polling election under Lomax (infinite-variance) delays",
        ScenarioAlgorithm::kPollingElection,
        TopologySpec{TopologyFamily::kTorus, 64, 0.0});
    s.delay_name = "lomax";
    reg.push_back(std::move(s));
  }

  // Synchronizer workload: β-coordinated max consensus on a mesh — the
  // Theorem 1 cost floor (≥ n messages per round) as a sweepable cell.
  reg.push_back(make_spec(
      "beta-sync-torus",
      "beta-synchronized max consensus, diameter rounds on a 4x4 torus",
      ScenarioAlgorithm::kBetaSync,
      TopologySpec{TopologyFamily::kTorus, 16, 0.0}));

  // Robustness single: the ring election self-recovers from message loss
  // (a lost token only delays the next activation), unlike polling.
  {
    ScenarioSpec s = make_spec(
        "ring-lossy", "ring election surviving silent message loss",
        ScenarioAlgorithm::kRingElection,
        TopologySpec{TopologyFamily::kRingUni, 16, 0.0});
    s.failure = FailureProfile::loss(0.005);
    // Loss opens a deadlock corner (every node passive, every token lost).
    // Passive nodes demand no ticks, so such a trial drains the scheduler
    // as soon as its last token dies and is classified stalled; elections
    // normally finish by t ≈ 50, and the deadline bounds everything else.
    s.deadline = 2e4;
    reg.push_back(std::move(s));
  }

  return reg;
}

}  // namespace

const std::vector<ScenarioSpec>& scenario_registry() {
  static const std::vector<ScenarioSpec> kRegistry = build_registry();
  return kRegistry;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& s : scenario_registry()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Matrix

std::vector<ScenarioSpec> ScenarioMatrix::expand() const {
  ABE_CHECK(!algorithms.empty());
  ABE_CHECK(!topologies.empty());
  ABE_CHECK(!delays.empty());
  std::vector<DriftBand> drift_axis = drifts;
  if (drift_axis.empty()) drift_axis.push_back(DriftBand{});
  std::vector<FailureProfile> failure_axis = failures;
  if (failure_axis.empty()) failure_axis.push_back(FailureProfile::none());
  std::vector<EqueueBackend> equeue_axis = equeues;
  if (equeue_axis.empty()) equeue_axis.push_back(base.equeue);
  std::vector<RuntimeKind> runtime_axis = runtimes;
  if (runtime_axis.empty()) runtime_axis.push_back(base.runtime);
  std::vector<BehaviorSpec> behavior_axis = behaviors;
  if (behavior_axis.empty()) behavior_axis.push_back(base.behavior);
  std::vector<std::string> adversary_axis = adversaries;
  if (adversary_axis.empty()) adversary_axis.push_back(base.adversary);

  std::vector<ScenarioSpec> cells;
  for (ScenarioAlgorithm algorithm : algorithms) {
    for (const TopologySpec& topology : topologies) {
      if (!scenario_algorithm_supports(algorithm, topology.family)) continue;
      for (const auto& [delay_name, mean] : delays) {
        for (const DriftBand& drift : drift_axis) {
          for (const FailureProfile& failure : failure_axis) {
            for (EqueueBackend equeue : equeue_axis) {
              for (RuntimeKind runtime : runtime_axis) {
                for (const BehaviorSpec& behavior : behavior_axis) {
                  for (const std::string& adversary : adversary_axis) {
                    ScenarioSpec cell = base;
                    cell.name.clear();
                    cell.description = description;
                    cell.algorithm = algorithm;
                    cell.topology = topology;
                    cell.delay_name = delay_name;
                    cell.mean_delay = mean;
                    cell.clock_bounds = drift.bounds;
                    cell.drift = drift.model;
                    cell.failure = failure;
                    cell.equeue = equeue;
                    cell.runtime = runtime;
                    cell.behavior = behavior;
                    cell.adversary = adversary;
                    // Same silent-filter policy as algorithm×topology: a
                    // broad {sim, thread} axis keeps only its realisable
                    // half, and a behavior axis keeps only the algorithms
                    // that realise the profile.
                    if (!runtime_cell_problem(cell).empty()) continue;
                    if (!behavior_cell_problem(cell).empty()) continue;
                    cells.push_back(std::move(cell));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

namespace {

std::vector<ScenarioMatrix> build_sweeps() {
  std::vector<ScenarioMatrix> sweeps;

  // The headline sweep: both elections across the four graph families and
  // the bounded/memoryless/heavy-tailed delay triple (ISSUE 3 acceptance).
  {
    ScenarioMatrix m;
    m.name = "robustness";
    m.description =
        "ring + polling elections x {ring, torus, hypercube, rgg} x "
        "{fixed, exponential, lomax} delays";
    m.algorithms = {ScenarioAlgorithm::kRingElection,
                    ScenarioAlgorithm::kPollingElection};
    m.topologies = {TopologySpec{TopologyFamily::kRingUni, 16, 0.0},
                    TopologySpec{TopologyFamily::kRingBi, 16, 0.0},
                    TopologySpec{TopologyFamily::kTorus, 16, 0.0},
                    TopologySpec{TopologyFamily::kHypercube, 16, 0.0},
                    TopologySpec{TopologyFamily::kGeometric, 16, 0.0}};
    m.delays = {{"fixed", 1.0}, {"exponential", 1.0}, {"lomax", 1.0}};
    sweeps.push_back(std::move(m));
  }

  // Clock-drift band sweep (Definition 1(2) axis).
  {
    ScenarioMatrix m;
    m.name = "drift";
    m.description = "elections under ideal, fixed-rate and wandering clocks";
    m.algorithms = {ScenarioAlgorithm::kRingElection,
                    ScenarioAlgorithm::kPollingElection};
    m.topologies = {TopologySpec{TopologyFamily::kRingUni, 16, 0.0},
                    TopologySpec{TopologyFamily::kTorus, 16, 0.0}};
    m.delays = {{"exponential", 1.0}};
    m.drifts = {DriftBand{},
                DriftBand{ClockBounds{0.8, 1.25},
                          DriftModel::kFixedRandomRate},
                DriftBand{ClockBounds{2.0 / 3.0, 1.5},
                          DriftModel::kPiecewiseRandom}};
    sweeps.push_back(std::move(m));
  }

  // Failure-injection sweep: the ring election recovers from loss (idle
  // nodes keep re-activating), the polling tree does not (a lost WAKE or
  // ECHO stalls the convergecast) — the robustness contrast in one matrix.
  {
    ScenarioMatrix m;
    m.name = "failure";
    m.description =
        "elections under silent loss and congestion-degraded delays";
    m.algorithms = {ScenarioAlgorithm::kRingElection,
                    ScenarioAlgorithm::kPollingElection};
    m.topologies = {TopologySpec{TopologyFamily::kRingUni, 16, 0.0},
                    TopologySpec{TopologyFamily::kTorus, 16, 0.0},
                    TopologySpec{TopologyFamily::kGeometric, 16, 0.0}};
    m.delays = {{"exponential", 1.0}};
    m.failures = {FailureProfile::none(), FailureProfile::loss(0.005),
                  FailureProfile::degrade(0.1, 20.0)};
    // Same fail-fast deadline as the ring-lossy scenario: lossy cells can
    // deadlock.
    m.base.deadline = 2e4;
    sweeps.push_back(std::move(m));
  }

  // Cross-runtime fidelity sweep: the same election cells on the
  // deterministic simulator AND on real threads (one OS thread per node,
  // wall-clock delays), reliable and lossy. The ABE model's claim to sit
  // between pure asynchrony and real networks is only credible if the two
  // substrates agree at the model level — leader uniqueness, completion,
  // message counts in the same regime (bit-level agreement is impossible:
  // wall-clock runs are nondeterministic by design).
  {
    ScenarioMatrix m;
    m.name = "cross-runtime";
    m.description =
        "ring + polling elections x {reliable, lossy} x {sim, thread}";
    m.algorithms = {ScenarioAlgorithm::kRingElection,
                    ScenarioAlgorithm::kPollingElection};
    m.topologies = {TopologySpec{TopologyFamily::kRingUni, 8, 0.0},
                    TopologySpec{TopologyFamily::kTorus, 9, 0.0}};
    m.delays = {{"exponential", 1.0}};
    m.failures = {FailureProfile::none(), FailureProfile::loss(0.01)};
    m.runtimes = {RuntimeKind::kSim, RuntimeKind::kThread};
    // Lossy cells can stall (see the failure sweep); fail fast on both
    // substrates — the sim deadline scales to a ~4 s wall budget per
    // thread trial, under the 10 s hard cap.
    m.base.default_trials = 4;
    m.base.deadline = 2e4;
    m.base.thread_wall_timeout_ms = 10000.0;
    sweeps.push_back(std::move(m));
  }

  // Real-socket sweep (ISSUE 10 acceptance): ring election over actual
  // loopback UDP datagrams, reliable channels and injected per-attempt
  // loss. The whole sweep runs in ARQ reliable mode, so the lossy cell
  // degrades into retransmissions (goodput loss, arq.rtt inflation)
  // instead of dropped messages — every cell must classify completed, and
  // every per-cell metrics block carries the measured udp.transit_us delay
  // histogram that the calibration path (fit_udp_calibration) feeds back
  // into DelayModel parameters.
  {
    ScenarioMatrix m;
    m.name = "udp-loopback";
    m.description =
        "ring election over real loopback datagrams, ARQ reliable, "
        "{no-loss, loss-0.05}";
    m.algorithms = {ScenarioAlgorithm::kRingElection};
    m.topologies = {TopologySpec{TopologyFamily::kRingUni, 8, 0.0}};
    m.delays = {{"exponential", 1.0}};
    m.failures = {FailureProfile::none(), FailureProfile::loss(0.05)};
    m.runtimes = {RuntimeKind::kUdp};
    m.base.udp_reliable = true;
    // Same fail-fast budgets as the cross-runtime sweep: the sim deadline
    // scales to a ~4 s wall budget per trial, under the 10 s hard cap.
    m.base.default_trials = 4;
    m.base.deadline = 2e4;
    m.base.thread_wall_timeout_ms = 10000.0;
    sweeps.push_back(std::move(m));
  }

  // Adversarial sweep: the ring election under node misbehavior (one
  // crashing / equivocating / reordering node) combined with a
  // bound-respecting targeted delay adversary, on both substrates. The
  // safety probe classifies every trial as completed-safe, stalled (a
  // crashed node kills token circulation — the ring goes quiescent with no
  // leader), failed, or SAFETY-VIOLATION; violations record replayable
  // seeds in the sweep JSON. Crash cells must show zero violations —
  // crashing is the benign fault the election's knockout logic already
  // absorbs; the Byzantine profiles are the probe's reason to exist.
  {
    ScenarioMatrix m;
    m.name = "adversary";
    m.description =
        "ring election x {crash, equivocate, reorder} x targeted-delay "
        "adversary x {sim, thread}";
    m.algorithms = {ScenarioAlgorithm::kRingElection};
    m.topologies = {TopologySpec{TopologyFamily::kRingUni, 8, 0.0}};
    m.delays = {{"exponential", 1.0}};
    m.behaviors = {BehaviorSpec{BehaviorProfile::kCrashAtT, 1, 50.0},
                   BehaviorSpec{BehaviorProfile::kEquivocate, 1, 0.0},
                   BehaviorSpec{BehaviorProfile::kReorder, 1, 4.0}};
    m.adversaries = {"targeted"};
    m.runtimes = {RuntimeKind::kSim, RuntimeKind::kThread};
    // Crash cells can stall (tokens die at the crashed node until no idle
    // node is left); fail fast on both substrates, same budget rationale
    // as the cross-runtime sweep.
    m.base.default_trials = 4;
    m.base.deadline = 2e4;
    m.base.thread_wall_timeout_ms = 10000.0;
    sweeps.push_back(std::move(m));
  }

  // Scale sweep (ISSUE 4 acceptance): the n >= 10^4 cells the ROADMAP
  // deferred until an O(1) event queue existed. Polling election on big
  // tori, crossed with every equeue backend: the aggregates must be
  // bit-identical across the backend axis (and across thread counts —
  // test_scenario asserts both), so the axis measures pure scheduler
  // throughput on a workload whose pending set actually reaches the
  // calendar/ladder regime.
  {
    ScenarioMatrix m;
    m.name = "scale";
    m.description =
        "polling election at n in {10^4, 3x10^4} x every equeue backend";
    m.algorithms = {ScenarioAlgorithm::kPollingElection};
    m.topologies = {TopologySpec{TopologyFamily::kTorus, 10000, 0.0},
                    TopologySpec{TopologyFamily::kTorus, 30000, 0.0}};
    m.delays = {{"exponential", 1.0}};
    m.equeues = {EqueueBackend::kHeap, EqueueBackend::kCalendar,
                 EqueueBackend::kLadder};
    m.base.default_trials = 4;
    sweeps.push_back(std::move(m));
  }

  return sweeps;
}

}  // namespace

const std::vector<ScenarioMatrix>& sweep_registry() {
  static const std::vector<ScenarioMatrix> kSweeps = build_sweeps();
  return kSweeps;
}

const ScenarioMatrix* find_sweep(const std::string& name) {
  for (const ScenarioMatrix& m : sweep_registry()) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace abe
