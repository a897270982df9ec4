// Declarative scenario engine: named, sweepable experiment specifications.
//
// A ScenarioSpec pins down one cell of the experiment space the paper's
// claims live in — topology family × size × delay model × clock-drift band
// × failure-injection profile × algorithm — as plain data. Cells come from
// three places:
//   * the built-in registry (scenario_registry()): named, documented
//     deployments (the sensor-network and adhoc-field deployments among
//     them), each runnable as a tier-1 test cell so it can never rot;
//   * a ScenarioMatrix (sweep_registry()): axes that expand() multiplies
//     into the compatible subset of cells — the sweep driver in sweep.h
//     runs them with seed-ordered, bit-identical aggregation;
//   * ad-hoc construction in tests and benches.
//
// A spec is the only description of a trial's environment:
// scenario_runtime_config (scenario/drivers.h) turns it into the
// RuntimeConfig that runtimes and algorithm drivers read.
//
// Algorithms: the paper's probabilistic ring election (core/election),
// the polling general-graph election the impossibility theorem forces
// (algo/polling_election), and push gossip (algo/gossip) for broadcast
// workloads. Compatibility is structural: the ring election needs the
// unidirectional ring, the polling election needs reverse channels for its
// tree echo, gossip runs anywhere strongly connected; expand() filters
// silently-impossible combinations out so a matrix can name broad axes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/behavior.h"
#include "clock/local_clock.h"
#include "net/delay.h"
#include "net/network.h"
#include "net/plan.h"
#include "net/topology.h"
#include "runtime/runtime.h"
#include "sim/equeue/backend.h"
#include "sim/time.h"

namespace abe {

// ---------------------------------------------------------------------------
// Topology axis

enum class TopologyFamily : std::uint8_t {
  kRingUni,     // the paper's setting
  kRingBi,
  kLine,
  kStar,
  kComplete,
  kGrid,        // near-square rows×cols
  kTorus,       // near-square rows×cols with wraparound
  kHypercube,   // n must be a power of two
  kGnp,         // Erdős–Rényi, param = edge probability
  kGeometric,   // random geometric graph, param = radius
};

const char* topology_family_name(TopologyFamily family);
// Parses the names printed by topology_family_name; aborts on unknown.
TopologyFamily topology_family_from_name(const std::string& name);

struct TopologySpec {
  TopologyFamily family = TopologyFamily::kRingUni;
  std::size_t n = 8;
  // gnp: edge probability; geometric: radius; ignored elsewhere.
  double param = 0.0;

  // Materialises the topology. `rng` feeds the random families only, so
  // fixed families are deterministic regardless of it; random families are
  // deterministic given the rng state. Grid/torus sizes must factor into
  // rows*cols (near-square, see .cpp); hypercube sizes must be powers of 2.
  // Aborts on size constraint violations — gate user-supplied sizes with
  // problem() first.
  Topology build(Rng& rng) const;

  // Empty when build() would succeed; otherwise a human-readable reason
  // (non-power-of-two hypercube, prime torus size, …). The validation
  // boundary for user input (CLI overrides), where aborting is rude.
  std::string problem() const;

  std::string describe() const;  // "torus-64", "rgg-36(r=0.25)", …

  // True for the families whose graph depends on the rng: gnp, geometric.
  bool is_random() const;
};

// The graph of trial `seed` of a cell on `topology`, as a shared plan
// (net/plan.h). The rng build() gets is the seed's "scenario-topology"
// substream, so the graph draw is independent of the network's own
// randomness. Random families build a fresh plan per call. Every other
// family's graph is the same for every seed: its plan comes from a process
// cache keyed by (family, n, param) that holds at most kPlanCacheCapacity
// plans, evicting the least recently used, so the trials of one cell — on
// any number of trial-pool threads — share one plan. Thread-safe.
std::shared_ptr<const NetworkPlan> trial_plan(const TopologySpec& topology,
                                              std::uint64_t seed);
constexpr std::size_t kPlanCacheCapacity = 8;
// Plans trial_plan's cache holds now (at most kPlanCacheCapacity).
std::size_t cached_plan_count();

// ---------------------------------------------------------------------------
// Failure-injection axis

struct FailureProfile {
  enum class Kind : std::uint8_t {
    kNone,     // the paper's reliable-channel regime
    kLoss,     // each send attempt silently dropped with `loss_probability`
    kDegrade,  // each message, with `degrade_probability`, takes
               // `degrade_factor` × the sampled delay (congestion events)
  };
  Kind kind = Kind::kNone;
  double loss_probability = 0.0;
  double degrade_probability = 0.0;
  double degrade_factor = 1.0;

  static FailureProfile none() { return {}; }
  static FailureProfile loss(double p);
  static FailureProfile degrade(double probability, double factor);

  // Parses the strings describe() prints ("none", "loss-0.01",
  // "degrade-0.1x20"); returns false on anything else. The inverse of
  // describe(): parse(describe()) == *this, including the p = 1 edge the
  // loss() factory rejects (a sweep should never construct the everything-
  // lost regime, but a CLI round-trip of an existing profile must not
  // abort). The validation boundary for user input (--failure).
  static bool parse(const std::string& text, FailureProfile* out);

  bool operator==(const FailureProfile& other) const {
    return kind == other.kind &&
           loss_probability == other.loss_probability &&
           degrade_probability == other.degrade_probability &&
           degrade_factor == other.degrade_factor;
  }

  // Channel-level loss handed to the runtime (kLoss only).
  double channel_loss() const {
    return kind == Kind::kLoss ? loss_probability : 0.0;
  }
  // Wraps the delay model for kDegrade; other kinds return `base`. The
  // wrapper inflates mean_delay() accordingly — the δ the algorithm is
  // allowed to know degrades along with the network.
  DelayModelPtr apply(DelayModelPtr base) const;

  std::string describe() const;  // "none", "loss-0.01", "degrade-0.1x20"
};

// ---------------------------------------------------------------------------
// Algorithm axis

enum class ScenarioAlgorithm : std::uint8_t {
  kRingElection,     // paper Section 3 (core/election via core/harness)
  kPollingElection,  // the polling baseline (algo/polling_election)
  kGossip,           // push gossip broadcast (algo/gossip)
  kBetaSync,         // β-synchronized max consensus (syncr/beta): runs
                     // diameter-many rounds; safe when every node outputs
                     // the global maximum
  kUnsafeToy,        // deliberately-broken election (adversary/unsafe_toy)
                     // that elects >= 2 leaders by construction. Exists to
                     // prove the safety-probe layer catches violations;
                     // MUST never be registered as a scenario preset (the
                     // registry invariant is that every preset's smoke
                     // trial is safe)
};

const char* scenario_algorithm_name(ScenarioAlgorithm algorithm);
ScenarioAlgorithm scenario_algorithm_from_name(const std::string& name);

// Structural compatibility (see file comment).
bool scenario_algorithm_supports(ScenarioAlgorithm algorithm,
                                 TopologyFamily family);

// ---------------------------------------------------------------------------
// The spec

struct ScenarioSpec {
  std::string name;         // registry key; empty for matrix cells
  std::string description;  // one-liner for `abe_scenarios list`

  TopologySpec topology;
  ScenarioAlgorithm algorithm = ScenarioAlgorithm::kRingElection;
  std::string delay_name = "exponential";
  double mean_delay = 1.0;
  ClockBounds clock_bounds{};
  DriftModel drift = DriftModel::kNone;
  ProcessingModel processing = ProcessingModel::zero();
  FailureProfile failure{};

  // Byzantine/crash behavior axis (adversary/behavior.h): which nodes run
  // behind a FaultyNode decorator and how they misbehave. Honest by
  // default; non-honest profiles are realised for the ring election only —
  // gate with behavior_cell_problem() before running.
  BehaviorSpec behavior{};
  // Adversarial delay policy by name (adversary/delay_policy.h:
  // make_named_adversary — "targeted", "burst-stall"); empty means the
  // spec's honest stochastic delay model. The policy's expected-delay
  // bound is the (failure-degraded) delay model's mean, so the adversary
  // stays inside the ABE contract the algorithm was promised.
  std::string adversary;

  // Ring election only: base activation parameter; 0 means the calibrated
  // linear regime A0 = c/n² (core/election.h).
  double a0 = 0.0;
  std::uint64_t default_trials = 8;
  SimTime deadline = 1e7;
  SimTime settle_time = 10.0;
  // Scheduler event-queue backend for every trial of this cell. A pure
  // performance knob: aggregates are bit-identical across backends, which
  // the scale sweep asserts by running the same cell on all three.
  EqueueBackend equeue = EqueueBackend::kAuto;

  // Execution substrate (runtime/runtime.h): the deterministic simulator
  // (default) or one OS thread per node with wall-clock delays. Not every
  // cell is thread-realisable — gate with runtime_cell_problem() before
  // running; matrix expansion filters structurally impossible combinations
  // the same way it filters algorithm×topology.
  RuntimeKind runtime = RuntimeKind::kSim;
  // Thread/udp-runtime realisation: wall microseconds per sim unit, and
  // the hard per-trial wall budget (wall-clock runs must not inherit
  // simulator deadlines like 1e7 units verbatim).
  double thread_time_scale_us = 200.0;
  double thread_wall_timeout_ms = 30000.0;
  // Udp cells only: per-channel ARQ reliable mode (runtime/udp_transport.h —
  // sequence numbers, ACKs, timeout retransmission, receiver dedup), so
  // injected loss degrades goodput instead of dropping messages. Part of
  // cell_id() ("/arq") because it changes what the cell measures.
  bool udp_reliable = false;

  // Observation-only knobs — deliberately NOT part of cell_id(): turning
  // them on must not re-key a cell, and neither consumes RNG nor reorders
  // events, so seeded aggregates stay bit-identical either way.
  // causal_history widens the flight ring to full capacity so critical-
  // path chains (obs/causal.h) reach their roots instead of truncating at
  // the 256-event lite window. A positive timeseries_interval samples the
  // pending/in-flight/live gauges on the sim-time grid (obs/timeseries.h;
  // simulator cells only — wall-clock sampling would be nondeterministic).
  bool causal_history = false;
  double timeseries_interval = 0.0;

  // Stable identifier of this cell within a sweep:
  // "<algorithm>/<topology>/<delay>/<drift>/<failure>", plus a trailing
  // "/eq-<backend>" when a non-default event queue is pinned (so a
  // backend-swept matrix keeps unique ids without disturbing existing
  // auto-backend ids), plus "/rt-thread" or "/rt-udp" when the cell runs
  // on a non-simulator substrate (simulator cells keep their
  // pre-runtime-axis ids; udp cells in ARQ reliable mode add "/arq"), plus
  // "/beh-<behavior>" and "/adv-<policy>" when the adversary axes are
  // non-default (honest cells keep their pre-adversary ids).
  std::string cell_id() const;
  // Multi-line human rendering for `abe_scenarios describe`.
  std::string describe() const;
};

// Why this cell cannot run on its selected runtime — empty when it can.
// Simulator cells always can; thread cells are rejected for piecewise
// drift (wall clocks can only realise fixed rates), pinned event-queue
// backends (a simulator-only knob), or n beyond the one-OS-thread-per-node
// budget (kMaxThreadRuntimeNodes). Udp cells share the drift and equeue
// rejections and have the tighter per-node socket/port budget
// (kMaxUdpRuntimeNodes: one loopback socket + two OS threads per node).
// The validation boundary for user input (CLI --runtime), where aborting
// is rude; mirrors TopologySpec::problem.
std::string runtime_cell_problem(const ScenarioSpec& spec);

// Why this cell's adversary axes are invalid — empty when they are fine.
// Rejects malformed behavior specs (BehaviorSpec::problem), non-honest
// behavior on algorithms other than the ring election / unsafe toy (their
// drivers keep honest-run invariants as hard checks), and unknown
// adversary policy names. Same validation-boundary role as
// runtime_cell_problem; expand() filters violating combinations silently.
std::string behavior_cell_problem(const ScenarioSpec& spec);

// ---------------------------------------------------------------------------
// Registry

// All built-in named scenarios, in registration order.
const std::vector<ScenarioSpec>& scenario_registry();
// nullptr when unknown.
const ScenarioSpec* find_scenario(const std::string& name);

// ---------------------------------------------------------------------------
// Matrix

struct DriftBand {
  ClockBounds bounds{};
  DriftModel model = DriftModel::kNone;
  std::string describe() const;  // "ideal", "fixed[0.80,1.25]", …
};

struct ScenarioMatrix {
  std::string name;
  std::string description;
  // Template for non-axis fields (trials, deadline, a0, …).
  ScenarioSpec base;
  std::vector<ScenarioAlgorithm> algorithms;
  std::vector<TopologySpec> topologies;
  std::vector<std::pair<std::string, double>> delays;  // (name, mean)
  std::vector<DriftBand> drifts;
  std::vector<FailureProfile> failures;
  // Event-queue backends; empty means {base.equeue}. The scale sweep uses
  // this axis to cross-check bit-identical aggregates at n >= 10^4.
  std::vector<EqueueBackend> equeues;
  // Execution substrates; empty means {base.runtime}. A {kSim, kThread}
  // axis runs every realisable cell on both — the cross-runtime fidelity
  // check the ABE model positions itself for.
  std::vector<RuntimeKind> runtimes;
  // Node behavior profiles; empty means {base.behavior} (honest). Only
  // cells whose algorithm realises the profile survive expansion
  // (behavior_cell_problem).
  std::vector<BehaviorSpec> behaviors;
  // Adversarial delay policies by name; empty means {base.adversary}.
  std::vector<std::string> adversaries;

  // The cross product, minus structurally impossible (algorithm, topology)
  // pairs, thread cells the thread runtime cannot realise
  // (runtime_cell_problem), and adversary combinations the drivers cannot
  // realise (behavior_cell_problem). Every returned spec carries a unique
  // cell_id().
  std::vector<ScenarioSpec> expand() const;
};

// All built-in named sweeps, in registration order.
const std::vector<ScenarioMatrix>& sweep_registry();
const ScenarioMatrix* find_sweep(const std::string& name);

}  // namespace abe
