// Scenario engine tests: the polling general-graph election, the registry
// (every registered scenario runs one trial cell here, so none can rot
// silently), matrix expansion, sweep determinism, and the JSON emitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <sstream>

#include "algo/polling_election.h"
#include "scenario/drivers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace abe {
namespace {

// --- polling election -----------------------------------------------------

// One polling election over `topology` with ids of `id_bits` bits, in the
// environment `spec` describes (by default exponential delays of mean 1).
PollingRunResult poll_once(Topology topology, std::uint64_t seed = 1,
                           const ScenarioSpec& spec = {},
                           unsigned id_bits = 64) {
  PollingRunResult result;
  const auto driver = make_polling_driver(id_bits, &result);
  run_algorithm_trial(RuntimeKind::kSim,
                      scenario_runtime_config(spec, std::move(topology), seed),
                      *driver);
  return result;
}

void expect_safe_election(const PollingRunResult& r, std::size_t n) {
  ASSERT_TRUE(r.elected);
  EXPECT_TRUE(r.safety_ok) << r.safety_detail;
  EXPECT_EQ(r.woken, n) << "polling must wake every node explicitly";
  EXPECT_EQ(r.max_leaders_ever, 1u);
  EXPECT_GE(r.rounds, 1u);
}

TEST(PollingElection, ElectsOnTorus) {
  const auto r = poll_once(torus(4, 4));
  expect_safe_election(r, 16);
  // One tie-free round: WAKE + ECHO + RESULT over n−1 tree edges each.
  EXPECT_LE(r.messages_total, 3u * 15u);
}

TEST(PollingElection, ElectsOnHypercubeAndRgg) {
  expect_safe_election(poll_once(hypercube(5)), 32);
  Rng rng(9);
  const Topology field = random_geometric(24, 0.3, rng);
  expect_safe_election(poll_once(field), 24);
}

TEST(PollingElection, ElectsOnBidirectionalRingUnderHeavyTail) {
  ScenarioSpec spec;
  spec.delay_name = "lomax";
  expect_safe_election(poll_once(bidirectional_ring(12), 1, spec), 12);
}

TEST(PollingElection, SingleNodeIsLeaderImmediately) {
  const auto r = poll_once(bidirectional_ring(1));
  expect_safe_election(r, 1);
  EXPECT_EQ(r.messages_total, 0u);
}

TEST(PollingElection, TiedIdsForceExtraRoundsButOneLeader) {
  // 1-bit ids on 8 nodes: round one ties with probability 1 − 9/2⁷ ≈ 0.93,
  // so extinction has to iterate. Safety must hold regardless.
  const auto r =
      poll_once(torus(2, 4), /*seed=*/3, ScenarioSpec{}, /*id_bits=*/1);
  expect_safe_election(r, 8);
  EXPECT_GE(r.rounds, 2u) << "1-bit ids on 8 nodes should tie at least once";
}

TEST(PollingElection, LossStallsAsFailureNeverAsSafetyViolation) {
  // Heavy loss drops WAKE/ECHO/RESULT messages: many trials cannot finish
  // the poll. That is the injected failure being measured — it must be
  // counted as a failed trial; "safety violation" is reserved for a
  // genuine two-leader bug, which loss cannot produce.
  // 5% per-message loss over the ~24 tree messages of a tie-free run:
  // ≈29% of trials complete untouched, the rest stall somewhere.
  ScenarioSpec cell;
  cell.algorithm = ScenarioAlgorithm::kPollingElection;
  cell.topology = TopologySpec{TopologyFamily::kTorus, 9, 0.0};
  cell.failure = FailureProfile::loss(0.05);
  cell.deadline = 2e4;
  const ScenarioAggregate agg = run_scenario_trials(cell, 40, 100);
  EXPECT_EQ(agg.trials, 40u);
  EXPECT_EQ(agg.safety_violations, 0u);
  EXPECT_GT(agg.failures, 0u)
      << "5% loss over ~24 tree messages should stall some trials";
  EXPECT_LT(agg.failures, 40u) << "and some trials should still finish";
}

TEST(PollingElection, WiringRejectsUnidirectionalRing) {
  EXPECT_DEATH(polling_wiring(*make_plan(unidirectional_ring(4)), 0), "");
}

TEST(PollingElection, TrialsBitIdenticalForEveryThreadCount) {
  ScenarioSpec cell;
  cell.algorithm = ScenarioAlgorithm::kPollingElection;
  cell.topology = TopologySpec{TopologyFamily::kTorus, 9, 0.0};
  const ScenarioAggregate serial = run_scenario_trials(cell, 19, 100, 1);
  EXPECT_EQ(serial.trials, 19u);
  EXPECT_EQ(serial.failures, 0u);
  EXPECT_EQ(serial.safety_violations, 0u);
  for (unsigned threads : {2u, 4u, 8u}) {
    const ScenarioAggregate parallel =
        run_scenario_trials(cell, 19, 100, threads);
    EXPECT_TRUE(serial.messages == parallel.messages);
    EXPECT_TRUE(serial.time == parallel.time);
    EXPECT_TRUE(serial.metrics == parallel.metrics);
  }
}

// --- registry -------------------------------------------------------------

TEST(ScenarioRegistry, NamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const ScenarioSpec& s : scenario_registry()) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_EQ(find_scenario(s.name), &s);
    EXPECT_TRUE(
        scenario_algorithm_supports(s.algorithm, s.topology.family))
        << s.name << " registers an impossible algorithm/topology pair";
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

// Every registered scenario runs one trial cell under ctest (per-case
// timeout via tests/CMakeLists.txt). Seed 1 is a checked-in known-good
// seed: trials are deterministic given the seed, so completion and safety
// are exact assertions, not flaky statistics — if a registered spec stops
// electing or violates safety, the failing parameterised case names it.
class RegistryScenarioTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryScenarioTest, OneTrialCellCompletesSafely) {
  const ScenarioSpec* spec = find_scenario(GetParam());
  ASSERT_NE(spec, nullptr);
  const ScenarioTrialResult trial = run_scenario_trial(*spec, /*seed=*/1);
  EXPECT_TRUE(trial.completed) << "seed-1 trial missed its deadline";
  EXPECT_TRUE(trial.safety_ok) << trial.safety_detail;
  EXPECT_GT(trial.time, 0.0);
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const ScenarioSpec& s : scenario_registry()) names.push_back(s.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, RegistryScenarioTest,
    ::testing::ValuesIn(registry_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Seeded aggregates of every registered scenario, four trials from seed 1.
// Any change to how a cell's environment reaches its driver (A0, loss,
// tolerate_protocol_violation, delay, deadline) moves one of these figures,
// so a refactor that claims "no behaviour change" is checked here, not by
// hand-diffing sweep JSON.
TEST(ScenarioRegistry, SeededAggregatesArePinned) {
  struct Pinned {
    const char* name;
    std::uint64_t trials, failures, stalled, safety_violations;
    long long message_sum;
    double message_min, message_max, time_sum;
  };
  const Pinned pinned[] = {
      {"ring-election", 4, 0, 0, 0, 144, 16, 64, 299.68520110272254},
      {"sensor-network", 4, 0, 0, 0, 160, 32, 64, 338.45148386618285},
      {"adhoc-field", 4, 0, 0, 0, 1697, 373, 468, 90.301369234613134},
      {"polling-ring", 4, 0, 0, 0, 161, 36, 45, 90.389299466216585},
      {"polling-torus", 4, 0, 0, 0, 713, 160, 189, 98.589972888615534},
      {"polling-hypercube", 4, 0, 0, 0, 717, 176, 182, 68.985943145330509},
      {"polling-rgg", 4, 0, 0, 0, 738, 182, 187, 75.534952715183394},
      {"polling-heavytail", 4, 0, 0, 0, 711, 156, 188, 111.64117133100279},
      {"beta-sync-torus", 4, 0, 0, 0, 1984, 496, 496, 206.51230025377373},
      {"ring-lossy", 4, 0, 1, 0, 80, 16, 32, 141.7053448268276},
  };
  ASSERT_EQ(std::size(pinned), scenario_registry().size());
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(p.name);
    const ScenarioSpec* spec = find_scenario(p.name);
    ASSERT_NE(spec, nullptr);
    const ScenarioAggregate agg = run_scenario_trials(*spec, 4, 1, 1);
    EXPECT_EQ(agg.trials, p.trials);
    EXPECT_EQ(agg.failures, p.failures);
    EXPECT_EQ(agg.stalled, p.stalled);
    EXPECT_EQ(agg.safety_violations, p.safety_violations);
    EXPECT_EQ(std::llround(agg.messages.sum()), p.message_sum);
    EXPECT_EQ(agg.messages.min(), p.message_min);
    EXPECT_EQ(agg.messages.max(), p.message_max);
    EXPECT_NEAR(agg.time.sum(), p.time_sum, 1e-12 * p.time_sum);
  }
}

// --- matrix expansion -----------------------------------------------------

TEST(ScenarioMatrix, RobustnessSweepCoversAcceptanceAxes) {
  const ScenarioMatrix* m = find_sweep("robustness");
  ASSERT_NE(m, nullptr);
  const std::vector<ScenarioSpec> cells = m->expand();

  std::set<std::string> ids;
  std::set<TopologyFamily> polling_families;
  std::set<std::string> ring_delays;
  for (const ScenarioSpec& cell : cells) {
    EXPECT_TRUE(ids.insert(cell.cell_id()).second)
        << "duplicate cell " << cell.cell_id();
    EXPECT_TRUE(
        scenario_algorithm_supports(cell.algorithm, cell.topology.family));
    if (cell.algorithm == ScenarioAlgorithm::kPollingElection) {
      polling_families.insert(cell.topology.family);
    } else if (cell.algorithm == ScenarioAlgorithm::kRingElection) {
      EXPECT_EQ(cell.topology.family, TopologyFamily::kRingUni);
      ring_delays.insert(cell.delay_name);
    }
  }
  // The acceptance matrix: both algorithms, {ring, torus, hypercube, rgg},
  // {fixed, exponential, heavy-tail}.
  EXPECT_TRUE(polling_families.count(TopologyFamily::kRingBi));
  EXPECT_TRUE(polling_families.count(TopologyFamily::kTorus));
  EXPECT_TRUE(polling_families.count(TopologyFamily::kHypercube));
  EXPECT_TRUE(polling_families.count(TopologyFamily::kGeometric));
  EXPECT_EQ(ring_delays,
            (std::set<std::string>{"fixed", "exponential", "lomax"}));
}

TEST(ScenarioMatrix, ExpansionFiltersImpossiblePairsSilently) {
  ScenarioMatrix m;
  m.algorithms = {ScenarioAlgorithm::kRingElection};
  m.topologies = {TopologySpec{TopologyFamily::kTorus, 16, 0.0},
                  TopologySpec{TopologyFamily::kRingUni, 8, 0.0}};
  m.delays = {{"exponential", 1.0}};
  const auto cells = m.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].topology.family, TopologyFamily::kRingUni);
}

// --- runtime axis ---------------------------------------------------------

TEST(RuntimeAxis, CellIdCarriesThreadSuffixOnlyForThreadCells) {
  ScenarioSpec spec;
  const std::string sim_id = spec.cell_id();
  EXPECT_EQ(sim_id.find("/rt-"), std::string::npos)
      << "simulator cells keep their pre-runtime-axis ids";
  spec.runtime = RuntimeKind::kThread;
  EXPECT_EQ(spec.cell_id(), sim_id + "/rt-thread");
}

TEST(RuntimeAxis, ProblemsAreStructuralAndNamedWithoutAborting) {
  ScenarioSpec spec;
  EXPECT_EQ(runtime_cell_problem(spec), "") << "the simulator runs anything";

  spec.runtime = RuntimeKind::kThread;
  EXPECT_EQ(runtime_cell_problem(spec), "");

  spec.drift = DriftModel::kPiecewiseRandom;
  EXPECT_NE(runtime_cell_problem(spec), "")
      << "wall clocks cannot wander piecewise";
  spec.drift = DriftModel::kNone;

  spec.equeue = EqueueBackend::kLadder;
  EXPECT_NE(runtime_cell_problem(spec), "")
      << "the event queue is a simulator knob";
  spec.equeue = EqueueBackend::kAuto;

  spec.topology.n = kMaxThreadRuntimeNodes + 1;
  EXPECT_NE(runtime_cell_problem(spec), "")
      << "one OS thread per node has a budget";
  spec.topology.n = 8;
  EXPECT_EQ(runtime_cell_problem(spec), "");
}

TEST(RuntimeAxis, DescribeNamesThreadCompatibilityPerCell) {
  const ScenarioSpec* lossy = find_scenario("ring-lossy");
  ASSERT_NE(lossy, nullptr);
  EXPECT_NE(lossy->describe().find("thread?  : ok"), std::string::npos);

  // sensor-network pins piecewise drift, which threads cannot realise; the
  // describe output must say why instead of leaving a bare rejection.
  const ScenarioSpec* sensor = find_scenario("sensor-network");
  ASSERT_NE(sensor, nullptr);
  EXPECT_NE(sensor->describe().find("thread?  : rejected"),
            std::string::npos);
  EXPECT_NE(sensor->describe().find("piecewise"), std::string::npos);
}

TEST(RuntimeAxis, MatrixFiltersUnrealisableThreadCellsSilently) {
  ScenarioMatrix m;
  m.algorithms = {ScenarioAlgorithm::kRingElection};
  m.topologies = {
      TopologySpec{TopologyFamily::kRingUni, 8, 0.0},
      TopologySpec{TopologyFamily::kRingUni, kMaxThreadRuntimeNodes + 1,
                   0.0}};
  m.delays = {{"exponential", 1.0}};
  m.runtimes = {RuntimeKind::kSim, RuntimeKind::kThread};
  const auto cells = m.expand();
  // n=8 expands to both substrates; the oversized ring keeps sim only.
  ASSERT_EQ(cells.size(), 3u);
  std::size_t thread_cells = 0;
  for (const ScenarioSpec& cell : cells) {
    if (cell.runtime == RuntimeKind::kThread) {
      ++thread_cells;
      EXPECT_EQ(cell.topology.n, 8u);
    }
    EXPECT_EQ(runtime_cell_problem(cell), "") << cell.cell_id();
  }
  EXPECT_EQ(thread_cells, 1u);
}

TEST(RuntimeAxis, CrossRuntimeSweepPairsEveryCellAcrossSubstrates) {
  const ScenarioMatrix* m = find_sweep("cross-runtime");
  ASSERT_NE(m, nullptr);
  const auto cells = m->expand();
  ASSERT_FALSE(cells.empty());
  std::set<std::string> ids;
  std::size_t thread_cells = 0;
  for (const ScenarioSpec& cell : cells) {
    EXPECT_TRUE(ids.insert(cell.cell_id()).second)
        << "duplicate cell " << cell.cell_id();
    if (cell.runtime == RuntimeKind::kThread) ++thread_cells;
  }
  // Every cell is realisable on both substrates, so the axis doubles it.
  EXPECT_EQ(thread_cells * 2, cells.size());
}

TEST(TopologySpecProblem, FlagsBadSizesWithoutAborting) {
  EXPECT_EQ((TopologySpec{TopologyFamily::kHypercube, 64, 0.0}).problem(),
            "");
  EXPECT_NE((TopologySpec{TopologyFamily::kHypercube, 100, 0.0}).problem(),
            "");
  EXPECT_EQ((TopologySpec{TopologyFamily::kTorus, 16, 0.0}).problem(), "");
  EXPECT_NE((TopologySpec{TopologyFamily::kTorus, 17, 0.0}).problem(), "")
      << "prime sizes cannot factor into a torus";
  EXPECT_NE((TopologySpec{TopologyFamily::kGnp, 8, 1.5}).problem(), "");
  EXPECT_EQ((TopologySpec{TopologyFamily::kRingUni, 1, 0.0}).problem(), "");
}

TEST(ScenarioNames, RoundTrip) {
  for (const char* name : {"ring-uni", "torus", "hypercube", "rgg"}) {
    EXPECT_STREQ(topology_family_name(topology_family_from_name(name)),
                 name);
  }
  for (const char* name :
       {"abe-ring", "polling", "gossip", "beta-sync", "unsafe-toy"}) {
    EXPECT_STREQ(
        scenario_algorithm_name(scenario_algorithm_from_name(name)), name);
  }
}

// --- failure-profile round-trip (describe <-> parse) ------------------------

TEST(FailureProfileRoundTrip, DescribeParseAgreeIncludingEdgeValues) {
  // Every profile must satisfy parse(describe()) == original, including
  // the p = 0 and p = 1 loss edges. p = 1 cannot come from the loss()
  // factory (it CHECKs p < 1 — an everything-lost cell is useless to
  // sweep), which was an asymmetry: describe() could print profiles that
  // parse() then had to reject. parse() constructs by field so the full
  // closed interval round-trips.
  std::vector<FailureProfile> profiles;
  profiles.push_back(FailureProfile::none());
  profiles.push_back(FailureProfile::loss(0.0));
  profiles.push_back(FailureProfile::loss(0.005));
  {
    FailureProfile everything_lost;
    everything_lost.kind = FailureProfile::Kind::kLoss;
    everything_lost.loss_probability = 1.0;
    profiles.push_back(everything_lost);
  }
  profiles.push_back(FailureProfile::degrade(0.0, 1.0));
  profiles.push_back(FailureProfile::degrade(0.1, 20.0));
  profiles.push_back(FailureProfile::degrade(1.0, 2.5));

  for (const FailureProfile& profile : profiles) {
    FailureProfile parsed;
    ASSERT_TRUE(FailureProfile::parse(profile.describe(), &parsed))
        << "unparseable: " << profile.describe();
    EXPECT_TRUE(parsed == profile) << profile.describe();
    EXPECT_EQ(parsed.describe(), profile.describe());
  }
}

TEST(FailureProfileRoundTrip, ParseRejectsMalformedInput) {
  FailureProfile out;
  for (const char* bad :
       {"", "nonsense", "loss-", "loss--0.1", "loss-1.5", "loss-0.1x2",
        "degrade-", "degrade-0.1", "degrade-0.1x", "degrade-2x3",
        "degrade-0.1x0.5", "loss-0.1extra"}) {
    EXPECT_FALSE(FailureProfile::parse(bad, &out)) << bad;
  }
}

// --- adversary axes ---------------------------------------------------------

TEST(AdversaryAxis, CellIdCarriesSuffixesOnlyForAdversarialCells) {
  ScenarioSpec spec;
  const std::string honest_id = spec.cell_id();
  EXPECT_EQ(honest_id.find("/beh-"), std::string::npos);
  EXPECT_EQ(honest_id.find("/adv-"), std::string::npos);

  spec.behavior = BehaviorSpec{BehaviorProfile::kEquivocate, 1, 0.0};
  EXPECT_EQ(spec.cell_id(), honest_id + "/beh-equivocate-1");
  spec.adversary = "targeted";
  EXPECT_EQ(spec.cell_id(), honest_id + "/beh-equivocate-1/adv-targeted");
  spec.behavior = BehaviorSpec{};
  EXPECT_EQ(spec.cell_id(), honest_id + "/adv-targeted");
}

TEST(AdversaryAxis, ProblemsAreStructuralAndNamedWithoutAborting) {
  ScenarioSpec spec;  // ring election on ring-uni
  EXPECT_EQ(behavior_cell_problem(spec), "");

  spec.behavior = BehaviorSpec{BehaviorProfile::kCrashAtT, 1, 50.0};
  EXPECT_EQ(behavior_cell_problem(spec), "");

  spec.behavior.count = spec.topology.n;  // no honest node left
  EXPECT_NE(behavior_cell_problem(spec), "");
  spec.behavior.count = 1;

  spec.algorithm = ScenarioAlgorithm::kGossip;
  EXPECT_NE(behavior_cell_problem(spec), "")
      << "only the ring election realises behavior profiles";
  spec.algorithm = ScenarioAlgorithm::kRingElection;

  spec.adversary = "no-such-policy";
  EXPECT_NE(behavior_cell_problem(spec), "");
  spec.adversary = "targeted";
  EXPECT_EQ(behavior_cell_problem(spec), "");
}

TEST(AdversaryAxis, AdversarySweepCoversProfilesOnBothSubstrates) {
  const ScenarioMatrix* m = find_sweep("adversary");
  ASSERT_NE(m, nullptr);
  const auto cells = m->expand();
  ASSERT_FALSE(cells.empty());
  std::set<std::string> ids;
  std::set<BehaviorProfile> profiles;
  std::size_t thread_cells = 0;
  for (const ScenarioSpec& cell : cells) {
    EXPECT_TRUE(ids.insert(cell.cell_id()).second)
        << "duplicate cell " << cell.cell_id();
    EXPECT_EQ(cell.algorithm, ScenarioAlgorithm::kRingElection);
    EXPECT_EQ(cell.adversary, "targeted");
    EXPECT_FALSE(cell.behavior.is_honest());
    profiles.insert(cell.behavior.profile);
    if (cell.runtime == RuntimeKind::kThread) ++thread_cells;
  }
  EXPECT_TRUE(profiles.count(BehaviorProfile::kCrashAtT));
  EXPECT_TRUE(profiles.count(BehaviorProfile::kEquivocate));
  EXPECT_TRUE(profiles.count(BehaviorProfile::kReorder));
  EXPECT_EQ(thread_cells * 2, cells.size())
      << "every adversarial cell must run on both substrates";
}

TEST(AdversaryAxis, UnsafeToyIsNeverRegistered) {
  // The registry invariant (RegistryScenarioTest) is that every preset's
  // smoke trial is safe; the deliberately-broken toy must stay out.
  for (const ScenarioSpec& s : scenario_registry()) {
    EXPECT_NE(s.algorithm, ScenarioAlgorithm::kUnsafeToy) << s.name;
  }
  for (const ScenarioMatrix& m : sweep_registry()) {
    for (const ScenarioSpec& cell : m.expand()) {
      EXPECT_NE(cell.algorithm, ScenarioAlgorithm::kUnsafeToy)
          << m.name << ": " << cell.cell_id();
    }
  }
}

// --- sweep driver & JSON --------------------------------------------------

ScenarioSpec small_polling_cell() {
  ScenarioSpec spec;
  spec.algorithm = ScenarioAlgorithm::kPollingElection;
  spec.topology = TopologySpec{TopologyFamily::kTorus, 9, 0.0};
  return spec;
}

TEST(ScenarioSweep, TrialsAreDeterministicPerSeed) {
  const ScenarioSpec spec = small_polling_cell();
  const ScenarioAggregate a = run_scenario_trials(spec, 11, 50, 2);
  const ScenarioAggregate b = run_scenario_trials(spec, 11, 50, 3);
  EXPECT_EQ(a.trials, 11u);
  EXPECT_TRUE(a.messages == b.messages);
  EXPECT_TRUE(a.time == b.time);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.safety_violations, b.safety_violations);
}

TEST(ScenarioSweep, RandomTopologiesRedrawPerTrialDeterministically) {
  ScenarioSpec spec = small_polling_cell();
  spec.topology = TopologySpec{TopologyFamily::kGeometric, 12, 0.0};
  const ScenarioTrialResult a = run_scenario_trial(spec, 7);
  const ScenarioTrialResult b = run_scenario_trial(spec, 7);
  const ScenarioTrialResult c = run_scenario_trial(spec, 8);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.time, b.time);
  // Different seed, different field (and with overwhelming likelihood a
  // different trace).
  EXPECT_TRUE(a.messages != c.messages || a.time != c.time);
}

TEST(ScenarioSweep, JsonCarriesSchemaMetadataAndCells) {
  const auto outcomes = run_sweep({small_polling_cell()}, 3, 1, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].aggregate.trials, 3u);
  EXPECT_EQ(outcomes[0].aggregate.safety_violations, 0u);

  SweepRunMetadata meta;
  meta.git_sha = "cafe123";
  meta.threads = 4;
  meta.trials = 3;
  std::ostringstream os;
  write_sweep_json(os, meta, outcomes);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"abe-scenario-sweep-v7\""),
            std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \"cafe123\""), std::string::npos);
  EXPECT_NE(json.find("\"trial_threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"cell\": \"polling/torus-9/exponential/ideal/none\""),
            std::string::npos);
  EXPECT_NE(json.find("\"equeue\": \"auto\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime\": \"sim\""), std::string::npos);
  EXPECT_NE(json.find("\"stalled\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"behavior\": \"honest\""), std::string::npos);
  EXPECT_NE(json.find("\"adversary\": \"none\""), std::string::npos);
  EXPECT_NE(json.find("\"safety_violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"violation_seeds\": []"), std::string::npos);
  // v5 observability block: per-cell metrics array + wall phase object.
  EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"net.sent\""), std::string::npos);
  EXPECT_NE(json.find("\"wall\": {\"build_ms\": "), std::string::npos);
  // v7: the wall block also carries the single-read-point total.
  EXPECT_NE(json.find("\"total_ms\": "), std::string::npos);
  // v6 causal block: per-cell critical-path attribution aggregate.
  EXPECT_NE(json.find("\"critical_path\": {\"considered\": 3"),
            std::string::npos);
  EXPECT_NE(json.find("\"channel_delay\": {"), std::string::npos);
  // Balanced braces: cheap structural sanity (CI runs the real validator,
  // bench/validate_scenarios.py, on emitted files).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ScenarioSweep, FailureProfilesTransformTheModel) {
  const DelayModelPtr base = make_delay_model("exponential", 1.0);
  const FailureProfile degrade = FailureProfile::degrade(0.1, 20.0);
  const DelayModelPtr wrapped = degrade.apply(base);
  // The advertised ABE bound must degrade with the network.
  EXPECT_NEAR(wrapped->mean_delay(), 1.0 + 0.1 * 19.0, 1e-12);
  EXPECT_EQ(FailureProfile::none().apply(base).get(), base.get());
  EXPECT_DOUBLE_EQ(FailureProfile::loss(0.01).channel_loss(), 0.01);
  EXPECT_DOUBLE_EQ(degrade.channel_loss(), 0.0);
}

}  // namespace
}  // namespace abe
