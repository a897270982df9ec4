// Event-queue backend selection for the scheduler.
//
// The enum is deliberately separated from the EventQueue interface so model
// layers (NetworkConfig, experiment specs, scenario cells) can carry a
// backend choice without pulling the queue implementations into their
// headers.
//
// Selection rules (see also README "Event-queue backends"):
//   * kAuto (the default) starts on the comparison heap and migrates to the
//     ladder queue once the pending set crosses kEqueueAutoThreshold —
//     small runs keep the heap's cache-tight behaviour, big sweeps get the
//     ladder's O(1) amortized operations. The target is the ladder, not the
//     calendar, because the crossing is often a simultaneous burst (n
//     on_start events at t = 0 in a large polling trial): the calendar's
//     head-gap tuning collapses such a burst onto one day and scans that
//     day on every pop, while the ladder sorts it once into its bottom.
//     Measured on the n = 10^4 polling torus (perfbench torus-10k, 4-vCPU
//     VM): a median 225 ms of CPU per trial on auto -> calendar vs 46 ms
//     on auto -> ladder, with identical messages and times per seed.
//   * The ABE_EQUEUE environment variable ("heap", "calendar", "ladder",
//     "auto") overrides EVERY construction-time choice, so a whole sweep
//     binary can be re-run on a different backend without recompiling.
//     Invalid values are ignored (same policy as ABE_TRIAL_THREADS).
//   * Pop order is bit-identical across backends: every queue pops in
//     strict packed (time-bits, seq) order, so backend choice is a pure
//     performance knob — seeded trials produce identical traces.
#pragma once

#include <string>

namespace abe {

enum class EqueueBackend : unsigned char {
  kAuto,      // heap below kEqueueAutoThreshold pending, ladder above
  kHeap,      // 4-ary comparison heap: O(log n), cache-tight at small n
  kCalendar,  // calendar queue: O(1) amortized, needs roughly uniform times
  kLadder,    // ladder queue: O(1) amortized, robust to heavy-tailed mixes
};

// Pending-set size at which kAuto migrates heap -> ladder. Chosen from
// bench_e1/bench_e12: the heap still runs near its peak at 4k pending and
// has clearly bent by 16k, so the switch sits between the two.
inline constexpr std::size_t kEqueueAutoThreshold = 8192;

// "auto", "heap", "calendar", "ladder".
const char* equeue_backend_name(EqueueBackend backend);

// Returns true and sets *backend when `name` is one of the names above;
// returns false (leaving *backend untouched) otherwise — the validation
// boundary for user input (CLI flags), where aborting is rude.
bool equeue_backend_from_name(const std::string& name,
                              EqueueBackend* backend);

// Applies the ABE_EQUEUE override: returns the env backend when the
// variable is set to a valid name, else `requested` unchanged.
EqueueBackend resolve_equeue_backend(EqueueBackend requested);

}  // namespace abe
