// Seed-chunked trial pool: the reproducible-parallelism engine behind every
// Monte-Carlo aggregate in the repo (scenario sweeps, bench tables).
//
// Trials are identified by their seed. They are grouped into fixed-size
// chunks of consecutive seeds, chunks are distributed over a thread pool,
// and the per-chunk aggregates are merged in seed order — so the final
// aggregate is BIT-identical for every thread count (including 1). The
// chunk size is a constant, never derived from the thread count, because it
// determines the floating-point merge tree.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace abe {

// Aggregation chunk size shared by all trial harnesses.
inline constexpr std::uint64_t kTrialChunk = 8;

// Resolves a `threads` argument: nonzero values are taken as-is; 0 consults
// the ABE_TRIAL_THREADS environment variable (a count, or "all" for every
// hardware thread) and defaults to 1 — parallelism is an explicit opt-in so
// ctest -j and bench sweeps don't oversubscribe the host.
unsigned resolve_trial_threads(unsigned threads);

// Runs trials with seeds seed_base … seed_base+trials−1 and returns the
// merged aggregate. `run_chunk(seed_lo, seed_hi, out)` must run the trials
// with seeds [seed_lo, seed_hi) sequentially into `out`; Aggregate needs a
// default constructor and `void merge(const Aggregate&)`. Chunks may run on
// pool workers concurrently, so run_chunk must not share mutable state
// across calls.
template <typename Aggregate, typename RunChunk>
Aggregate run_seed_chunked_trials(std::uint64_t trials,
                                  std::uint64_t seed_base, unsigned threads,
                                  RunChunk&& run_chunk) {
  ABE_CHECK_GT(trials, 0u);
  // Overflow-proof ceiling division: trials near 2^64 (e.g. a negative
  // count cast by a caller) must not wrap to zero chunks and silently
  // return an empty aggregate.
  const std::uint64_t chunks =
      trials / kTrialChunk + (trials % kTrialChunk != 0 ? 1 : 0);
  const auto run_one = [&](std::uint64_t c, Aggregate& out) {
    const std::uint64_t lo = seed_base + c * kTrialChunk;
    const std::uint64_t hi =
        seed_base + std::min(trials, (c + 1) * kTrialChunk);
    run_chunk(lo, hi, out);
  };

  const unsigned workers = static_cast<unsigned>(
      std::min<std::uint64_t>(resolve_trial_threads(threads), chunks));
  if (workers <= 1) {
    // Chunks complete in order, so each one can merge into the result as
    // soon as it finishes — the exact merge sequence the parallel path
    // performs below, in O(1) memory instead of O(chunks).
    Aggregate agg;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      Aggregate chunk;
      run_one(c, chunk);
      agg.merge(chunk);
    }
    return agg;
  }

  std::vector<Aggregate> partial(chunks);
  {
    // Workers share nothing but the read-only closure state; each trial's
    // randomness derives from its seed alone. This is why the pool carries
    // no AnnotatedMutex (util/thread_annotations.h): the only shared
    // mutable word is the `next` chunk counter (atomic), every partial[c]
    // is written by exactly the worker that claimed chunk c, and join()
    // publishes all of them to the merge loop below. Any future shared
    // mutable state here must be an atomic or a GUARDED_BY-annotated field
    // behind an AnnotatedMutex — the TSan CI job runs this pool's suites.
    std::atomic<std::uint64_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::uint64_t c = next.fetch_add(1); c < chunks;
             c = next.fetch_add(1)) {
          run_one(c, partial[c]);
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  // Merge in seed (chunk) order: the only source of nondeterminism in the
  // parallel run is which worker ran a chunk, and that cannot reach the
  // result through an order-fixed merge.
  Aggregate agg;
  for (const auto& p : partial) agg.merge(p);
  return agg;
}

}  // namespace abe
