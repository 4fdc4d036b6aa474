#include "malsched/service/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "malsched/core/generators.hpp"
#include "malsched/support/rng.hpp"

namespace mc = malsched::core;
namespace msvc = malsched::service;
namespace ms = malsched::support;

namespace {

std::vector<msvc::BatchRequest> mixed_requests(std::size_t count,
                                               std::uint64_t seed) {
  ms::Rng rng(seed);
  const std::vector<std::string> solvers = {"wdeq", "deq", "smith-greedy",
                                            "greedy-heuristic"};
  std::vector<msvc::BatchRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 3 + i % 5;
    config.processors = 2.0;
    requests.push_back({solvers[i % solvers.size()],
                        msvc::intern(mc::generate(config, rng))});
  }
  return requests;
}

}  // namespace

TEST(Batch, ResultsComeBackInRequestOrder) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto requests = mixed_requests(40, 3);
  msvc::BatchOptions options;
  options.threads = 4;
  const auto results = msvc::solve_batch(registry, requests, options);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].error().to_string();
    EXPECT_EQ(results[i].solver, requests[i].solver) << i;
    EXPECT_EQ(results[i].completions().size(), requests[i].instance.size())
        << i;
    EXPECT_GT(results[i].latency_seconds, 0.0) << i;
  }
}

TEST(Batch, DeterministicAcrossThreadCounts) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto requests = mixed_requests(60, 5);

  std::vector<std::vector<msvc::SolveResult>> runs;
  for (const unsigned threads : {1u, 4u, 8u}) {
    msvc::ResultCache cache(1024);
    msvc::BatchOptions options;
    options.threads = threads;
    options.cache = &cache;
    runs.push_back(msvc::solve_batch(registry, requests, options));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      ASSERT_EQ(runs[r][i].ok(), runs[0][i].ok()) << i;
      // Bitwise equality: the canonical-space solve is identical work, so
      // the denormalized doubles must match exactly, not just approximately.
      EXPECT_EQ(runs[r][i].objective(), runs[0][i].objective()) << i;
      EXPECT_EQ(runs[r][i].makespan(), runs[0][i].makespan()) << i;
      EXPECT_EQ(runs[r][i].completions(), runs[0][i].completions()) << i;
    }
  }
}

TEST(Batch, CacheHitsFlagRepeatedInstances) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto handle =
      msvc::intern(mc::Instance(3.0, {{1.0, 1.0, 1.0}, {2.0, 2.0, 0.5}}));
  std::vector<msvc::BatchRequest> requests(6, {"wdeq", handle});

  msvc::ResultCache cache(64);
  msvc::BatchOptions options;
  options.threads = 1;  // sequential: hit pattern is deterministic
  options.cache = &cache;
  const auto results = msvc::solve_batch(registry, requests, options);
  EXPECT_FALSE(results[0].cache_hit);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].cache_hit) << i;
    EXPECT_EQ(results[i].objective(), results[0].objective());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 5u);
}

TEST(Batch, CachedAndUncachedValuesAgree) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto requests = mixed_requests(30, 11);

  msvc::ResultCache cache(1024);
  msvc::BatchOptions cached;
  cached.cache = &cache;
  msvc::BatchOptions uncached;
  const auto with_cache = msvc::solve_batch(registry, requests, cached);
  const auto without = msvc::solve_batch(registry, requests, uncached);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(with_cache[i].ok() && without[i].ok()) << i;
    // Cached solves run in canonical space; allow last-ulp scale noise.
    EXPECT_NEAR(with_cache[i].objective(), without[i].objective(),
                1e-9 * (1.0 + without[i].objective()))
        << i;
  }
}

TEST(Batch, ScaledInstancesHitTheSameEntry) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto base =
      msvc::intern(mc::Instance(2.0, {{1.0, 1.0, 1.0}, {2.0, 2.0, 0.5}}));
  const auto doubled =
      msvc::intern(mc::Instance(2.0, {{2.0, 1.0, 2.0}, {4.0, 2.0, 1.0}}));

  msvc::ResultCache cache(64);
  const auto first = msvc::solve_cached(registry, "wdeq", base, &cache);
  const auto second = msvc::solve_cached(registry, "wdeq", doubled, &cache);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  // The scale quotient is the same, so the canonical fingerprints agree.
  EXPECT_EQ(base.key(), doubled.key());
  // Volumes and weights both doubled: objective x4, completions x2.
  EXPECT_NEAR(second.objective(), 4.0 * first.objective(), 1e-12);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(second.completions()[i], 2.0 * first.completions()[i], 1e-12);
  }
}

TEST(Batch, TieBreakingSolversMatchUncachedOnTies) {
  // Both tasks tie on Smith ratio w/V = 1, and smith-greedy breaks ties by
  // task id — the cache's canonical sort must not flip the tie, so these
  // solvers get scale-only canonicalization.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const mc::Instance inst(2.0, {{2.0, 2.0, 2.0}, {1.0, 1.0, 1.0}});
  const auto handle = msvc::intern(inst);
  for (const char* solver : {"smith-greedy", "greedy-heuristic",
                             "water-fill-smith", "order-lp-smith", "optimal"}) {
    msvc::ResultCache cache(64);
    const auto cached = msvc::solve_cached(registry, solver, handle, &cache);
    const auto direct = registry.solve(solver, inst);
    ASSERT_TRUE(cached.ok() && direct.ok()) << solver;
    // A flipped tie shows up as an O(1) difference; the documented cached
    // vs uncached agreement is only ~1e-9 relative (canonical-space
    // rescaling), so don't demand bitwise equality across compilers.
    EXPECT_NEAR(cached.makespan(), direct.makespan(), 1e-9) << solver;
    ASSERT_EQ(cached.completions().size(), direct.completions().size())
        << solver;
    for (std::size_t i = 0; i < direct.completions().size(); ++i) {
      EXPECT_NEAR(cached.completions()[i], direct.completions()[i], 1e-9)
          << solver << " task " << i;
    }
    // Repeats still hit the scale-only cache entry.
    const auto again = msvc::solve_cached(registry, solver, handle, &cache);
    EXPECT_TRUE(again.cache_hit) << solver;
    EXPECT_NEAR(again.makespan(), direct.makespan(), 1e-9) << solver;
  }
}

TEST(Batch, FifoRigidSkipsPermutationQuotient) {
  // fifo-rigid output depends on task ids; the cache must not alias
  // permuted instances for it.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto a =
      msvc::intern(mc::Instance(2.0, {{4.0, 2.0, 0.1}, {0.2, 2.0, 10.0}}));
  const auto b =
      msvc::intern(mc::Instance(2.0, {{0.2, 2.0, 10.0}, {4.0, 2.0, 0.1}}));

  msvc::ResultCache cache(64);
  const auto ra = msvc::solve_cached(registry, "fifo-rigid", a, &cache);
  const auto rb = msvc::solve_cached(registry, "fifo-rigid", b, &cache);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_FALSE(rb.cache_hit);
  // Different first-come order => genuinely different objectives.
  EXPECT_NE(ra.objective(), rb.objective());
}

TEST(Batch, FifoRigidCachedMatchesDirectWhenWidthsFillP) {
  // Integer widths that sum to P exactly become rationals whose float sum
  // misses 1 by an ulp in canonical space (P = 1).  An exact fit test then
  // held the last task back, and the cached ΣwC read 1.5 against the
  // direct 1.25 on the first instance.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  struct Case {
    double processors;
    double first_width;
    double second_width;
  };
  for (const Case c : {Case{5.0, 4.0, 1.0}, Case{10.0, 8.0, 2.0},
                       Case{10.0, 9.0, 1.0}, Case{6.0, 5.0, 1.0}}) {
    const mc::Instance inst(c.processors, {{1.0, c.first_width, 1.0},
                                           {1.0, c.second_width, 1.0}});
    msvc::ResultCache cache(64);
    const auto cached =
        msvc::solve_cached(registry, "fifo-rigid", msvc::intern(inst), &cache);
    const auto direct = registry.solve("fifo-rigid", inst);
    ASSERT_TRUE(cached.ok() && direct.ok());
    EXPECT_FALSE(cached.cache_hit);
    EXPECT_LE(std::fabs(cached.objective() - direct.objective()),
              1e-9 * std::fabs(direct.objective()))
        << "P " << c.processors << " widths " << c.first_width << ", "
        << c.second_width << ": cached " << cached.objective()
        << " vs direct " << direct.objective();
  }
}

TEST(Batch, WideDynamicRangeBypassesTheCanonicalCache) {
  // Rescaling this instance pushes task 0's canonical volume (~2.5e-10)
  // under the engine's absolute tolerance, which would silently drop its
  // weighted completion.  The conditioning guard must solve client-space
  // instead and agree with the uncached path.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const mc::Instance inst(2.0, {{1.0, 1.0, 1000000.0}, {4e9, 2.0, 1.0}});
  const auto handle = msvc::intern(inst);

  msvc::ResultCache cache(64);
  const auto cached = msvc::solve_cached(registry, "wdeq", handle, &cache);
  const auto direct = registry.solve("wdeq", inst);
  ASSERT_TRUE(cached.ok() && direct.ok());
  EXPECT_FALSE(cached.cache_hit);
  EXPECT_EQ(cached.objective(), direct.objective());
  EXPECT_EQ(cached.completions(), direct.completions());
  EXPECT_GT(cached.completions()[0], 0.0);  // the small task is not dropped
  EXPECT_EQ(cache.stats().entries, 0u);     // nothing was memoized
}

TEST(Batch, VolumeOverflowBypassesTheCacheInsteadOfCachingNaN) {
  // Total volume overflows to inf, which would make every canonical value
  // 0/NaN and time_scale infinite; well_conditioned must route this to the
  // client-space solve so cached and uncached agree (and no NaN entry is
  // memoized).
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto overflow =
      msvc::intern(mc::Instance(2.0, {{1e308, 1.0, 1.0}, {1e308, 2.0, 1.0}}));
  msvc::ResultCache cache(64);
  const auto cached = msvc::solve_cached(registry, "wdeq", overflow, &cache);
  const auto direct = registry.solve("wdeq", overflow.instance());
  EXPECT_FALSE(cached.cache_hit);
  EXPECT_EQ(cache.stats().entries, 0u);
  ASSERT_EQ(cached.ok(), direct.ok());
  EXPECT_EQ(cached.objective(), direct.objective());  // inf == inf, not NaN
  EXPECT_FALSE(std::isnan(cached.objective()));
}

TEST(Batch, ErrorDiagnosticsUseClientTaskIdsDespiteCache) {
  // Canonicalization sorts tasks, so a canonical-space failure would blame
  // the wrong task id; the cached path must re-solve in client space for
  // the diagnostic.  Here the zero-weight task is client id 1 but sorts to
  // canonical id 0.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const mc::Instance inst(2.0, {{5.0, 1.0, 1.0}, {1.0, 1.0, 0.0}});
  const auto handle = msvc::intern(inst);
  msvc::ResultCache cache(64);
  const auto cached = msvc::solve_cached(registry, "wdeq", handle, &cache);
  const auto direct = registry.solve("wdeq", inst);
  ASSERT_FALSE(cached.ok());
  EXPECT_EQ(cached.error().code, msvc::ErrorCode::SolverFailure);
  EXPECT_NE(cached.error().detail.find("task 1"), std::string::npos)
      << cached.error().detail;
  EXPECT_EQ(cached.error().detail, direct.error().detail);
}

TEST(Batch, CustomSolverDefaultsAreCacheSafe) {
  // Default registration must not opt into the permutation quotient: this
  // task-id-sensitive solver would silently alias permuted instances if
  // order_invariant defaulted to true.
  auto registry = msvc::SolverRegistry::with_default_solvers();
  registry.register_solver("first-volume", [](const mc::Instance& inst) {
    return msvc::SolveResult::success(
        "", msvc::SolveOutput{inst.task(0).volume, 1.0,  // task-numbering dep
                              std::vector<double>(inst.size(), 1.0)});
  });
  const auto a =
      msvc::intern(mc::Instance(2.0, {{1.0, 1.0, 1.0}, {2.0, 2.0, 1.0}}));
  const auto b =
      msvc::intern(mc::Instance(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}}));
  msvc::ResultCache cache(64);
  const auto ra = msvc::solve_cached(registry, "first-volume", a, &cache);
  const auto rb = msvc::solve_cached(registry, "first-volume", b, &cache);
  EXPECT_FALSE(rb.cache_hit);  // scale-only keys distinguish the orderings
  EXPECT_NE(ra.objective(), rb.objective());
}

TEST(Batch, NonCacheableSolverBypassesTheCache) {
  auto registry = msvc::SolverRegistry::with_default_solvers();
  registry.register_solver(
      "absolute", [](const mc::Instance& inst) {
        // Not scale-equivariant: an absolute threshold on the volume.
        return msvc::SolveResult::success(
            "", msvc::SolveOutput{inst.total_volume() > 10.0 ? 1.0 : 0.0, 1.0,
                                  std::vector<double>(inst.size(), 1.0)});
      },
      /*order_invariant=*/false, "absolute threshold", /*cacheable=*/false);
  const auto big = msvc::intern(mc::Instance(2.0, {{20.0, 1.0, 1.0}}));
  msvc::ResultCache cache(64);
  const auto first = msvc::solve_cached(registry, "absolute", big, &cache);
  const auto second = msvc::solve_cached(registry, "absolute", big, &cache);
  EXPECT_EQ(first.objective(), 1.0);  // client-space solve, threshold intact
  EXPECT_FALSE(second.cache_hit);     // never memoized
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(Batch, UnknownSolverFailsOnlyThatRequest) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto handle = msvc::intern(mc::Instance(2.0, {{1.0, 1.0, 1.0}}));
  const std::vector<msvc::BatchRequest> requests = {
      {"wdeq", handle}, {"bogus", handle}, {"deq", handle}};
  msvc::BatchOptions options;
  options.threads = 2;
  const auto results = msvc::solve_batch(registry, requests, options);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error().code, msvc::ErrorCode::UnknownSolver);
  EXPECT_NE(results[1].error().detail.find("bogus"), std::string::npos);
  EXPECT_TRUE(results[2].ok());
}

TEST(Batch, ThrowingSolverIsContainedPerRequest) {
  auto registry = msvc::SolverRegistry::with_default_solvers();
  registry.register_solver("explode", [](const mc::Instance&) -> msvc::SolveResult {
    throw std::runtime_error("boom");
  });
  const auto handle = msvc::intern(mc::Instance(2.0, {{1.0, 1.0, 1.0}}));
  const std::vector<msvc::BatchRequest> requests = {
      {"wdeq", handle}, {"explode", handle}, {"wdeq", handle}};
  msvc::BatchOptions options;
  options.threads = 2;
  const auto results = msvc::solve_batch(registry, requests, options);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error().code, msvc::ErrorCode::SolverFailure);
  EXPECT_NE(results[1].error().detail.find("boom"), std::string::npos);
  EXPECT_TRUE(results[2].ok());
}

TEST(Batch, NonStdExceptionIsContainedToo) {
  auto registry = msvc::SolverRegistry::with_default_solvers();
  registry.register_solver("explode-int",
                           [](const mc::Instance&) -> msvc::SolveResult {
                             throw 42;  // arbitrary user callable, non-std
                           });
  const auto handle = msvc::intern(mc::Instance(2.0, {{1.0, 1.0, 1.0}}));
  const std::vector<msvc::BatchRequest> requests = {{"explode-int", handle},
                                                    {"wdeq", handle}};
  const auto results = msvc::solve_batch(registry, requests, {});
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].error().code, msvc::ErrorCode::SolverFailure);
  EXPECT_NE(results[0].error().detail.find("non-standard"), std::string::npos);
  EXPECT_TRUE(results[1].ok());
}

TEST(Batch, SharedCacheStaysWarmAcrossBatches) {
  // BatchOptions::cache is borrowed, so a second batch over the same
  // traffic is pure hit dispatch — the replacement for sharing a thread
  // pool across batches in the v1 API.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto requests = mixed_requests(20, 17);
  msvc::ResultCache cache(4096);
  msvc::BatchOptions options;
  options.threads = 3;
  options.cache = &cache;
  const auto first = msvc::solve_batch(registry, requests, options);
  ASSERT_EQ(first.size(), requests.size());
  const auto second = msvc::solve_batch(registry, requests, options);
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_TRUE(second[i].ok()) << second[i].error().to_string();
    EXPECT_TRUE(second[i].cache_hit) << i;
    EXPECT_EQ(second[i].objective(), first[i].objective()) << i;
  }
}

TEST(Batch, SchedulerOverloadReusesWorkersAcrossBatches) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto requests = mixed_requests(12, 23);
  msvc::Scheduler::Options options;
  options.threads = 2;
  msvc::Scheduler scheduler(registry, options);
  const auto first = msvc::solve_batch(scheduler, requests);
  const auto second = msvc::solve_batch(scheduler, requests);
  ASSERT_EQ(first.size(), requests.size());
  ASSERT_EQ(second.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(first[i].ok() && second[i].ok()) << i;
    EXPECT_EQ(first[i].objective(), second[i].objective()) << i;
    EXPECT_TRUE(second[i].cache_hit) << i;  // the owned cache stayed warm
  }
}

TEST(Batch, EmptyBatchIsFine) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto results = msvc::solve_batch(registry, {}, {});
  EXPECT_TRUE(results.empty());
}
