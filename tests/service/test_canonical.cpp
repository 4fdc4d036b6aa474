#include "malsched/service/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "malsched/core/generators.hpp"
#include "malsched/service/batch.hpp"
#include "malsched/service/scheduler.hpp"
#include "malsched/service/service.hpp"
#include "malsched/service/solver_registry.hpp"
#include "malsched/sim/engine.hpp"
#include "malsched/sim/policy.hpp"
#include "malsched/support/rng.hpp"

namespace mc = malsched::core;
namespace msvc = malsched::service;
namespace msim = malsched::sim;
namespace ms = malsched::support;

namespace {

mc::Instance base_instance() {
  return mc::Instance(4.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 0.5}, {0.5, 4.0, 2.0}});
}

// Hexfloat rendering: failures show the exact bit-level divergence instead
// of two identically-printed decimals.
std::string hex(double d) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%a", d);
  return buffer;
}

// Rescales all three symmetry axes: volumes x volume_scale, machine
// (P and widths) x machine_scale, weights x weight_scale.
mc::Instance rescale(const mc::Instance& inst, double volume_scale,
                     double machine_scale, double weight_scale) {
  std::vector<mc::Task> tasks;
  tasks.reserve(inst.size());
  for (const auto& t : inst.tasks()) {
    tasks.push_back({t.volume * volume_scale, t.width * machine_scale,
                     t.weight * weight_scale});
  }
  return mc::Instance(inst.processors() * machine_scale, std::move(tasks));
}

}  // namespace

TEST(Canonical, NormalFormHasUnitSums) {
  const auto form = msvc::canonicalize(base_instance());
  EXPECT_DOUBLE_EQ(form.instance.processors(), 1.0);
  EXPECT_NEAR(form.instance.total_volume(), 1.0, 1e-12);
  EXPECT_NEAR(form.instance.total_weight(), 1.0, 1e-12);
}

TEST(Canonical, PowerOfTwoScalingSharesTheKey) {
  const auto inst = base_instance();
  const auto form = msvc::canonicalize(inst);

  // Volumes x4, weights x0.5, machine (P and widths) x2: all exact binary
  // scalings, so the quotient map lands on bit-identical canonical doubles.
  std::vector<mc::Task> tasks;
  for (const auto& t : inst.tasks()) {
    tasks.push_back({t.volume * 4.0, t.width * 2.0, t.weight * 0.5});
  }
  const mc::Instance scaled(inst.processors() * 2.0, std::move(tasks));
  const auto scaled_form = msvc::canonicalize(scaled);

  EXPECT_EQ(form.key, scaled_form.key);
  EXPECT_EQ(msvc::canonical_text(form), msvc::canonical_text(scaled_form));
  // Scales differ: volumes x4 stretch time x4, machine x2 shrinks it x2.
  EXPECT_DOUBLE_EQ(scaled_form.time_scale, form.time_scale * 2.0);
}

TEST(Canonical, TaskPermutationSharesTheKey) {
  const auto inst = base_instance();
  const mc::Instance permuted(
      4.0, {inst.task(2), inst.task(0), inst.task(1)});
  const auto a = msvc::canonicalize(inst);
  const auto b = msvc::canonicalize(permuted);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(msvc::canonical_text(a), msvc::canonical_text(b));
}

TEST(Canonical, PermuteFalseKeepsTaskOrder) {
  const auto inst = base_instance();
  msvc::CanonicalOptions options;
  options.permute = false;
  const auto form = msvc::canonicalize(inst, options);
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(form.permutation[i], i);
  }
  // Order-sensitive canonical forms distinguish permuted instances.
  const mc::Instance permuted(4.0, {inst.task(2), inst.task(0), inst.task(1)});
  EXPECT_NE(msvc::canonical_text(form),
            msvc::canonical_text(msvc::canonicalize(permuted, options)));
}

TEST(Canonical, DistinctInstancesGetDistinctKeys) {
  const auto a = msvc::canonicalize(base_instance());
  const auto b = msvc::canonicalize(
      mc::Instance(4.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 0.5}, {0.5, 4.0, 2.5}}));
  EXPECT_NE(a.key, b.key);
  EXPECT_NE(msvc::canonical_text(a), msvc::canonical_text(b));
}

TEST(Canonical, DenormalizedSolveMatchesDirectSolve) {
  // Solving the canonical instance and mapping back must agree with solving
  // the original directly (scale-equivariance of the fluid policies).
  ms::Rng rng(41);
  const auto policy = msim::make_wdeq_policy();
  for (int rep = 0; rep < 25; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 6;
    config.processors = 3.0;
    const auto inst = mc::generate(config, rng);

    const auto form = msvc::canonicalize(inst);
    const auto canonical_run = msim::run_policy(form.instance, *policy);
    const auto direct_run = msim::run_policy(inst, *policy);

    const auto mapped =
        msvc::denormalize_completions(form, canonical_run.completions);
    ASSERT_EQ(mapped.size(), inst.size());
    for (std::size_t i = 0; i < inst.size(); ++i) {
      EXPECT_NEAR(mapped[i], direct_run.completions[i],
                  1e-9 * (1.0 + direct_run.completions[i]))
          << "rep " << rep << " task " << i;
    }
    EXPECT_NEAR(form.objective_scale * canonical_run.weighted_completion,
                direct_run.weighted_completion,
                1e-9 * (1.0 + direct_run.weighted_completion))
        << "rep " << rep;
  }
}

TEST(Canonical, QuantizeRatioFindsMinimalDenominatorRationals) {
  // Exactly representable rationals are fixed points.
  EXPECT_EQ(msvc::quantize_ratio(0.25), 0.25);
  EXPECT_EQ(msvc::quantize_ratio(1.0), 1.0);
  EXPECT_EQ(msvc::quantize_ratio(0.5714285714285714),  // nearest(4/7)
            4.0 / 7.0);
  // Ulp-perturbed ratios snap back to the rational's own double.
  const double third = 1.0 / 3.0;
  EXPECT_EQ(msvc::quantize_ratio(std::nextafter(third, 0.0)), third);
  EXPECT_EQ(msvc::quantize_ratio(std::nextafter(third, 1.0)), third);
  // Minimal denominator, not nearest: anything within the window of 1/2
  // maps to 1/2, not to some closer 499999/999998.
  EXPECT_EQ(msvc::quantize_ratio(0.5 * (1.0 + 4e-13)), 0.5);
  // Non-positive and non-finite inputs pass through untouched.
  EXPECT_EQ(msvc::quantize_ratio(0.0), 0.0);
  EXPECT_EQ(msvc::quantize_ratio(-0.75), -0.75);
  EXPECT_TRUE(std::isnan(msvc::quantize_ratio(
      std::numeric_limits<double>::quiet_NaN())));
  // The result always stays inside the relative window, and ulp-level
  // perturbations of the input (the twin property the cache key relies on)
  // land on the same snapped value.  The twin property cannot be universal:
  // any input-to-rational map is a step function, and a twin pair can
  // straddle a step when the minimal-denominator rational sits within an
  // ulp of the window boundary (probability ~ulp/window ~ 1e-4 per draw).
  // A straddle is a missed dedup — one extra cache miss — never a wrong
  // result, so the test pins the rate, not absolute agreement.
  ms::Rng rng(5150);
  int twin_mismatches = 0;
  for (int rep = 0; rep < 2000; ++rep) {
    const double r = rng.uniform(1e-6, 1e6);
    const double q = msvc::quantize_ratio(r);
    EXPECT_GE(q, r * (1.0 - 1.01 * msvc::kQuantizationTol)) << hex(r);
    EXPECT_LE(q, r * (1.0 + 1.01 * msvc::kQuantizationTol)) << hex(r);
    const double down = msvc::quantize_ratio(std::nextafter(r, 0.0));
    const double up = msvc::quantize_ratio(std::nextafter(r, 2e6));
    twin_mismatches += (down != q) + (up != q);
  }
  EXPECT_LE(twin_mismatches, 4) << "of 4000 twin draws";
}

TEST(Canonical, ArbitraryRescalingsShareKeyAndCanonicalInstance) {
  // The property the old power-of-two-only quotient lacked: *any* positive
  // rescaling of the three symmetry axes — 3x, 1/7x, 0.013x — lands on the
  // same key, the same text, and the same canonical instance bit for bit
  // (the rebuilt-from-rationals doubles, not merely close ones).
  const double scales[][3] = {{3.0, 1.0, 1.0},     {1.0, 7.0, 1.0},
                              {1.0, 1.0, 0.013},   {3.7, 1.9, 42.0},
                              {1.0 / 3.0, 5.0, 9.0}, {1e-3, 1e2, 1e4}};
  // A pinned odd rescale: tripling these volumes and dividing by the new
  // sum lands at least one ratio an ulp away from the original's, so a
  // divide-only quotient would miss the key that the quantized form shares.
  const mc::Instance odd(4.0, {{0.1, 2.0, 1.0}, {0.2, 1.0, 0.5},
                               {0.7, 4.0, 2.0}});
  const mc::Instance tripled = rescale(odd, 3.0, 1.0, 1.0);
  bool ulp_drift = false;
  for (std::size_t i = 0; i < odd.size(); ++i) {
    ulp_drift |= odd.task(i).volume / odd.total_volume() !=
                 tripled.task(i).volume / tripled.total_volume();
  }
  ASSERT_TRUE(ulp_drift) << "the pinned rescale must drift in ulps";
  EXPECT_EQ(msvc::canonicalize(odd).key, msvc::canonicalize(tripled).key);
  for (const mc::Family family : mc::all_families()) {
    ms::Rng rng(777 + static_cast<std::uint64_t>(family));
    for (int rep = 0; rep < 10; ++rep) {
      mc::GeneratorConfig config;
      config.family = family;
      config.num_tasks = 5;
      config.processors = 4.0;
      const auto inst = mc::generate(config, rng);
      const auto form = msvc::canonicalize(inst);
      for (const auto& s : scales) {
        const auto scaled_form =
            msvc::canonicalize(rescale(inst, s[0], s[1], s[2]));
        ASSERT_EQ(form.key, scaled_form.key)
            << mc::family_name(family) << " rep " << rep << " scales "
            << s[0] << "," << s[1] << "," << s[2];
        EXPECT_EQ(msvc::canonical_text(form),
                  msvc::canonical_text(scaled_form));
        for (std::size_t i = 0; i < form.instance.size(); ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(form.instance.task(i).volume),
                    std::bit_cast<std::uint64_t>(
                        scaled_form.instance.task(i).volume))
              << hex(form.instance.task(i).volume) << " vs "
              << hex(scaled_form.instance.task(i).volume);
        }
        // The scales stay request-exact so results map back to the client's
        // own units: time stretches with volume, shrinks with the machine.
        EXPECT_NEAR(scaled_form.time_scale, form.time_scale * s[0] / s[1],
                    1e-12 * form.time_scale * s[0] / s[1]);
      }
    }
  }
}

TEST(Canonical, QuantizationTwinsShareTheKey) {
  // Twins from different arithmetic: 0.1 * 3 != 0.3 in doubles, but both
  // express the same real instance, so the quantized normal form must unify
  // them (the divide-only quotient kept them apart forever).
  const mc::Instance a(2.0, {{0.3, 1.0, 1.0}, {0.7, 2.0, 2.0}});
  const mc::Instance b(2.0, {{0.1 * 3.0, 1.0, 1.0}, {0.7, 2.0, 2.0}});
  ASSERT_NE(a.task(0).volume, b.task(0).volume) << "twins must differ in ulps";
  const auto fa = msvc::canonicalize(a);
  const auto fb = msvc::canonicalize(b);
  EXPECT_EQ(fa.key, fb.key);
  EXPECT_EQ(msvc::canonical_text(fa), msvc::canonical_text(fb));
}

TEST(Canonical, CacheHitReplaysByteIdenticalResults) {
  // End-to-end byte parity: a request served from the cache must be
  // indistinguishable — bit for bit, and through the write_results text —
  // from the same request solved fresh.  Holds because every member of the
  // equivalence class solves the identical canonical instance and
  // denormalizes with its own request-exact scales.
  auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto inst = base_instance();
  // An odd rescaling + permutation of the base instance: hits the entry the
  // base solve filled only through the quantized normal form.
  const auto variant_base = rescale(inst, 3.0, 1.5, 7.0);
  const mc::Instance variant(variant_base.processors(),
                             {variant_base.task(2), variant_base.task(0),
                              variant_base.task(1)});

  msvc::Scheduler::Options options;
  options.threads = 1;
  msvc::Scheduler warm(registry, options);
  const auto seed = warm.submit("wdeq", inst).get();
  ASSERT_TRUE(seed.ok());
  auto via_cache = warm.submit("wdeq", variant).get();
  ASSERT_TRUE(via_cache.ok());
  EXPECT_TRUE(via_cache.cache_hit);

  msvc::Scheduler cold(registry, options);
  auto fresh = cold.submit("wdeq", variant).get();
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.cache_hit);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(via_cache.objective()),
            std::bit_cast<std::uint64_t>(fresh.objective()))
      << hex(via_cache.objective()) << " vs " << hex(fresh.objective());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(via_cache.makespan()),
            std::bit_cast<std::uint64_t>(fresh.makespan()))
      << hex(via_cache.makespan()) << " vs " << hex(fresh.makespan());
  ASSERT_EQ(via_cache.completions().size(), fresh.completions().size());
  for (std::size_t i = 0; i < fresh.completions().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(via_cache.completions()[i]),
              std::bit_cast<std::uint64_t>(fresh.completions()[i]))
        << "task " << i << ": " << hex(via_cache.completions()[i]) << " vs "
        << hex(fresh.completions()[i]);
  }

  msvc::ServiceReport replayed;
  replayed.results.push_back(std::move(via_cache));
  msvc::ServiceReport solved;
  solved.results.push_back(std::move(fresh));
  EXPECT_EQ(msvc::format_results(replayed), msvc::format_results(solved));
}

TEST(Canonical, NegativeZeroSharesKeyAndText) {
  // -0.0 weights survive parsing ("task 1 1 -0"); both zero encodings must
  // land on one cache entry.
  const mc::Instance pos(2.0, {{1.0, 1.0, 0.0}, {1.0, 2.0, 1.0}});
  const mc::Instance neg(2.0, {{1.0, 1.0, -0.0}, {1.0, 2.0, 1.0}});
  const auto a = msvc::canonicalize(pos);
  const auto b = msvc::canonicalize(neg);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(msvc::canonical_text(a), msvc::canonical_text(b));
}

TEST(Canonical, ZeroTaskAndZeroSumEdgeCases) {
  const auto empty = msvc::canonicalize(mc::Instance(3.0, {}));
  EXPECT_EQ(empty.instance.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.instance.processors(), 1.0);
  EXPECT_TRUE(msvc::denormalize_completions(empty, {}).empty());

  // All-zero volumes and weights: scaling must not divide by zero.
  const auto degenerate = msvc::canonicalize(
      mc::Instance(2.0, {{0.0, 1.0, 0.0}, {0.0, 2.0, 0.0}}));
  EXPECT_DOUBLE_EQ(degenerate.instance.total_volume(), 0.0);
  EXPECT_DOUBLE_EQ(degenerate.instance.total_weight(), 0.0);
  EXPECT_DOUBLE_EQ(degenerate.time_scale, 1.0 / 2.0);
}

namespace {

// Cache key of the divide-only quotient that the normal form replaced:
// volumes, widths and weights divided by ΣV, P and Σw, tasks stable-sorted
// by (V, δ, w), ratios left unsnapped.  It dedupes only identical and
// power-of-two-scaled presentations, the baseline of the test below.
std::string divide_only_key(const mc::Instance& instance) {
  const double total_v = instance.total_volume();
  const double total_w = instance.total_weight();
  const double v = total_v > 0.0 ? total_v : 1.0;
  const double w = total_w > 0.0 ? total_w : 1.0;
  std::vector<mc::Task> tasks;
  tasks.reserve(instance.size());
  for (const mc::Task& t : instance.tasks()) {
    tasks.push_back({t.volume / v, t.width / instance.processors(),
                     t.weight / w});
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const mc::Task& a, const mc::Task& b) {
                     return std::tie(a.volume, a.width, a.weight) <
                            std::tie(b.volume, b.width, b.weight);
                   });
  return msvc::canonical_text(msvc::CanonicalForm{
      mc::Instance(1.0, std::move(tasks)), {}, 1.0, 1.0, 0});
}

}  // namespace

TEST(Canonical, ZipfRescaledRepeatsPinTheEquivalenceClasses) {
  // The cloud-batch pattern the normal form exists for: 24 base workloads
  // arrive 256 times under zipf(1.2) popularity, each time in fresh
  // continuous volume and weight units and a fresh task order.  The cache
  // (TinyLFU on, as the Scheduler runs it) never fills on this stream, so
  // the hit count depends only on which canonical keys are equal: 231 hits
  // through the quantized normal form, against 10 for the divide-only
  // quotient.  A change to the key encoding must move neither count.  A
  // warm replay must reproduce the first pass byte for byte, because hits
  // denormalize the very entry the miss filled.
  const std::size_t num_bases = 24;
  const std::size_t num_requests = 256;
  ms::Rng rng(20120521 + 41);
  const mc::Family families[] = {mc::Family::Uniform, mc::Family::BandwidthLike,
                                 mc::Family::HeavyTailVolumes,
                                 mc::Family::EqualWeights};
  std::vector<mc::Instance> bases;
  for (std::size_t b = 0; b < num_bases; ++b) {
    mc::GeneratorConfig generator;
    generator.family = families[b % 4];
    generator.num_tasks = 4 + static_cast<std::size_t>(rng.uniform_int(0, 8));
    generator.processors = static_cast<double>(1 << rng.uniform_int(1, 4));
    bases.push_back(mc::generate(generator, rng));
  }
  std::vector<double> cdf(num_bases, 0.0);
  double total = 0.0;
  for (std::size_t r = 0; r < num_bases; ++r) {
    total += std::pow(static_cast<double>(r + 1), -1.2);
    cdf[r] = total;
  }
  std::vector<msvc::InstanceHandle> stream;
  for (std::size_t r = 0; r < num_requests; ++r) {
    const double u = rng.uniform(0.0, total);
    const std::size_t b = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const mc::Instance& base = bases[std::min(b, num_bases - 1)];
    const double volume_scale = rng.uniform(0.25, 4.0);
    const double weight_scale = rng.uniform(0.25, 4.0);
    std::vector<mc::Task> tasks = base.tasks();
    for (mc::Task& t : tasks) {
      t.volume *= volume_scale;
      t.weight *= weight_scale;
    }
    for (std::size_t i = tasks.size(); i > 1; --i) {
      std::swap(tasks[i - 1],
                tasks[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    stream.push_back(
        msvc::intern(mc::Instance(base.processors(), std::move(tasks))));
  }

  std::size_t divide_only_hits = 0;
  std::vector<std::string> seen;
  for (const auto& handle : stream) {
    std::string key = divide_only_key(handle.instance());
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      ++divide_only_hits;
    } else {
      seen.push_back(std::move(key));
    }
  }
  EXPECT_EQ(divide_only_hits, 10u);

  const auto registry = msvc::SolverRegistry::with_default_solvers();
  msvc::CacheOptions cache_options;
  cache_options.capacity = std::size_t{1} << 16;
  cache_options.admission = true;
  msvc::ResultCache cache(cache_options);
  const auto pass = [&](std::size_t& hits) {
    msvc::ServiceReport report;
    for (const auto& handle : stream) {
      report.results.push_back(
          msvc::solve_cached(registry, "wdeq", handle, &cache));
      EXPECT_TRUE(report.results.back().ok());
      hits += report.results.back().cache_hit ? 1 : 0;
    }
    return msvc::format_results(report);
  };
  std::size_t first_hits = 0;
  std::size_t replay_hits = 0;
  const std::string first_pass = pass(first_hits);
  const std::string warm_replay = pass(replay_hits);
  EXPECT_EQ(first_hits, 231u);
  EXPECT_EQ(replay_hits, num_requests);
  EXPECT_EQ(warm_replay, first_pass);
  EXPECT_EQ(cache.stats().rejected, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}
