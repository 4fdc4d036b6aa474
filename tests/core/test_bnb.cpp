// Branch-and-bound exactness: the pruned search must return the same
// optimum as n! enumeration on every fixture and across every generator
// family, the identical-shape exchange cut may only shrink the tree, the
// pruning machinery must degenerate to exhaustive enumeration when
// disabled, and the OrderLpEvaluator's warm-started prefix values must
// agree with from-scratch order-LP solves through arbitrary push/pop walks.

#include "malsched/core/bnb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "malsched/core/generators.hpp"
#include "malsched/core/io.hpp"
#include "malsched/core/optimal.hpp"
#include "malsched/core/order_lp.hpp"

namespace mc = malsched::core;
namespace ms = malsched::support;

namespace {

mc::Instance load(const std::string& name) {
  const std::string path = std::string(MALSCHED_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in.good()) {
    throw std::runtime_error("missing fixture " + path);
  }
  std::string error;
  auto inst = mc::read_instance(in, &error);
  if (!inst.has_value()) {
    throw std::runtime_error("bad fixture " + path + ": " + error);
  }
  return *inst;
}

double relative_gap(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

std::size_t factorial(std::size_t n) {
  std::size_t f = 1;
  for (std::size_t k = 2; k <= n; ++k) {
    f *= k;
  }
  return f;
}

}  // namespace

TEST(Bnb, MatchesEnumerationOnEveryFixture) {
  for (const char* fixture :
       {"example_small.mls", "bandwidth_fig1.mls",
        "theorem9_counterexample.mls", "wide_tasks.mls"}) {
    const auto inst = load(fixture);
    ASSERT_LE(inst.size(), 9u) << fixture;
    const auto enumerated = mc::optimal_by_enumeration(inst);
    const auto bnb = mc::branch_and_bound(inst);
    EXPECT_LT(relative_gap(bnb.objective, enumerated.objective), 1e-6)
        << fixture << ": bnb " << bnb.objective << " vs enumeration "
        << enumerated.objective;
    // The returned order must actually achieve the optimum.
    EXPECT_LT(relative_gap(mc::order_lp_objective(inst, bnb.order),
                           enumerated.objective),
              1e-6)
        << fixture;
  }
}

TEST(Bnb, MatchesEnumerationAcrossGeneratorFamilies) {
  // >= 50 random instances per family; sizes cycle 2..5 so the enumeration
  // baseline (n! order LPs per instance) stays affordable.
  for (const mc::Family family : mc::all_families()) {
    ms::Rng rng(20120521 + static_cast<std::uint64_t>(family));
    for (int rep = 0; rep < 50; ++rep) {
      mc::GeneratorConfig config;
      config.family = family;
      config.num_tasks = 2 + static_cast<std::size_t>(rep % 4);
      config.processors = (rep % 3 == 0) ? 1.0 : 4.0;
      const auto inst = mc::generate(config, rng);
      const auto enumerated = mc::optimal_by_enumeration(inst);
      const auto bnb = mc::branch_and_bound(inst);
      EXPECT_LT(relative_gap(bnb.objective, enumerated.objective), 1e-6)
          << mc::family_name(family) << " rep " << rep << " n "
          << inst.size() << ": bnb " << bnb.objective << " vs enumeration "
          << enumerated.objective;
      EXPECT_LT(relative_gap(mc::order_lp_objective(inst, bnb.order),
                             enumerated.objective),
                1e-6)
          << mc::family_name(family) << " rep " << rep;
    }
  }
}

TEST(Bnb, DisabledPruningVisitsExactlyFactorialLeaves) {
  ms::Rng rng(97);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 6;
  config.processors = 2.0;
  const auto inst = mc::generate(config, rng);

  mc::BnbOptions options;
  options.use_bounds = false;
  options.use_dominance = false;
  const auto exhaustive = mc::branch_and_bound(inst, options);
  EXPECT_EQ(exhaustive.stats.leaves, factorial(inst.size()));
  EXPECT_EQ(exhaustive.stats.pruned_by_bound, 0u);
  EXPECT_EQ(exhaustive.stats.pruned_by_dominance, 0u);

  const auto enumerated = mc::optimal_by_enumeration(inst);
  EXPECT_LT(relative_gap(exhaustive.objective, enumerated.objective), 1e-6);

  // Default options search the same space with pruning: same optimum, a
  // strictly smaller tree.
  const auto pruned = mc::branch_and_bound(inst);
  EXPECT_LT(relative_gap(pruned.objective, enumerated.objective), 1e-6);
  EXPECT_LT(pruned.stats.leaves, exhaustive.stats.leaves);
  EXPECT_GT(pruned.stats.pruned_by_bound, 0u);
}

TEST(Bnb, ObjectiveIsTheFromScratchValueOfItsOrder) {
  // Leaves are pushed warm and re-solved from scratch only when the warm
  // value could still beat the incumbent, so the returned objective must be
  // exactly what order_lp_objective computes for the returned order — no
  // tolerance.  n = 8–9 puts the search past the enumeration crossover;
  // the two families whose search time is heavy-tailed at these sizes
  // stay at n = 8 to keep the test to seconds.
  for (const mc::Family family : mc::all_families()) {
    const bool heavy = family == mc::Family::HomogeneousHalf ||
                       family == mc::Family::EqualWeightsVolumes;
    ms::Rng rng(1 + static_cast<std::uint64_t>(family));
    for (const std::size_t n : {std::size_t{8}, std::size_t{9}}) {
      if (heavy && n == 9) {
        continue;
      }
      mc::GeneratorConfig config;
      config.family = family;
      config.num_tasks = n;
      config.processors = 2.0;
      const auto inst = mc::generate(config, rng);
      const auto bnb = mc::branch_and_bound(inst);
      EXPECT_EQ(bnb.objective, mc::order_lp_objective(inst, bnb.order))
          << mc::family_name(family) << " n " << n;
      EXPECT_LE(bnb.stats.leaf_resolves, bnb.stats.leaves)
          << mc::family_name(family) << " n " << n;
      EXPECT_EQ(bnb.stats.lp_failures, 0u)
          << mc::family_name(family) << " n " << n;
    }
  }
}

// One ctest case per generator family, so `ctest -j` runs the families in
// parallel instead of behind one serial loop.
class BnbCutsFuzz : public ::testing::TestWithParam<mc::Family> {};

TEST_P(BnbCutsFuzz, DifferentialFuzzCutsPreserveTheSearchContract) {
  // The exchange cut is *redundant*: it may only remove subtrees the DP
  // bound would have explored, never change the answer.  On these
  // continuous generator families it is provably inert (exact shape
  // collisions have probability zero), so even the returned order must
  // match bit for bit.  Three-way differential per instance, 50 seeded
  // instances of the family:
  //   * cuts-on vs cuts-off objective is EXPECT_EQ — both searches keep the
  //     incumbent in the same double arithmetic, so parity is exact, not
  //     approximate;
  //   * cuts-on never expands more nodes than cuts-off (children are sorted
  //     by the DP bound in both modes, so the cut can only subtract);
  //   * below the enumeration crossover, both agree with the n! baseline.
  const mc::Family family = GetParam();
  ms::Rng rng(911 + static_cast<std::uint64_t>(family));
  for (int rep = 0; rep < 50; ++rep) {
    mc::GeneratorConfig config;
    config.family = family;
    // n caps at 7: the narrow families' cuts-off trees grow factorially
    // and n = 8 alone multiplies the suite's wall time several-fold
    // without adding differential coverage.
    config.num_tasks = 4 + static_cast<std::size_t>(rep % 4);
    config.processors = (rep % 3 == 0) ? 2.0 : 4.0;
    const auto inst = mc::generate(config, rng);

    mc::BnbOptions off;
    off.use_cuts = false;
    const auto without = mc::branch_and_bound(inst, off);
    const auto with = mc::branch_and_bound(inst);  // cuts default on

    EXPECT_EQ(with.objective, without.objective)
        << mc::family_name(family) << " rep " << rep << " n " << inst.size();
    EXPECT_EQ(with.order, without.order)
        << mc::family_name(family) << " rep " << rep;
    EXPECT_LE(with.stats.nodes, without.stats.nodes)
        << mc::family_name(family) << " rep " << rep
        << ": cuts expanded the tree";
    EXPECT_EQ(without.stats.pruned_by_cut, 0u);

    if (inst.size() <= 6) {
      const auto enumerated = mc::optimal_by_enumeration(inst);
      EXPECT_LT(relative_gap(with.objective, enumerated.objective), 1e-6)
          << mc::family_name(family) << " rep " << rep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BnbCutsFuzz,
                         ::testing::ValuesIn(mc::all_families()),
                         [](const auto& info) {
                           std::string name = mc::family_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(BnbCuts, CutsOffReproducesTheDpBoundEraTree) {
  // With use_cuts = false the search must be byte-for-byte the pre-cut
  // algorithm: same stats, zero cut prunes, and use_cuts without use_bounds
  // is inert (the exchange cut is gated with the bounds).
  ms::Rng rng(404);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 7;
  config.processors = 4.0;
  const auto inst = mc::generate(config, rng);

  mc::BnbOptions off;
  off.use_cuts = false;
  const auto a = mc::branch_and_bound(inst, off);
  const auto b = mc::branch_and_bound(inst, off);
  EXPECT_EQ(a.stats.nodes, b.stats.nodes);
  EXPECT_EQ(a.stats.leaves, b.stats.leaves);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.stats.pruned_by_cut, 0u);

  mc::BnbOptions no_bounds;
  no_bounds.use_bounds = false;
  no_bounds.use_dominance = false;
  const auto exhaustive = mc::branch_and_bound(inst, no_bounds);
  EXPECT_EQ(exhaustive.stats.pruned_by_cut, 0u)
      << "cuts must be inert when bounds are disabled";
  EXPECT_EQ(exhaustive.stats.leaves, factorial(inst.size()));
}

namespace {

/// The pinned structured fixture: two interleaved batches of six
/// identical-shape jobs each (tall-narrow v=2/δ=1 and short-wide v=1/δ=4 on
/// P=4, so the shapes interfere and the completion-floor relaxation goes
/// loose) under geometric intra-batch weight spreads.  Repeated shapes with
/// heterogeneous weights are exactly the workload the exchange cut exists
/// for: within each batch only the weight-descending completion order
/// survives, while cuts-off has to grind through the near-tied interleavings.
mc::Instance structured_batch_fixture() {
  std::vector<mc::Task> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back({2.0, 1.0, std::pow(2.0, i)});
    tasks.push_back({1.0, 4.0, 0.9 * std::pow(2.0, 5 - i)});
  }
  return mc::Instance(4.0, std::move(tasks));
}

}  // namespace

TEST(BnbCuts, ExchangeCutStaysExactOnShapeClassInstances) {
  // Validity of the identical-shape exchange cut, against the ground truth:
  // random instances made of repeated shapes with heterogeneous weights —
  // the one regime where the cut actually fires.  The excluded orders are
  // objective-tied, so cuts-on may legitimately return a *different*
  // optimal order than cuts-off; the contract here is optimality (vs n!
  // enumeration) and tree shrinkage, not order identity.
  ms::Rng rng(20120522);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<mc::Task> tasks;
    const std::size_t shapes = 1 + static_cast<std::size_t>(rep % 3);
    for (std::size_t s = 0; s < shapes; ++s) {
      const double volume = rng.uniform(0.5, 2.0);
      const double width = rng.uniform(0.5, 4.0);
      const std::size_t copies = 2 + static_cast<std::size_t>(rep % 2);
      for (std::size_t c = 0; c < copies && tasks.size() < 6; ++c) {
        tasks.push_back({volume, width, rng.uniform(0.1, 4.0)});
      }
    }
    const mc::Instance inst(2.0, std::move(tasks));

    mc::BnbOptions off;
    off.use_cuts = false;
    const auto without = mc::branch_and_bound(inst, off);
    const auto with = mc::branch_and_bound(inst);
    const auto enumerated = mc::optimal_by_enumeration(inst);

    EXPECT_LT(relative_gap(with.objective, enumerated.objective), 1e-6)
        << "rep " << rep << " n " << inst.size();
    EXPECT_LT(relative_gap(with.objective, without.objective), 1e-9)
        << "rep " << rep;
    EXPECT_LE(with.stats.nodes, without.stats.nodes) << "rep " << rep;
    EXPECT_LT(relative_gap(mc::order_lp_objective(inst, with.order),
                           enumerated.objective),
              1e-6)
        << "rep " << rep << ": cuts-on order must achieve the optimum";
  }
}

TEST(BnbCuts, PinnedStructuredFixtureCollapsesFiveFold) {
  // bench_bnb's CI gate, pinned as a regression fixture: on the structured
  // n=12 batch instance the exchange cut must keep at least a 5x node
  // advantage over the cuts-off search (measured ~97x: 286 vs 27 745
  // nodes) while returning the identical optimal order, whose
  // from-scratch leaf re-solve makes the objectives bit-equal.  The
  // absolute pins keep both trees from regressing independently: cuts-on
  // must stay collapsed, cuts-off documents the DP-bound-era cost of this
  // workload (and keeps the suite honest if the DP bound ever improves
  // enough to close the gap itself).
  const mc::Instance inst = structured_batch_fixture();

  mc::BnbOptions off;
  off.use_cuts = false;
  const auto without = mc::branch_and_bound(inst, off);
  const auto with = mc::branch_and_bound(inst);

  EXPECT_EQ(with.objective, without.objective);
  EXPECT_EQ(with.order, without.order);
  EXPECT_GT(with.stats.pruned_by_cut, 0u);
  EXPECT_EQ(without.stats.pruned_by_cut, 0u);

  EXPECT_LE(with.stats.nodes, 400u) << "cuts-on tree regressed";
  EXPECT_GE(without.stats.nodes, 20000u)
      << "cuts-off tree shrank: re-measure the fixture before relaxing";
  EXPECT_GE(without.stats.nodes, 5 * with.stats.nodes)
      << "acceptance gate: >= 5x fewer nodes with cuts on";
}

TEST(Bnb, DominanceCollapsesIdenticalTasks) {
  // Eight identical tasks: every order is a renaming, so the dominance rule
  // leaves exactly one chain — a single leaf even with bounds off.
  const mc::Instance inst(4.0, std::vector<mc::Task>(8, {1.0, 1.0, 1.0}));
  mc::BnbOptions options;
  options.use_bounds = false;
  const auto res = mc::branch_and_bound(inst, options);
  EXPECT_EQ(res.stats.leaves, 1u);
  EXPECT_GT(res.stats.pruned_by_dominance, 0u);
  // Closed form: batches of four unit tasks on P = 4 complete at 1 and 2.
  EXPECT_NEAR(res.objective, 4.0 * 1.0 + 4.0 * 2.0, 1e-7);
  // The surviving order is the index order.
  EXPECT_TRUE(std::is_sorted(res.order.begin(), res.order.end()));
}

TEST(Bnb, DuplicateIncumbentSeedsAreSolvedOnce) {
  // Eight identical tasks: every seed order (four priority orders, two
  // greedy completion orders) is the identity, so only the first seed is
  // solved.  Every other LP is a search node or a leaf re-solve.
  const mc::Instance inst(4.0, std::vector<mc::Task>(8, {1.0, 1.0, 1.0}));
  const auto res = mc::branch_and_bound(inst);
  EXPECT_EQ(res.stats.lp_evaluations,
            res.stats.nodes + res.stats.leaf_resolves + 1);
  EXPECT_NEAR(res.objective, 4.0 * 1.0 + 4.0 * 2.0, 1e-7);
}

TEST(Bnb, PinnedUniformN12FixtureKeepsItsTree) {
  // bench_bnb's CI fixture (uniform, n = 12, P = 4, seed 42), pinned so
  // that a change to the warm-push kernel shows whether it changed the
  // search or only its speed: the tree depends on warm values only through
  // prune and re-solve decisions, and the objective is a from-scratch
  // leaf value.
  ms::Rng rng(42);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 12;
  config.processors = 4.0;
  const auto inst = mc::generate(config, rng);
  const auto res = mc::branch_and_bound(inst);
  EXPECT_EQ(res.stats.nodes, 15929u);
  EXPECT_EQ(res.stats.leaves, 21u);
  EXPECT_EQ(res.stats.leaf_resolves, 2u);
  EXPECT_EQ(res.stats.pruned_by_bound, 34464u);
  EXPECT_EQ(res.stats.lp_failures, 0u);
  EXPECT_EQ(res.objective, 0x1.58e3155bbb644p+1);
  EXPECT_EQ(res.order, (std::vector<std::size_t>{11, 9, 6, 4, 3, 5, 8, 2, 7,
                                                 0, 10, 1}));
}

TEST(Bnb, DominancePinsZeroVolumeFirstAndZeroWeightLast) {
  // Task 1 has zero volume (completes at 0), task 3 zero weight (free to
  // finish last); dominance prunes every order violating either pin.
  const mc::Instance inst(2.0, {{1.0, 1.0, 1.0},
                                {0.0, 1.0, 5.0},
                                {0.5, 2.0, 2.0},
                                {2.0, 1.5, 0.0}});
  const auto enumerated = mc::optimal_by_enumeration(inst);
  const auto bnb = mc::branch_and_bound(inst);
  EXPECT_LT(relative_gap(bnb.objective, enumerated.objective), 1e-6);
  EXPECT_GT(bnb.stats.pruned_by_dominance, 0u);
  EXPECT_EQ(bnb.order.front(), 1u);  // zero volume first
  EXPECT_EQ(bnb.order.back(), 3u);   // zero weight last
}

TEST(Bnb, WantScheduleProducesValidOptimalSchedule) {
  ms::Rng rng(101);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 8;
  config.processors = 2.0;
  const auto inst = mc::generate(config, rng);
  mc::BnbOptions options;
  options.want_schedule = true;
  const auto res = mc::branch_and_bound(inst, options);
  const auto check = res.schedule.validate(inst);
  EXPECT_TRUE(check.valid) << check.message;
  EXPECT_NEAR(res.schedule.weighted_completion(inst), res.objective, 1e-6);
}

TEST(Bnb, EmptyAndSingletonInstances) {
  const mc::Instance empty(2.0, {});
  const auto none = mc::branch_and_bound(empty);
  EXPECT_EQ(none.objective, 0.0);
  EXPECT_TRUE(none.order.empty());

  const mc::Instance one(2.0, {{3.0, 1.5, 2.0}});
  const auto single = mc::branch_and_bound(one);
  EXPECT_NEAR(single.objective, 2.0 * (3.0 / 1.5), 1e-9);
  EXPECT_EQ(single.order, (std::vector<std::size_t>{0}));
}

TEST(BnbDeath, RefusesInstancesBeyondTheGuard) {
  std::vector<mc::Task> tasks(21, {1.0, 1.0, 1.0});
  const mc::Instance inst(4.0, std::move(tasks));
  EXPECT_DEATH((void)mc::branch_and_bound(inst), "exponential");
}

namespace {

/// Random push/pop walk that checks every push against a from-scratch
/// solve of the same prefix.  About one push in five is exact: it extends
/// the evaluator's structure without a warm solve, and the next warm push
/// must solve on top of it.
void check_warm_walk(const mc::Instance& inst, std::uint64_t seed,
                     const std::string& label) {
  mc::OrderLpEvaluator evaluator(inst);
  ms::Rng walk(seed);
  std::vector<std::size_t> prefix;
  for (int step = 0; step < 400; ++step) {
    const bool can_push = prefix.size() < inst.size();
    if (can_push && (prefix.empty() || walk.bernoulli(0.6))) {
      std::size_t task;
      do {
        task = static_cast<std::size_t>(
            walk.uniform_int(0, static_cast<std::int64_t>(inst.size()) - 1));
      } while (std::find(prefix.begin(), prefix.end(), task) != prefix.end());
      prefix.push_back(task);
      const double reference = mc::order_lp_objective(inst, prefix);
      if (walk.bernoulli(0.2)) {
        EXPECT_EQ(evaluator.push(task, /*exact=*/true), reference)
            << label << " depth " << prefix.size() << " step " << step;
      } else {
        const double incremental = evaluator.push(task, /*exact=*/false);
        EXPECT_LT(relative_gap(incremental, reference), 1e-9)
            << label << " depth " << prefix.size() << " step " << step;
      }
      EXPECT_EQ(evaluator.depth(), prefix.size());
    } else {
      prefix.pop_back();
      evaluator.pop();
    }
  }
  EXPECT_EQ(evaluator.lp_failures(), 0u) << label;
}

}  // namespace

// One ctest case per generator family, like BnbCutsFuzz.
class OrderLpEvaluatorWalk : public ::testing::TestWithParam<mc::Family> {};

TEST_P(OrderLpEvaluatorWalk, WarmStartedPushMatchesFromScratchSolves) {
  const mc::Family family = GetParam();
  ms::Rng rng(42 + static_cast<std::uint64_t>(family));
  for (int rep = 0; rep < 4; ++rep) {
    mc::GeneratorConfig config;
    config.family = family;
    config.num_tasks = 7;
    config.processors = rep % 2 == 0 ? 4.0 : 2.0;
    const auto inst = mc::generate(config, rng);
    check_warm_walk(inst, 7 + static_cast<std::uint64_t>(rep),
                    std::string(mc::family_name(family)) + " rep " +
                        std::to_string(rep));
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, OrderLpEvaluatorWalk,
                         ::testing::ValuesIn(mc::all_families()),
                         [](const auto& info) {
                           std::string name = mc::family_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

namespace {

/// Dives to full depth along a random order, pops back to a random depth
/// and dives again, checking every warm push against a from-scratch solve.
/// Deep prefixes are where the row pool is largest and separation works
/// hardest.
void check_deep_walk(const mc::Instance& inst, std::uint64_t seed,
                     const std::string& label) {
  mc::OrderLpEvaluator evaluator(inst);
  ms::Rng walk(seed);
  std::vector<std::size_t> prefix;
  for (int dive = 0; dive < 2; ++dive) {
    while (prefix.size() < inst.size()) {
      std::size_t task;
      do {
        task = static_cast<std::size_t>(
            walk.uniform_int(0, static_cast<std::int64_t>(inst.size()) - 1));
      } while (std::find(prefix.begin(), prefix.end(), task) != prefix.end());
      prefix.push_back(task);
      const double incremental = evaluator.push(task, /*exact=*/false);
      EXPECT_LT(relative_gap(incremental, mc::order_lp_objective(inst, prefix)),
                1e-9)
          << label << " depth " << prefix.size();
    }
    const auto keep = static_cast<std::size_t>(walk.uniform_int(
        static_cast<std::int64_t>(inst.size() / 3),
        static_cast<std::int64_t>(inst.size()) - 1));
    while (prefix.size() > keep) {
      prefix.pop_back();
      evaluator.pop();
    }
  }
  EXPECT_EQ(evaluator.lp_failures(), 0u) << label;
}

}  // namespace

// Sizes up to the B&B guard, P from 1 to 64, and volumes scaled by 1e-4 and
// 1e5: the covering kernel's tolerances are relative to the prefix volume,
// so every scale must stay within 1e-9 of the from-scratch compact LP.
class OrderLpEvaluatorStress : public ::testing::TestWithParam<mc::Family> {};

TEST_P(OrderLpEvaluatorStress, WarmPushesMatchScratchAcrossSizesWidthsAndScales) {
  const mc::Family family = GetParam();
  ms::Rng rng(500 + static_cast<std::uint64_t>(family));
  std::uint64_t walk_seed = 0;
  for (const std::size_t n : {std::size_t{10}, std::size_t{14}, std::size_t{18}}) {
    for (const double processors : {1.0, 2.0, 8.0, 64.0}) {
      for (const double scale : {1e-4, 1.0, 1e5}) {
        mc::GeneratorConfig config;
        config.family = family;
        config.num_tasks = n;
        config.processors = processors;
        const auto drawn = mc::generate(config, rng);
        std::vector<double> volumes;
        for (const auto& task : drawn.tasks()) {
          volumes.push_back(task.volume * scale);
        }
        check_deep_walk(drawn.with_volumes(volumes), ++walk_seed,
                        std::string(mc::family_name(family)) + " n " +
                            std::to_string(n) + " P " +
                            std::to_string(processors) + " scale " +
                            std::to_string(scale));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, OrderLpEvaluatorStress,
                         ::testing::ValuesIn(mc::all_families()),
                         [](const auto& info) {
                           std::string name = mc::family_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(OrderLpEvaluator, WarmStartedPushHandlesEdgeTasks) {
  // Each edge task shapes the order LP differently: δ ≥ P (δ = P exactly,
  // too) caps its covering-row coefficients at P; zero volume adds no row
  // at all; zero weight adds nothing to the earlier suffix costs.
  const mc::Instance inst(3.0, {{1.5, 4.0, 1.0},
                                {0.0, 1.0, 2.0},
                                {2.0, 2.0, 0.0},
                                {1.0, 1.5, 0.5},
                                {0.7, 3.0, 1.2},
                                {2.5, 0.5, 0.8}});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    check_warm_walk(inst, seed, "edge walk " + std::to_string(seed));
  }
}

TEST(OrderLpEvaluator, ExactPushIsBitIdenticalWithOrderLpObjective) {
  const auto inst = load("example_small.mls");
  mc::OrderLpEvaluator evaluator(inst);
  std::vector<std::size_t> prefix;
  for (std::size_t task = 0; task < inst.size(); ++task) {
    prefix.push_back(task);
    const double exact = evaluator.push(task, /*exact=*/true);
    EXPECT_EQ(exact, mc::order_lp_objective(inst, prefix)) << task;
    EXPECT_EQ(evaluator.objective(), exact);
  }
}

TEST(OrderLpEvaluator, GreedyCompletionMatchesCapacityProfilePeek) {
  const auto inst = load("bandwidth_fig1.mls");
  mc::OrderLpEvaluator evaluator(inst);
  mc::CapacityProfile profile(inst.processors());
  for (std::size_t task = 0; task < inst.size(); ++task) {
    EXPECT_DOUBLE_EQ(
        evaluator.greedy_completion(task),
        profile.peek(inst.effective_width(task), inst.task(task).volume))
        << task;
    evaluator.push(task, /*exact=*/false);
    profile.place(inst.effective_width(task), inst.task(task).volume);
  }
}

TEST(Optimal, DelegatesToBranchAndBoundAboveTheCrossover) {
  ms::Rng rng(11);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 8;  // above the enumeration crossover of 7
  config.processors = 4.0;
  const auto inst = mc::generate(config, rng);
  const auto viaOptimal = mc::optimal_by_enumeration(inst);
  const auto direct = mc::branch_and_bound(inst);
  EXPECT_EQ(viaOptimal.objective, direct.objective);
  EXPECT_EQ(viaOptimal.order, direct.order);
  EXPECT_EQ(viaOptimal.orders_tried, direct.stats.leaves);
  // n! would be 40320; the proof tree is orders of magnitude smaller.
  EXPECT_LT(direct.stats.lp_evaluations, 40320u);
}

TEST(Cancellation, PreCancelledTokenStopsTheSearchButKeepsASeedIncumbent) {
  // A token that fired before the DFS even starts: the search must return
  // immediately with cancelled = true, yet still carry a feasible order —
  // the incumbent seeds (Smith, greedy, ...) always run.
  ms::Rng rng(3);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 9;
  config.processors = 4.0;
  const auto inst = mc::generate(config, rng);

  mc::CancelSource source;
  source.request_cancel();
  mc::BnbOptions options;
  options.cancel = source.token();
  const auto cancelled = mc::branch_and_bound(inst, options);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.order.size(), inst.size());
  EXPECT_EQ(cancelled.stats.leaves, 0u) << "no leaf may be explored";

  // The incumbent is an upper bound on the true optimum.
  const auto exact = mc::branch_and_bound(inst);
  EXPECT_FALSE(exact.cancelled);
  EXPECT_GE(cancelled.objective, exact.objective - 1e-9);

  // Same contract through the optimal_by_enumeration facade, on both sides
  // of the enumeration crossover.
  for (const std::size_t n : {std::size_t{6}, std::size_t{9}}) {
    mc::GeneratorConfig small_config;
    small_config.family = mc::Family::Uniform;
    small_config.num_tasks = n;
    small_config.processors = 2.0;
    ms::Rng small_rng(7);
    const auto small_inst = mc::generate(small_config, small_rng);
    mc::OptimalOptions optimal_options;
    optimal_options.cancel = source.token();
    const auto result = mc::optimal_by_enumeration(small_inst, optimal_options);
    EXPECT_TRUE(result.cancelled) << n;
  }
}

TEST(Cancellation, DefaultTokenNeverFires) {
  const mc::CancelToken token;
  EXPECT_FALSE(token.can_cancel());
  EXPECT_FALSE(token.cancelled());

  mc::CancelSource source;
  EXPECT_FALSE(source.cancel_requested());
  const auto live = source.token();
  EXPECT_TRUE(live.can_cancel());
  EXPECT_FALSE(live.cancelled());
  source.request_cancel();
  EXPECT_TRUE(live.cancelled());
  EXPECT_TRUE(source.cancel_requested());

  // Deadline-only token: fires exactly when the clock passes the deadline.
  const auto past = mc::CancelToken::with_deadline(
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(past.cancelled());
  const auto future = mc::CancelToken::with_deadline(
      std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_TRUE(future.can_cancel());
  EXPECT_FALSE(future.cancelled());
}
