#include "malsched/core/order_lp.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "malsched/core/generators.hpp"
#include "malsched/core/greedy.hpp"
#include "malsched/core/io.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/core/water_filling.hpp"

namespace mc = malsched::core;
namespace ms = malsched::support;
using malsched::numeric::Rational;

namespace {

mc::Instance load(const std::string& name) {
  const std::string path = std::string(MALSCHED_DATA_DIR) + "/" + name;
  std::ifstream in(path);
  std::string error;
  auto inst = mc::read_instance(in, &error);
  if (!inst.has_value()) {
    throw std::runtime_error("bad fixture " + path + ": " + error);
  }
  return *inst;
}

/// Exact bits of one instance's order LPs: the compact objective-only
/// formulation (order_lp_objective) and the full one (solve_order_lp),
/// each under the identity order and the Smith order.
struct PinnedBits {
  double identity_compact;
  double identity_full;
  double smith_compact;
  double smith_full;
};

void expect_pinned_bits(const mc::Instance& inst, const PinnedBits& pinned,
                        const std::string& label) {
  const auto identity = mc::identity_order(inst.size());
  const auto smith = mc::smith_order(inst);
  EXPECT_EQ(mc::order_lp_objective(inst, identity), pinned.identity_compact)
      << label;
  EXPECT_EQ(mc::solve_order_lp(inst, identity).objective, pinned.identity_full)
      << label;
  EXPECT_EQ(mc::order_lp_objective(inst, smith), pinned.smith_compact)
      << label;
  EXPECT_EQ(mc::solve_order_lp(inst, smith).objective, pinned.smith_full)
      << label;
}

}  // namespace

TEST(OrderLp, SingleTaskClosedForm) {
  const mc::Instance inst(4.0, {{6.0, 3.0, 2.0}});
  const auto result = mc::solve_order_lp(inst, mc::identity_order(1));
  ASSERT_TRUE(result.optimal());
  // C = V / min(δ, P) = 2, objective = w*C = 4.
  EXPECT_NEAR(result.objective, 4.0, 1e-9);
  EXPECT_TRUE(result.schedule.validate(inst).valid);
}

TEST(OrderLp, TwoTaskClosedForm) {
  // P=1, unit widths... δ=1 each, V=1 each, w 2 and 1, order (0,1):
  // C0 = 1, C1 = 2, objective = 2*1 + 1*2 = 4.  The LP may also interleave,
  // but with equal δ=P=1 sequential is optimal for the fixed order.
  const mc::Instance inst(1.0, {{1.0, 1.0, 2.0}, {1.0, 1.0, 1.0}});
  const auto result = mc::solve_order_lp(inst, mc::identity_order(2));
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(result.objective, 4.0, 1e-9);
}

TEST(OrderLp, OrderMattersForWeights) {
  const mc::Instance inst(1.0, {{1.0, 1.0, 1.0}, {1.0, 1.0, 10.0}});
  const std::vector<std::size_t> heavy_first{1, 0};
  const std::vector<std::size_t> light_first{0, 1};
  const double heavy = mc::order_lp_objective(inst, heavy_first);
  const double light = mc::order_lp_objective(inst, light_first);
  // Heavy task first: 10*1 + 1*2 = 12; light first: 1*1 + 10*2 = 21.
  EXPECT_NEAR(heavy, 12.0, 1e-9);
  EXPECT_NEAR(light, 21.0, 1e-9);
}

TEST(OrderLp, ScheduleIsValidAndMatchesObjective) {
  ms::Rng rng(73);
  for (int rep = 0; rep < 30; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 5;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    const auto order = rng.permutation(inst.size());
    const auto result = mc::solve_order_lp(inst, order);
    ASSERT_TRUE(result.optimal()) << "rep " << rep;
    const auto check = result.schedule.validate(inst);
    EXPECT_TRUE(check.valid) << "rep " << rep << ": " << check.message;
    EXPECT_NEAR(result.schedule.weighted_completion(inst), result.objective,
                1e-6)
        << "rep " << rep;
  }
}

TEST(OrderLp, LpBeatsGreedyWithSameOrder) {
  // The LP optimizes over all schedules with the given completion order;
  // greedy with that order produces one such schedule (up to completion
  // order mismatch, use the greedy completion order).
  ms::Rng rng(79);
  for (int rep = 0; rep < 20; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 4;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    const auto greedy = mc::greedy_schedule(inst, mc::smith_order(inst));
    const auto columns = greedy.to_columns(inst);
    const double lp = mc::order_lp_objective(inst, columns.order());
    EXPECT_LE(lp, greedy.weighted_completion(inst) + 1e-7) << "rep " << rep;
  }
}

TEST(OrderLp, WfReconstructsLpCompletions) {
  // Theorem 8 consistency: completion times from an LP-optimal schedule are
  // WF-feasible.
  ms::Rng rng(83);
  for (int rep = 0; rep < 20; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 4;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    const auto result = mc::solve_order_lp(inst, rng.permutation(4));
    ASSERT_TRUE(result.optimal());
    const auto completions = result.schedule.completions();
    EXPECT_TRUE(mc::water_fill(inst, completions).feasible) << "rep " << rep;
  }
}

TEST(OrderLp, ExactMatchesDouble) {
  ms::Rng rng(89);
  for (int rep = 0; rep < 5; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 3;
    config.processors = 2.0;
    const auto inst = mc::generate(config, rng);
    const auto order = mc::identity_order(3);
    const auto exact = mc::solve_order_lp_exact(inst, order);
    const double approx = mc::order_lp_objective(inst, order);
    ASSERT_EQ(exact.status, malsched::lp::SolveStatus::Optimal);
    EXPECT_NEAR(exact.objective.to_double(), approx, 1e-7) << "rep " << rep;
  }
}

TEST(OrderLp, ExactValueIsRationalClosedForm) {
  // P=1, two tasks δ=1, V=1, weights 1: any order gives C = (1, 2),
  // Σ C = 3 exactly.
  const mc::Instance inst(1.0, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  const auto exact = mc::solve_order_lp_exact(inst, mc::identity_order(2));
  ASSERT_EQ(exact.status, malsched::lp::SolveStatus::Optimal);
  EXPECT_EQ(exact.objective, Rational(3));
}

TEST(OrderLp, BadOrderStillSolvable) {
  // Forcing a "wrong" completion order (big task first) must still be
  // feasible — just more expensive.
  const mc::Instance inst(1.0, {{10.0, 1.0, 1.0}, {0.1, 1.0, 1.0}});
  const std::vector<std::size_t> big_first{0, 1};
  const std::vector<std::size_t> small_first{1, 0};
  const double big = mc::order_lp_objective(inst, big_first);
  const double small = mc::order_lp_objective(inst, small_first);
  EXPECT_LT(small, big);
  EXPECT_TRUE(std::isfinite(big));
}

// The simplex kernel's exact output bits, as hexfloat literals.  The pivot
// updates only the pivot row's nonzero columns, which is exact (see
// simplex_impl.hpp) — so a kernel change that moves any of these bits
// changes results, and is not a pure speed-up.
TEST(OrderLp, KernelBitsArePinnedOnTheFixtures) {
  expect_pinned_bits(load("example_small.mls"),
                     {0x1.18p+4, 0x1.18p+4, 0x1.eaaaaaaaaaaa9p+3,
                      0x1.eaaaaaaaaaaabp+3},
                     "example_small");
  expect_pinned_bits(load("bandwidth_fig1.mls"),
                     {0x1.47fffffffffffp+6, 0x1.47fffffffffffp+6, 0x1.bp+5,
                      0x1.bp+5},
                     "bandwidth_fig1");
  expect_pinned_bits(load("theorem9_counterexample.mls"),
                     {0x1p+3, 0x1p+3, 0x1.fp+2, 0x1.fp+2},
                     "theorem9_counterexample");
  expect_pinned_bits(load("wide_tasks.mls"),
                     {0x1.589c09c09c09cp+3, 0x1.589c09c09c09cp+3,
                      0x1.1cd34d34d34d3p+3, 0x1.1cd34d34d34d3p+3},
                     "wide_tasks");
}

TEST(OrderLp, KernelBitsArePinnedAtN24) {
  ms::Rng rng(24);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 24;
  config.processors = 8.0;
  expect_pinned_bits(mc::generate(config, rng),
                     {0x1.4b3aff0049f6ep+3, 0x1.4b3aff0049f74p+3,
                      0x1.d3091811db061p+2, 0x1.d3091811db07p+2},
                     "uniform n=24 seed 24");
}
