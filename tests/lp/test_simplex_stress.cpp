// Robustness tests for the simplex: degenerate/cycling-prone inputs,
// iteration-limit behaviour, and larger random LPs cross-checked against
// the exact rational solver.

#include <gtest/gtest.h>

#include "malsched/lp/model.hpp"
#include "malsched/lp/solver.hpp"
#include "malsched/support/rng.hpp"

namespace lp = malsched::lp;
namespace ms = malsched::support;

TEST(SimplexStress, BealeCyclingExample) {
  // Beale's classic cycling LP (degenerate under naive Dantzig pivoting):
  //   min -0.75 x4 + 150 x5 - 0.02 x6 + 6 x7
  //   s.t. 0.25 x4 - 60 x5 - 0.04 x6 + 9 x7 <= 0
  //        0.5  x4 - 90 x5 - 0.02 x6 + 3 x7 <= 0
  //        x6 <= 1
  // Optimum: -0.05 at x6 = 1 (x4 = 0.04? several optimal bases).
  lp::Model m;
  const auto x4 = m.add_variable();
  const auto x5 = m.add_variable();
  const auto x6 = m.add_variable();
  const auto x7 = m.add_variable();
  m.set_objective(x4, -0.75);
  m.set_objective(x5, 150.0);
  m.set_objective(x6, -0.02);
  m.set_objective(x7, 6.0);
  m.add_constraint({{x4, 0.25}, {x5, -60.0}, {x6, -0.04}, {x7, 9.0}},
                   lp::Sense::LessEqual, 0.0);
  m.add_constraint({{x4, 0.5}, {x5, -90.0}, {x6, -0.02}, {x7, 3.0}},
                   lp::Sense::LessEqual, 0.0);
  m.add_constraint({{x6, 1.0}}, lp::Sense::LessEqual, 1.0);
  const auto sol = lp::solve(m);
  ASSERT_TRUE(sol.optimal()) << lp::to_string(sol.status);
  EXPECT_NEAR(sol.objective, -0.05, 1e-9);
  // The exact solver must agree.
  const auto exact = lp::solve_exact(m);
  ASSERT_TRUE(exact.optimal());
  EXPECT_NEAR(exact.objective.to_double(), -0.05, 1e-15);
}

TEST(SimplexStress, IterationLimitIsReported) {
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, -1.0);
  m.set_objective(y, -1.0);
  for (int k = 1; k <= 6; ++k) {
    m.add_constraint({{x, 1.0 * k}, {y, 1.0}}, lp::Sense::LessEqual,
                     10.0 * k);
  }
  lp::SimplexOptions opts;
  opts.max_iterations = 1;  // absurdly small: must hit the limit
  const auto sol = lp::solve(m, opts);
  EXPECT_EQ(sol.status, lp::SolveStatus::IterationLimit);
}

TEST(SimplexStress, LargerRandomLpsAgreeWithExact) {
  ms::Rng rng(881);
  for (int trial = 0; trial < 8; ++trial) {
    lp::Model m;
    const int nvars = 6;
    std::vector<std::size_t> vars;
    for (int v = 0; v < nvars; ++v) {
      vars.push_back(m.add_variable());
      m.set_objective(vars.back(),
                      static_cast<double>(rng.uniform_int(-4, 4)) / 4.0);
    }
    for (auto v : vars) {
      m.add_constraint({{v, 1.0}}, lp::Sense::LessEqual,
                       static_cast<double>(rng.uniform_int(1, 8)) / 2.0);
    }
    for (int k = 0; k < 4; ++k) {
      std::vector<lp::Term> terms;
      for (auto v : vars) {
        terms.push_back({v, static_cast<double>(rng.uniform_int(0, 4)) / 4.0});
      }
      m.add_constraint(std::move(terms),
                       k % 2 == 0 ? lp::Sense::LessEqual
                                  : lp::Sense::GreaterEqual,
                       k % 2 == 0 ? 6.0 : 0.5);
    }
    const auto approx = lp::solve(m);
    const auto exact = lp::solve_exact(m);
    ASSERT_EQ(approx.status, exact.status) << "trial " << trial;
    if (approx.optimal()) {
      EXPECT_NEAR(approx.objective, exact.objective.to_double(), 1e-7)
          << "trial " << trial;
    }
  }
}

TEST(SimplexStress, RedundantEqualitiesAreHandled) {
  // Duplicate equality rows create degenerate artificial bases; the
  // post-phase-1 cleanup must cope.
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, 1.0);
  m.set_objective(y, 2.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::Equal, 4.0);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, lp::Sense::Equal, 8.0);  // redundant
  m.add_constraint({{x, 1.0}}, lp::Sense::LessEqual, 3.0);
  const auto sol = lp::solve(m);
  ASSERT_TRUE(sol.optimal());
  // Cheapest way to reach x + y = 4 with x <= 3: x = 3, y = 1 -> 5.
  EXPECT_NEAR(sol.objective, 5.0, 1e-9);
}

TEST(SimplexStress, ContradictoryEqualitiesInfeasible) {
  lp::Model m;
  const auto x = m.add_variable();
  m.add_constraint({{x, 1.0}}, lp::Sense::Equal, 1.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::Equal, 2.0);
  EXPECT_EQ(lp::solve(m).status, lp::SolveStatus::Infeasible);
  EXPECT_EQ(lp::solve_exact(m).status, lp::SolveStatus::Infeasible);
}
