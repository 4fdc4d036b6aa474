#include <gtest/gtest.h>

#include "malsched/lp/model.hpp"
#include "malsched/lp/solver.hpp"
#include "malsched/numeric/rational.hpp"
#include "malsched/support/rng.hpp"

namespace lp = malsched::lp;
using malsched::numeric::Rational;

TEST(ExactSimplex, DantzigExampleExact) {
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, -3.0);
  m.set_objective(y, -5.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::LessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, lp::Sense::LessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, lp::Sense::LessEqual, 18.0);
  const auto sol = lp::solve_exact(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.objective, Rational(-36));
  EXPECT_EQ(sol.values[0], Rational(2));
  EXPECT_EQ(sol.values[1], Rational(6));
}

TEST(ExactSimplex, FractionalOptimumIsExact) {
  // min -(x + y) s.t. 2x + y <= 1, x + 2y <= 1  -> x = y = 1/3.
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, -1.0);
  m.set_objective(y, -1.0);
  m.add_constraint({{x, 2.0}, {y, 1.0}}, lp::Sense::LessEqual, 1.0);
  m.add_constraint({{x, 1.0}, {y, 2.0}}, lp::Sense::LessEqual, 1.0);
  const auto sol = lp::solve_exact(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.values[0], Rational(1, 3));
  EXPECT_EQ(sol.values[1], Rational(1, 3));
  EXPECT_EQ(sol.objective, Rational(-2, 3));
}

TEST(ExactSimplex, InfeasibleDetectedExactly) {
  lp::Model m;
  const auto x = m.add_variable();
  m.add_constraint({{x, 1.0}}, lp::Sense::LessEqual, 1.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::GreaterEqual, 1.0 + 1e-7);
  // Gap far below double-simplex tolerance would be risky there; the exact
  // solver must flag it regardless.
  const auto sol = lp::solve_exact(m);
  EXPECT_EQ(sol.status, lp::SolveStatus::Infeasible);
}

TEST(ExactSimplex, AgreesWithDoubleSolverOnRandomLps) {
  malsched::support::Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    lp::Model m;
    const int nvars = 2 + static_cast<int>(rng.uniform_int(0, 2));
    std::vector<std::size_t> vars;
    for (int v = 0; v < nvars; ++v) {
      vars.push_back(m.add_variable());
      // Small integer-ish data keeps the exact arithmetic readable.
      m.set_objective(vars.back(), rng.uniform_int(-5, 5) / 2.0);
    }
    for (auto v : vars) {
      m.add_constraint({{v, 1.0}}, lp::Sense::LessEqual,
                       static_cast<double>(rng.uniform_int(1, 6)));
    }
    std::vector<lp::Term> terms;
    for (auto v : vars) {
      terms.push_back({v, static_cast<double>(rng.uniform_int(0, 3))});
    }
    m.add_constraint(std::move(terms), lp::Sense::GreaterEqual, 1.0);

    const auto exact = lp::solve_exact(m);
    const auto approx = lp::solve(m);
    ASSERT_EQ(exact.status, approx.status) << "trial " << trial;
    if (exact.optimal()) {
      EXPECT_NEAR(exact.objective.to_double(), approx.objective, 1e-6)
          << "trial " << trial;
    }
  }
}

TEST(ExactSimplex, EqualityWithThirds) {
  // min z s.t. 3z = 1: solution is exactly 1/3 (not 0.3333...).
  lp::Model m;
  const auto z = m.add_variable();
  m.set_objective(z, 1.0);
  m.add_constraint({{z, 3.0}}, lp::Sense::Equal, 1.0);
  const auto sol = lp::solve_exact(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_EQ(sol.values[0], Rational(1, 3));
}
