#include <gtest/gtest.h>

#include <cmath>

#include "malsched/lp/model.hpp"
#include "malsched/lp/solver.hpp"
#include "malsched/support/rng.hpp"

namespace lp = malsched::lp;

namespace {

// max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18   (classic Dantzig
// example; optimum x=2, y=6, objective 36).  We minimize the negation.
lp::Model dantzig_example() {
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, -3.0);
  m.set_objective(y, -5.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::LessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, lp::Sense::LessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, lp::Sense::LessEqual, 18.0);
  return m;
}

}  // namespace

TEST(Simplex, DantzigExample) {
  const auto sol = lp::solve(dantzig_example());
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -36.0, 1e-9);
  EXPECT_NEAR(sol.values[0], 2.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 6.0, 1e-9);
}

TEST(Simplex, EqualityConstraintsNeedPhase1) {
  // min x + y  s.t. x + y = 2, x - y = 0  ->  x = y = 1.
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, 1.0);
  m.set_objective(y, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::Equal, 2.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, lp::Sense::Equal, 0.0);
  const auto sol = lp::solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(sol.values[0], 1.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 1.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraints) {
  // min 2x + 3y  s.t. x + y >= 10, x >= 3  ->  x = 10, y = 0? No:
  // cost favors x (2 < 3), so x = 10, y = 0, objective 20.
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, 2.0);
  m.set_objective(y, 3.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::GreaterEqual, 10.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::GreaterEqual, 3.0);
  const auto sol = lp::solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 20.0, 1e-9);
  EXPECT_NEAR(sol.values[0], 10.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 0.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 2 cannot hold together.
  lp::Model m;
  const auto x = m.add_variable();
  m.set_objective(x, 1.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::LessEqual, 1.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::GreaterEqual, 2.0);
  const auto sol = lp::solve(m);
  EXPECT_EQ(sol.status, lp::SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x with only x >= 0: objective goes to -inf.
  lp::Model m;
  const auto x = m.add_variable();
  m.set_objective(x, -1.0);
  m.add_constraint({{x, 1.0}}, lp::Sense::GreaterEqual, 0.0);
  const auto sol = lp::solve(m);
  EXPECT_EQ(sol.status, lp::SolveStatus::Unbounded);
}

TEST(Simplex, NegativeRhsIsNormalized) {
  // x - y <= -2 with min x + y  ->  y >= x + 2, best x=0, y=2.
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, 1.0);
  m.set_objective(y, 1.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, lp::Sense::LessEqual, -2.0);
  const auto sol = lp::solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
  EXPECT_NEAR(sol.values[1], 2.0, 1e-9);
}

TEST(Simplex, DegenerateLpTerminates) {
  // Highly degenerate: many redundant constraints through the optimum.
  lp::Model m;
  const auto x = m.add_variable();
  const auto y = m.add_variable();
  m.set_objective(x, -1.0);
  m.set_objective(y, -1.0);
  for (int k = 1; k <= 8; ++k) {
    m.add_constraint({{x, static_cast<double>(k)}, {y, static_cast<double>(k)}},
                     lp::Sense::LessEqual, 2.0 * k);
  }
  const auto sol = lp::solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -2.0, 1e-9);
}

TEST(Simplex, DuplicateTermsAreMerged) {
  lp::Model m;
  const auto x = m.add_variable();
  m.set_objective(x, -1.0);
  // (0.5 + 0.5) x <= 3
  m.add_constraint({{x, 0.5}, {x, 0.5}}, lp::Sense::LessEqual, 3.0);
  const auto sol = lp::solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 3.0, 1e-9);
}

TEST(Simplex, BlandModeSolvesToo) {
  lp::SimplexOptions opts;
  opts.bland = true;
  const auto sol = lp::solve(dantzig_example(), opts);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -36.0, 1e-9);
}

TEST(Simplex, ZeroObjectiveIsFeasibilityCheck) {
  lp::Model m;
  const auto x = m.add_variable();
  m.add_constraint({{x, 1.0}}, lp::Sense::Equal, 5.0);
  const auto sol = lp::solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.values[0], 5.0, 1e-9);
  EXPECT_NEAR(sol.objective, 0.0, 1e-12);
}

TEST(Simplex, RandomFeasibleLpsStayConsistent) {
  // Property: for random bounded LPs, the reported solution satisfies all
  // constraints and bounds within tolerance.
  malsched::support::Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    lp::Model m;
    const int nvars = 2 + static_cast<int>(rng.uniform_int(0, 3));
    std::vector<std::size_t> vars;
    for (int v = 0; v < nvars; ++v) {
      vars.push_back(m.add_variable());
      m.set_objective(vars.back(), rng.uniform(-1.0, 1.0));
    }
    // Box constraints keep it bounded; random extra couplings.
    for (auto v : vars) {
      m.add_constraint({{v, 1.0}}, lp::Sense::LessEqual, rng.uniform(1.0, 5.0));
    }
    const int extra = static_cast<int>(rng.uniform_int(0, 3));
    for (int k = 0; k < extra; ++k) {
      std::vector<lp::Term> terms;
      for (auto v : vars) {
        terms.push_back({v, rng.uniform(0.0, 1.0)});
      }
      m.add_constraint(std::move(terms), lp::Sense::LessEqual,
                       rng.uniform(2.0, 10.0));
    }
    const auto sol = lp::solve(m);
    ASSERT_TRUE(sol.optimal()) << "trial " << trial;
    for (const auto& row : m.rows()) {
      double lhs = 0.0;
      for (const auto& t : row.terms) {
        lhs += t.coeff * sol.values[t.var];
      }
      EXPECT_LE(lhs, row.rhs + 1e-6) << "trial " << trial;
    }
    for (double v : sol.values) {
      EXPECT_GE(v, -1e-9);
    }
  }
}
