#pragma once

/// \file solver.hpp
/// Public solver entry points: a double-precision dense two-phase simplex
/// (workhorse for the Monte-Carlo sweeps) and an exact rational simplex
/// (optimality certificates; stands in for the Sage verification the paper
/// mentions).  Both share one templated implementation.

#include <cstddef>
#include <vector>

#include "malsched/lp/model.hpp"
#include "malsched/numeric/rational.hpp"

namespace malsched::lp {

/// Unbounded means the ratio test found no leaving row.  In phase 1 of the
/// double solver, whose objective is bounded below by zero, that is
/// numerical breakdown on a near-degenerate model, not an unbounded LP.
enum class SolveStatus { Optimal, Infeasible, Unbounded, IterationLimit };

/// Returns a short human-readable status name.
[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

struct SimplexOptions {
  /// Pivot significance tolerance (ignored by the exact solver).
  double eps = 1e-9;
  /// Hard iteration cap; 0 = automatic (50 * (rows + cols)).
  std::size_t max_iterations = 0;
  /// Use Bland's rule from the start (guaranteed termination, slower).
  bool bland = false;
};

struct Solution {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> values;  ///< one per model variable
  std::size_t iterations = 0;

  [[nodiscard]] bool optimal() const noexcept {
    return status == SolveStatus::Optimal;
  }
};

struct ExactSolution {
  SolveStatus status = SolveStatus::IterationLimit;
  numeric::Rational objective;
  std::vector<numeric::Rational> values;
  std::size_t iterations = 0;

  [[nodiscard]] bool optimal() const noexcept {
    return status == SolveStatus::Optimal;
  }
};

/// Solves `model` in double precision.
[[nodiscard]] Solution solve(const Model& model, const SimplexOptions& options = {});

/// Solves `model` exactly over the rationals.  Model coefficients (doubles)
/// are converted exactly, so the answer is the exact optimum of the LP as
/// stated in binary floating point.
[[nodiscard]] ExactSolution solve_exact(const Model& model,
                                        const SimplexOptions& options = {});

}  // namespace malsched::lp
