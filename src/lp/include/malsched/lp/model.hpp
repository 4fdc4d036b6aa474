#pragma once

/// \file model.hpp
/// Linear program container.
///
/// The library needs exactly one LP family — the Corollary-1 "optimal
/// schedule for a fixed completion order" program — but the model type is a
/// general minimization LP over non-negative variables so the solver can be
/// tested independently:
///
///     minimize    c^T x
///     subject to  a_k^T x  {<=, >=, ==}  b_k     for each constraint k
///                 x >= 0
///
/// Variables are identified by dense indices returned from add_variable.

#include <cstddef>
#include <vector>

namespace malsched::lp {

/// Constraint sense.
enum class Sense { LessEqual, GreaterEqual, Equal };

/// One coefficient of a constraint row: coeff * x[var].
struct Term {
  std::size_t var;
  double coeff;
};

/// A general LP: minimize c^T x subject to rows, x >= 0.
class Model {
 public:
  /// Adds a non-negative variable, returns its index.
  std::size_t add_variable();

  /// Sets the objective coefficient of `var` (default 0).
  void set_objective(std::size_t var, double coeff);

  /// Adds a constraint sum(terms) sense rhs; returns the row index.
  /// Duplicate variable entries in `terms` are summed.
  std::size_t add_constraint(std::vector<Term> terms, Sense sense, double rhs);

  [[nodiscard]] std::size_t num_variables() const noexcept {
    return objective_.size();
  }
  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return rows_.size();
  }

  struct Row {
    std::vector<Term> terms;
    Sense sense;
    double rhs;
  };

  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] const std::vector<double>& objective() const noexcept {
    return objective_;
  }

 private:
  std::vector<double> objective_;
  std::vector<Row> rows_;
};

}  // namespace malsched::lp
