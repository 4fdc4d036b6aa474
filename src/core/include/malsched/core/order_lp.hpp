#pragma once

/// \file order_lp.hpp
/// Corollary 1: once the completion *order* of the tasks is fixed, the
/// optimal schedule is a linear program.  With tasks renumbered so that
/// position a completes at the end of column a (boundary C_a):
///
///   minimize   Σ_a w_{σ(a)} · C_a
///   subject to C_a ≥ C_{a-1}                       (C_{-1} = 0)
///              Σ_a x_{a,j}        ≤ P  (C_j − C_{j-1})   per column j
///              x_{a,j}            ≤ δ_{σ(a)} (C_j − C_{j-1})
///              Σ_{j≤a} x_{a,j}    = V_{σ(a)}
///              x_{a,j} = 0 for j > a, all variables ≥ 0
///
/// where x_{a,j} is the *volume* position-a's task receives in column j.

#include <memory>
#include <span>
#include <vector>

#include "malsched/core/greedy.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"
#include "malsched/lp/solver.hpp"
#include "malsched/numeric/rational.hpp"

namespace malsched::core {

/// Builds the Corollary-1 LP for the given completion order.  `order` may
/// also be a *prefix* — a duplicate-free subset of task ids — in which case
/// the LP is that of the induced subinstance with the completion order
/// fixed over just those tasks (the branch-and-bound node relaxation).
/// Exposed so callers can feed it to either solver.
[[nodiscard]] lp::Model build_order_lp(const Instance& instance,
                                       std::span<const std::size_t> order);

struct OrderLpResult {
  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  double objective = 0.0;
  ColumnSchedule schedule;  ///< populated when status == Optimal

  [[nodiscard]] bool optimal() const noexcept {
    return status == lp::SolveStatus::Optimal;
  }
};

/// Solves the order LP (double precision) and reconstructs the schedule.
[[nodiscard]] OrderLpResult solve_order_lp(const Instance& instance,
                                           std::span<const std::size_t> order);

/// Objective only (skips schedule reconstruction) — the enumeration hot
/// path.  Accepts prefixes like build_order_lp; a prefix objective is an
/// exact lower bound on the weighted completion those tasks contribute to
/// any full order extending the prefix (restriction argument: dropping the
/// suffix allocations from a full solution leaves a feasible prefix
/// schedule).  Returns +infinity when the simplex does not reach
/// optimality (the order LP is always feasible and bounded, so that is a
/// numerical failure; callers that rely on the value must treat it so).
[[nodiscard]] double order_lp_objective(const Instance& instance,
                                        std::span<const std::size_t> order);

namespace detail {
class CoveringOrderLp;
}  // namespace detail

/// Resumable prefix evaluation for branch-and-bound over completion orders.
///
/// A depth-first search over order prefixes re-visits each prefix's
/// ancestors once per subtree; this evaluator keeps one stack of per-depth
/// state so extending a prefix by one task reuses what the parent found:
///
/// * the prefix LP in its *covering form*.  For a fixed order the volume
///   splits are a flow (source → position a with capacity V_a → column
///   j <= a with δ_a·L_j → sink with P·L_j), so by max-flow/min-cut the LP
///   is, in the k column lengths L_j alone,
///
///     min Σ_j W_j·L_j  s.t.  Σ_j L_j · min(P, Σ_{a∈S, a≥j} δ_a) >= V(S)
///                            for every position set S,  L >= 0,
///
///   with W_j the suffix weight.  The row coefficients are submodular in S
///   (the polymatroid structure of malleable scheduling).  The evaluator
///   keeps a pool of such rows: a push adds the new position's singleton
///   row, solves the pool with a dual simplex from the all-surplus basis
///   (dual feasible because W >= 0; no phase 1), and separates with a
///   max-flow on the network above — when the flow misses ΣV, the
///   positions reachable from the source in the residual graph form a
///   violated set, whose row is appended in the current basis before the
///   dual simplex continues.  Rows found at a node stay valid in its whole
///   subtree (their coefficient on every later L_j is 0); pop() truncates
///   the pool to the parent's size, so no tableau is ever copied;
/// * the greedy capacity-profile state (Algorithm 3's water-level profile)
///   — `greedy_completion` probes where a candidate task would finish
///   against the current prefix without any LP work, which the search uses
///   to order sibling branches best-first.
///
/// Any subset of the rows is a relaxation, so the warm value is a *lower
/// bound* on the prefix order LP optimum even when separation stops early
/// (row budget, a set already pooled, or a tolerance tie between flow and
/// LP); in practice it matches the from-scratch value to simplex tolerance
/// (1e-9 relative in the tests).  Branch-and-bound needs only the lower
/// bound, and uses it at leaves too, as a filter: it re-solves a leaf with
/// `order_lp_objective` only when the warm value could still beat the
/// incumbent, so every objective it reports is a from-scratch value,
/// bit-identical with what the enumeration baseline computes for the same
/// order.  An *exact* push returns that from-scratch value directly.
class OrderLpEvaluator {
 public:
  explicit OrderLpEvaluator(const Instance& instance);
  ~OrderLpEvaluator();
  OrderLpEvaluator(OrderLpEvaluator&&) noexcept;
  OrderLpEvaluator& operator=(OrderLpEvaluator&&) noexcept;

  /// Appends `task` (not already in the prefix) and returns the order LP
  /// objective of the extended prefix.  exact = false (what branch-and-bound
  /// uses at every depth) returns the warm-started incremental value; exact
  /// additionally re-solves from scratch and returns that bit-reproducible
  /// value.
  double push(std::size_t task, bool exact = true);
  /// Removes the most recently pushed task.
  void pop();

  [[nodiscard]] std::size_t depth() const noexcept { return prefix_.size(); }
  /// Prefix order LP objective (0 at depth 0).
  [[nodiscard]] double objective() const noexcept;
  [[nodiscard]] std::span<const std::size_t> prefix() const noexcept {
    return prefix_;
  }
  /// Σ V_i over the prefix — the suffix-bound offset.
  [[nodiscard]] double prefix_volume() const noexcept;
  /// Completion `task` would get placed greedily after the prefix (no LP).
  [[nodiscard]] double greedy_completion(std::size_t task) const;
  /// Number of LP solves performed so far (incremental or from scratch).
  [[nodiscard]] std::size_t lp_evaluations() const noexcept {
    return lp_evaluations_;
  }
  /// Dual-simplex pivots that warm pushes have made so far, over the
  /// covering rows (the pool and the separated rows).  Deterministic for a
  /// given push/pop sequence.
  [[nodiscard]] std::size_t pivots() const noexcept;
  /// Max-flow separation rounds that warm pushes have run so far (each
  /// solve ends with one that saturates or stops).
  [[nodiscard]] std::size_t max_flows() const noexcept;
  /// Violated-set rows that separation has added to the pool so far.
  [[nodiscard]] std::size_t cut_rows() const noexcept;
  /// Pushes whose value is not finite: the from-scratch solve (an exact
  /// push, or the fallback of a failed warm start) missed optimality, so
  /// that prefix value is unusable.
  [[nodiscard]] std::size_t lp_failures() const noexcept {
    return lp_failures_;
  }

 private:
  const Instance* instance_;
  std::vector<std::size_t> prefix_;
  std::vector<double> objectives_;        ///< objectives_[d]: depth d+1 value
  std::vector<double> volumes_;           ///< cumulative volume per depth
  std::vector<CapacityProfile> profiles_; ///< profiles_[d]: after d tasks
  std::unique_ptr<detail::CoveringOrderLp> lp_;
  std::size_t lp_evaluations_ = 0;
  std::size_t lp_failures_ = 0;
};

/// Exact-rational solve; returns the certified optimal objective for the
/// order (or nullopt-like status in `status`).
struct ExactOrderLpResult {
  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  numeric::Rational objective;
};
[[nodiscard]] ExactOrderLpResult solve_order_lp_exact(
    const Instance& instance, std::span<const std::size_t> order);

}  // namespace malsched::core
