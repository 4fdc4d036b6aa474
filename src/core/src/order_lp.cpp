#include "malsched/core/order_lp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "malsched/support/contracts.hpp"

namespace malsched::core {

namespace {

/// Variable indexing for the order LP: first the n boundary variables C_j,
/// then the lower-triangular x_{a,j} (j <= a) packed row by row.
struct VarMap {
  std::size_t n;

  [[nodiscard]] std::size_t c(std::size_t j) const { return j; }
  [[nodiscard]] std::size_t x(std::size_t a, std::size_t j) const {
    MALSCHED_ASSERT(j <= a && a < n);
    // Row a starts after rows 0..a-1, which hold 1 + 2 + ... + a entries.
    return n + a * (a + 1) / 2 + j;
  }
};

}  // namespace

lp::Model build_order_lp(const Instance& instance,
                         std::span<const std::size_t> order) {
  // `order` may be a duplicate-free prefix: the LP then covers only the
  // induced subinstance (n = prefix length), columns and boundaries
  // renumbered by prefix position.
  MALSCHED_EXPECTS(order.size() <= instance.size());
  const std::size_t n = order.size();
  const double P = instance.processors();
  const VarMap vars{n};

  // Variables are addressed by dense index throughout (VarMap).
  lp::Model model;
  for (std::size_t j = 0; j < n; ++j) {
    model.add_variable();
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t j = 0; j <= a; ++j) {
      model.add_variable();
    }
  }

  // Objective: Σ w_{σ(a)} C_a.
  for (std::size_t a = 0; a < n; ++a) {
    model.set_objective(vars.c(a), instance.task(order[a]).weight);
  }

  // Boundary ordering C_j >= C_{j-1}.
  for (std::size_t j = 1; j < n; ++j) {
    model.add_constraint(
        {{vars.c(j), 1.0}, {vars.c(j - 1), -1.0}},
        lp::Sense::GreaterEqual, 0.0);
  }

  // Column capacity: Σ_a x_{a,j} − P(C_j − C_{j-1}) <= 0.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<lp::Term> terms;
    for (std::size_t a = j; a < n; ++a) {
      terms.push_back({vars.x(a, j), 1.0});
    }
    terms.push_back({vars.c(j), -P});
    if (j > 0) {
      terms.push_back({vars.c(j - 1), P});
    }
    model.add_constraint(std::move(terms), lp::Sense::LessEqual, 0.0);
  }

  // Width caps: x_{a,j} − δ(C_j − C_{j-1}) <= 0.
  for (std::size_t a = 0; a < n; ++a) {
    const double width = instance.effective_width(order[a]);
    for (std::size_t j = 0; j <= a; ++j) {
      std::vector<lp::Term> terms{{vars.x(a, j), 1.0}, {vars.c(j), -width}};
      if (j > 0) {
        terms.push_back({vars.c(j - 1), width});
      }
      model.add_constraint(std::move(terms), lp::Sense::LessEqual, 0.0);
    }
  }

  // Volume conservation: Σ_{j<=a} x_{a,j} = V.
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<lp::Term> terms;
    for (std::size_t j = 0; j <= a; ++j) {
      terms.push_back({vars.x(a, j), 1.0});
    }
    model.add_constraint(std::move(terms), lp::Sense::Equal,
                         instance.task(order[a]).volume);
  }
  return model;
}

OrderLpResult solve_order_lp(const Instance& instance,
                             std::span<const std::size_t> order) {
  MALSCHED_EXPECTS(order.size() == instance.size());
  const std::size_t n = instance.size();
  const VarMap vars{n};
  const auto model = build_order_lp(instance, order);
  const auto solution = lp::solve(model);

  OrderLpResult result;
  result.status = solution.status;
  if (!solution.optimal()) {
    return result;
  }
  result.objective = solution.objective;

  // Reconstruct the column schedule: rates = volume / column length.
  std::vector<double> boundaries(n);
  for (std::size_t j = 0; j < n; ++j) {
    boundaries[j] = solution.values[vars.c(j)];
  }
  support::Matrix alloc(n, n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t task = order[a];
    for (std::size_t j = 0; j <= a; ++j) {
      const double length =
          boundaries[j] - (j == 0 ? 0.0 : boundaries[j - 1]);
      const double volume = solution.values[vars.x(a, j)];
      if (length > 0.0 && volume > 0.0) {
        alloc(task, j) = volume / length;
      }
    }
  }
  result.schedule = ColumnSchedule(
      std::vector<std::size_t>(order.begin(), order.end()),
      std::move(boundaries), std::move(alloc));
  return result;
}

namespace {

/// Compact objective-only formulation: substituting column lengths
/// L_j = C_j − C_{j-1} ≥ 0 eliminates the n−1 boundary-ordering rows (and
/// their phase-1 artificials), and width caps with δ_eff = P are implied by
/// the column capacity row and dropped.  Same optimum as build_order_lp —
/// the objective Σ_a w_a C_a becomes Σ_j (Σ_{a≥j} w_a) L_j — but the
/// simplex tableau is ~25% smaller with half the artificials, which is
/// where the branch-and-bound hot path spends its time.
lp::Model build_order_lp_compact(const Instance& instance,
                                 std::span<const std::size_t> order) {
  MALSCHED_EXPECTS(order.size() <= instance.size());
  const std::size_t n = order.size();
  const double P = instance.processors();
  const VarMap vars{n};  // L_j takes the C_j slot; x packing unchanged

  lp::Model model;
  for (std::size_t v = 0; v < n + n * (n + 1) / 2; ++v) {
    model.add_variable();
  }

  // Objective: Σ_a w_a C_a = Σ_j (suffix weight from position j) L_j.
  double suffix_weight = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    suffix_weight += instance.task(order[a]).weight;
  }
  for (std::size_t j = 0; j < n; ++j) {
    model.set_objective(vars.c(j), suffix_weight);
    suffix_weight -= instance.task(order[j]).weight;
  }

  // Column capacity: Σ_a x_{a,j} − P·L_j <= 0.
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<lp::Term> terms;
    terms.reserve(n - j + 1);
    for (std::size_t a = j; a < n; ++a) {
      terms.push_back({vars.x(a, j), 1.0});
    }
    terms.push_back({vars.c(j), -P});
    model.add_constraint(std::move(terms), lp::Sense::LessEqual, 0.0);
  }

  // Width caps: x_{a,j} − δ·L_j <= 0, only where δ_eff < P binds beyond
  // the column capacity.
  for (std::size_t a = 0; a < n; ++a) {
    const double width = instance.effective_width(order[a]);
    if (width >= P) {
      continue;
    }
    for (std::size_t j = 0; j <= a; ++j) {
      model.add_constraint({{vars.x(a, j), 1.0}, {vars.c(j), -width}},
                           lp::Sense::LessEqual, 0.0);
    }
  }

  // Volume conservation: Σ_{j<=a} x_{a,j} = V.
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<lp::Term> terms;
    terms.reserve(a + 1);
    for (std::size_t j = 0; j <= a; ++j) {
      terms.push_back({vars.x(a, j), 1.0});
    }
    model.add_constraint(std::move(terms), lp::Sense::Equal,
                         instance.task(order[a]).volume);
  }
  return model;
}

}  // namespace

double order_lp_objective(const Instance& instance,
                          std::span<const std::size_t> order) {
  const auto model = build_order_lp_compact(instance, order);
  const auto solution = lp::solve(model);
  if (!solution.optimal()) {
    return std::numeric_limits<double>::infinity();
  }
  return solution.objective;
}

namespace detail {

/// Warm-started simplex over the compact order LP, specialized for the
/// push/pop access pattern of branch-and-bound.
///
/// The tableau for a prefix of length k holds, per position a: the column
/// length L_a, the volume splits x_{a,j} (j <= a), one capacity row
/// (Σ x_{·,a} <= P·L_a), width rows x_{a,j} <= δ_a·L_j where δ_eff < P,
/// and one volume row (Σ_j x_{a,j} = V_a).  Pushing position k:
///
/// * new columns x_{k,j} (j < k) touch exactly one *old* row — capacity
///   row j with coefficient +1 — so their reduced form B⁻¹·e_row is the
///   current tableau column of that row's slack variable, a plain copy;
///   L_k and x_{k,k} touch no old rows at all;
/// * new rows are reduced against the basis in one pass (only the width
///   rows reference an old variable, L_j);
/// * a crash basis makes the extended tableau primal feasible at once:
///   x_{k,k} becomes basic in the volume row and L_k in width row (k, k)
///   (capacity row k when δ_eff = P leaves no width rows).  That basis is
///   the schedule "task k runs alone in a new last column" — x_{k,k} = V_k,
///   L_k = V_k/δ_eff, capacity slack V_k·(P/δ_eff − 1) — and its two pivots
///   touch new rows only, because only they hold x_{k,k} and L_k;
/// * phase 2 alone, re-priced with the suffix weights (the new position
///   adds its weight to the cost of every earlier L_j), re-optimizes from
///   there in a few pivots.
///
/// pop() restores the parent's full state from a per-depth snapshot.
class IncrementalOrderLp {
 public:
  explicit IncrementalOrderLp(const Instance& instance)
      : instance_(&instance), processors_(instance.processors()) {}

  double push(std::size_t task, bool solve = true) {
    snapshots_.push_back(state_);
    State& s = state_;
    const std::size_t position = s.position_weights.size();
    const Task& t = instance_->task(task);
    const double width = instance_->effective_width(task);

    // --- new columns -----------------------------------------------------
    // x_{k,j} for j < position: reduced column = capacity row j's slack
    // column (its only old-row coefficient is +1 in that row).
    std::vector<std::size_t> x_cols(position + 1);
    for (std::size_t j = 0; j < position; ++j) {
      x_cols[j] = append_column_copy(s.cap_slack_col[j]);
    }
    // L_k and x_{k,k} appear in new rows only.
    const std::size_t l_col = append_zero_column();
    x_cols[position] = append_zero_column();
    s.l_col.push_back(l_col);

    // --- new rows (reduced against the current basis) --------------------
    // Capacity row k: x_{k,k} − P·L_k <= 0 — all-new variables, no
    // reduction needed.  Future pushes add their x_{·,k} into this row via
    // the slack-column copy above, which is why the slack column index is
    // recorded.
    const std::size_t cap_row = append_row();
    s.tab[cap_row][x_cols[position]] = 1.0;
    s.tab[cap_row][l_col] = -processors_;
    s.cap_slack_col.push_back(append_zero_column());
    s.tab[cap_row][s.cap_slack_col.back()] = 1.0;
    s.basis.push_back(s.cap_slack_col.back());
    s.rhs.push_back(0.0);
    // Width rows x_{k,j} − δ·L_j <= 0 (skipped when the capacity row
    // already implies them).  For j < position they reference the old
    // variable L_j and must be reduced if it is basic.
    std::size_t l_row = cap_row;  // L_k's crash row: width row (k, k) if any
    if (width < processors_) {
      for (std::size_t j = 0; j <= position; ++j) {
        const std::size_t row = append_row();
        s.rhs.push_back(0.0);
        s.tab[row][x_cols[j]] = 1.0;
        const std::size_t lj = j == position ? l_col : s.l_col[j];
        s.tab[row][lj] += -width;
        reduce_row_against_basis(row);
        const std::size_t slack = append_zero_column();
        s.tab[row][slack] = 1.0;
        s.basis.push_back(slack);
        l_row = row;
      }
    }
    // Volume row: Σ_j x_{k,j} = V_k — all-new nonbasic variables, so it is
    // already in reduced form.  x_{k,k} is entered as its basic variable
    // by the crash pivot below.
    const std::size_t volume_row = append_row();
    for (std::size_t j = 0; j <= position; ++j) {
      s.tab[volume_row][x_cols[j]] = 1.0;
    }
    s.basis.push_back(x_cols[position]);
    s.rhs.push_back(t.volume);

    // --- crash basis: task k alone in a new last column ------------------
    pivot(volume_row, x_cols[position]);
    pivot(l_row, l_col);
    s.position_weights.push_back(t.weight);
    s.tasks.push_back(task);
    if (!solve) {
      // Structure-only push (the caller wants a from-scratch value, e.g. a
      // bit-reproducible leaf): the crash basis is already feasible, so the
      // next solving push re-optimizes from it.
      return 0.0;
    }

    // --- re-priced phase 2 -----------------------------------------------
    costs_.assign(s.cols, 0.0);
    double suffix_weight = 0.0;
    for (std::size_t j = s.position_weights.size(); j-- > 0;) {
      suffix_weight += s.position_weights[j];
      costs_[s.l_col[j]] = suffix_weight;
    }
    if (!optimize()) {
      return resolve_from_scratch();
    }
    double objective = 0.0;
    for (std::size_t i = 0; i < s.rows(); ++i) {
      objective += costs_[s.basis[i]] * s.rhs[i];
    }
    return objective;
  }

  void pop() {
    MALSCHED_ASSERT(!snapshots_.empty());
    state_ = std::move(snapshots_.back());
    snapshots_.pop_back();
  }

  /// Ratio-test pivots made by phase 2 so far (crash pivots excluded).
  [[nodiscard]] std::size_t pivots() const noexcept { return pivots_; }

 private:
  struct State {
    std::vector<std::vector<double>> tab;  ///< rows over columns
    std::vector<double> rhs;
    std::vector<std::size_t> basis;        ///< per row: basic column
    std::vector<std::size_t> cap_slack_col;  ///< per position
    std::vector<std::size_t> l_col;          ///< per position
    std::vector<double> position_weights;
    std::vector<std::size_t> tasks;          ///< pushed prefix, for fallback
    std::size_t cols = 0;

    [[nodiscard]] std::size_t rows() const noexcept { return tab.size(); }
  };

  static constexpr double kEps = 1e-9;
  static constexpr double kSnap = 1e-12;

  [[nodiscard]] static double snap(double v) noexcept {
    return (v <= kSnap && v >= -kSnap) ? 0.0 : v;
  }

  std::size_t append_zero_column() {
    for (auto& row : state_.tab) {
      row.push_back(0.0);
    }
    return state_.cols++;
  }

  std::size_t append_column_copy(std::size_t source) {
    for (auto& row : state_.tab) {
      row.push_back(row[source]);
    }
    return state_.cols++;
  }

  std::size_t append_row() {
    state_.tab.emplace_back(state_.cols, 0.0);
    return state_.rows() - 1;
  }

  /// Expresses a freshly appended row (coefficients *and* right-hand side)
  /// in the current basis: one pass over the old rows suffices because
  /// every reduced tableau row carries an identity on the basis columns.
  void reduce_row_against_basis(std::size_t row) {
    State& s = state_;
    auto& target = s.tab[row];
    for (std::size_t i = 0; i + 1 < s.rows(); ++i) {
      const double factor = target[s.basis[i]];
      if (factor == 0.0) {
        continue;
      }
      const auto& source = s.tab[i];
      for (std::size_t c = 0; c < s.cols; ++c) {
        target[c] = snap(target[c] - factor * source[c]);
      }
      target[s.basis[i]] = 0.0;
      s.rhs[row] = snap(s.rhs[row] - factor * s.rhs[i]);
    }
  }

  /// Primal simplex on `costs_` from the current (feasible) basis.
  /// Returns false when the iteration budget is exhausted.
  bool optimize() {
    State& s = state_;
    reduced_ = costs_;
    for (std::size_t i = 0; i < s.rows(); ++i) {
      const double cb = costs_[s.basis[i]];
      if (cb == 0.0) {
        continue;
      }
      const auto& row = s.tab[i];
      for (std::size_t c = 0; c < s.cols; ++c) {
        if (row[c] != 0.0) {
          reduced_[c] = snap(reduced_[c] - cb * row[c]);
        }
      }
    }

    const std::size_t cap = 50 * (s.rows() + s.cols) + 200;
    const std::size_t bland_after = cap / 2;
    for (std::size_t iteration = 0;; ++iteration) {
      if (iteration >= cap) {
        return false;
      }
      const bool use_bland = iteration >= bland_after;
      std::size_t entering = s.cols;
      for (std::size_t c = 0; c < s.cols; ++c) {
        if (reduced_[c] >= -kEps) {
          continue;
        }
        if (use_bland) {
          entering = c;
          break;
        }
        if (entering == s.cols || reduced_[c] < reduced_[entering]) {
          entering = c;
        }
      }
      if (entering == s.cols) {
        return true;
      }

      std::size_t leaving = s.rows();
      for (std::size_t i = 0; i < s.rows(); ++i) {
        const double coeff = s.tab[i][entering];
        if (coeff <= kEps) {
          continue;
        }
        if (leaving == s.rows()) {
          leaving = i;
          continue;
        }
        const double lhs = s.rhs[i] * s.tab[leaving][entering];
        const double rhs_cmp = s.rhs[leaving] * coeff;
        if (lhs < rhs_cmp ||
            (!(rhs_cmp < lhs) && s.basis[i] < s.basis[leaving])) {
          leaving = i;
        }
      }
      // Costs are suffix weights (non-negative), so the LP is bounded
      // below; a missing leaving row would mean the basis drifted — treat
      // as a failed warm start.
      if (leaving == s.rows()) {
        return false;
      }
      pivot(leaving, entering);
      ++pivots_;
      const auto& pivot_row = s.tab[leaving];
      const double cost_factor = reduced_[entering];
      if (cost_factor != 0.0) {
        for (std::size_t c = 0; c < s.cols; ++c) {
          reduced_[c] = snap(reduced_[c] - cost_factor * pivot_row[c]);
        }
        reduced_[entering] = 0.0;
      }
    }
  }

  /// Makes `col` basic in `row`: the tableau and right-hand side only.
  /// Reduced costs are phase 2's business (optimize updates them), so the
  /// crash pivots of push() run before any pricing exists.
  void pivot(std::size_t row, std::size_t col) {
    State& s = state_;
    auto& pivot_row = s.tab[row];
    const double pivot_value = pivot_row[col];
    for (double& v : pivot_row) {
      v = snap(v / pivot_value);
    }
    s.rhs[row] = snap(s.rhs[row] / pivot_value);
    pivot_row[col] = 1.0;
    for (std::size_t i = 0; i < s.rows(); ++i) {
      if (i == row) {
        continue;
      }
      const double factor = s.tab[i][col];
      if (factor == 0.0) {
        continue;
      }
      auto& target = s.tab[i];
      for (std::size_t c = 0; c < s.cols; ++c) {
        target[c] = snap(target[c] - factor * pivot_row[c]);
      }
      target[col] = 0.0;
      s.rhs[i] = snap(s.rhs[i] - factor * s.rhs[row]);
    }
    s.basis[row] = col;
  }

  /// Warm-start failure fallback: the tableau stays primal feasible (every
  /// ratio-test pivot preserves feasibility), so future pushes remain
  /// valid; only this node's value is recomputed exactly.
  double resolve_from_scratch() {
    return order_lp_objective(*instance_, state_.tasks);
  }

  const Instance* instance_;
  double processors_;
  State state_;
  std::vector<State> snapshots_;
  std::vector<double> costs_;
  std::vector<double> reduced_;
  std::size_t pivots_ = 0;
};

}  // namespace detail

OrderLpEvaluator::OrderLpEvaluator(const Instance& instance)
    : instance_(&instance),
      lp_(std::make_unique<detail::IncrementalOrderLp>(instance)) {
  const std::size_t n = instance.size();
  prefix_.reserve(n);
  objectives_.reserve(n);
  volumes_.reserve(n);
  profiles_.reserve(n + 1);
  profiles_.emplace_back(instance.processors());
}

OrderLpEvaluator::~OrderLpEvaluator() = default;
OrderLpEvaluator::OrderLpEvaluator(OrderLpEvaluator&&) noexcept = default;
OrderLpEvaluator& OrderLpEvaluator::operator=(OrderLpEvaluator&&) noexcept =
    default;

double OrderLpEvaluator::push(std::size_t task, bool exact) {
  MALSCHED_EXPECTS(task < instance_->size());
  MALSCHED_EXPECTS(prefix_.size() < instance_->size());
  MALSCHED_EXPECTS_MSG(
      std::find(prefix_.begin(), prefix_.end(), task) == prefix_.end(),
      "task already in the prefix");
  prefix_.push_back(task);
  ++lp_evaluations_;
  double objective;
  if (exact) {
    // An exact push re-solves from scratch so the reported objective is
    // bit-identical with order_lp_objective for the same prefix.  The
    // incremental state is still extended (snapshot, appended rows and
    // columns, crash basis, no re-optimization), so pop() and deeper
    // pushes stay consistent: the crash basis is feasible by itself.
    lp_->push(task, /*solve=*/false);
    objective = order_lp_objective(*instance_, prefix_);
  } else {
    objective = lp_->push(task);
  }
  if (!std::isfinite(objective)) {
    // Only a from-scratch solve that missed optimality (the exact path or
    // the warm path's fallback) yields a non-finite value.
    ++lp_failures_;
  }
  objectives_.push_back(objective);
  volumes_.push_back(prefix_volume() + instance_->task(task).volume);
  profiles_.push_back(profiles_.back());
  profiles_.back().place(instance_->effective_width(task),
                         instance_->task(task).volume);
  return objective;
}

void OrderLpEvaluator::pop() {
  MALSCHED_EXPECTS(!prefix_.empty());
  prefix_.pop_back();
  objectives_.pop_back();
  volumes_.pop_back();
  profiles_.pop_back();
  lp_->pop();
}

std::size_t OrderLpEvaluator::pivots() const noexcept {
  return lp_->pivots();
}

double OrderLpEvaluator::objective() const noexcept {
  return objectives_.empty() ? 0.0 : objectives_.back();
}

double OrderLpEvaluator::prefix_volume() const noexcept {
  return volumes_.empty() ? 0.0 : volumes_.back();
}

double OrderLpEvaluator::greedy_completion(std::size_t task) const {
  return profiles_.back().peek(instance_->effective_width(task),
                               instance_->task(task).volume);
}

ExactOrderLpResult solve_order_lp_exact(const Instance& instance,
                                        std::span<const std::size_t> order) {
  // Certification is only meaningful for a complete order; prefixes would
  // silently certify a subinstance.
  MALSCHED_EXPECTS(order.size() == instance.size());
  const auto model = build_order_lp(instance, order);
  const auto solution = lp::solve_exact(model);
  ExactOrderLpResult result;
  result.status = solution.status;
  if (solution.optimal()) {
    result.objective = solution.objective;
  }
  return result;
}

}  // namespace malsched::core
