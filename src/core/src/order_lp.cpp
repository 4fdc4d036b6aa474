#include "malsched/core/order_lp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

/// The covering form of the prefix order LP (formulation and lower-bound
/// argument: OrderLpEvaluator), specialized for the push/pop access
/// pattern of branch-and-bound.
///
/// * The pool stores each row's position set, V(S) and coefficients.  A
///   push adds the singleton row {k}; rows separated at a node stay for its
///   whole subtree, and pop() truncates the pool to the size recorded at
///   the push.
/// * solve() is cold on purpose: the suffix weights of every earlier L_j
///   change with each push, so the parent's basis need not stay dual
///   feasible, while the all-surplus basis always is.  It alternates the
///   dual simplex with max-flow separation until the flow saturates, the
///   violated set is already pooled, or the row budget runs out.
class CoveringOrderLp {
 public:
  explicit CoveringOrderLp(const Instance& instance)
      : instance_(&instance),
        processors_(instance.processors()),
        stride_(instance.size()) {}

  /// Appends position k (the structure a solve needs, but no solve).
  void append(std::size_t task) {
    MALSCHED_EXPECTS_MSG(tasks_.size() < kMaxDepth,
                         "covering order LP positions are bits of a 64-bit "
                         "set mask");
    pool_marks_.push_back(row_sets_.size());
    tasks_.push_back(task);
    widths_.push_back(instance_->effective_width(task));
    volumes_.push_back(instance_->task(task).volume);
    weights_.push_back(instance_->task(task).weight);
    (void)add_pool_row(Mask{1} << (tasks_.size() - 1));
  }

  void pop() {
    MALSCHED_ASSERT(!tasks_.empty());
    const std::size_t rows = pool_marks_.back();
    pool_marks_.pop_back();
    row_sets_.resize(rows);
    row_volumes_.resize(rows);
    row_coeffs_.resize(rows * stride_);
    tasks_.pop_back();
    widths_.pop_back();
    volumes_.pop_back();
    weights_.pop_back();
  }

  /// Prefix LP value over the pool plus the rows separation adds.
  double solve() {
    const std::size_t k = tasks_.size();
    costs_.assign(k, 0.0);
    double suffix_weight = 0.0;
    for (std::size_t j = k; j-- > 0;) {
      suffix_weight += weights_[j];
      costs_[j] = suffix_weight;
    }
    prefix_volume_ = 0.0;
    for (const double volume : volumes_) {
      prefix_volume_ += volume;
    }
    feasibility_tol_ = kFeasibilityTol * prefix_volume_;
    const double flow_tol = kFlowTol * std::max(1.0, prefix_volume_);

    // All-surplus basis: every L_j nonbasic at 0, every row's surplus
    // basic at −V(S).  Reduced costs are the W_j >= 0: dual feasible.
    nonbasic_.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      nonbasic_[j] = j;
    }
    reduced_ = costs_;
    rows_ = row_sets_.size();
    tab_.resize(rows_ * k);
    beta_.resize(rows_);
    basic_.resize(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      std::copy_n(&row_coeffs_[r * stride_], k, &tab_[r * k]);
      beta_[r] = -row_volumes_[r];
      basic_[r] = k + r;
    }
    basic_row_.assign(k, kNone);
    iterations_ = 0;
    iteration_cap_ = 50 * (row_sets_.size() + k) + 200;

    for (std::size_t added = 0;; ++added) {
      if (!dual_simplex()) {
        // Budget exhausted or no ratio-test candidate: the basis drifted.
        // The pool stays valid, so only this node's value is recomputed.
        return order_lp_objective(*instance_, tasks_);
      }
      read_lengths();
      if (added == kRowBudget) {
        break;
      }
      ++max_flows_;
      const Mask set = violated_set(flow_tol);
      if (set == 0 || pooled(set) || !add_pool_row(set)) {
        break;
      }
      ++cut_rows_;
      append_tableau_row(row_sets_.size() - 1);
      if (beta_.back() >= -feasibility_tol_) {
        // The flow and the LP disagree within tolerance: no progress.
        break;
      }
    }
    double objective = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      objective += costs_[j] * lengths_[j];
    }
    return objective;
  }

  [[nodiscard]] std::size_t pivots() const noexcept { return pivots_; }
  [[nodiscard]] std::size_t max_flows() const noexcept { return max_flows_; }
  [[nodiscard]] std::size_t cut_rows() const noexcept { return cut_rows_; }

 private:
  using Mask = std::uint64_t;
  static constexpr std::size_t kMaxDepth = 64;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  /// Rows one solve may separate; a stop here still leaves a lower bound.
  static constexpr std::size_t kRowBudget = 32;
  /// Primal feasibility of a row, relative to the prefix volume.
  static constexpr double kFeasibilityTol = 1e-13;
  /// Saturation slack of the separating flow, relative to max(1, ΣV);
  /// above the LP's tolerance, so a violated set is never one it accepts.
  static constexpr double kFlowTol = 1e-12;
  /// Smallest tableau entry the dual ratio test pivots on.
  static constexpr double kPivotTol = 1e-9;

  [[nodiscard]] bool pooled(Mask set) const {
    return std::find(row_sets_.begin(), row_sets_.end(), set) !=
           row_sets_.end();
  }

  /// Pools the row of position set `set`: coefficient min(P, Σ_{a∈S, a≥j}
  /// δ_a) on L_j, right-hand side V(S).  Rows with V(S) = 0 hold for every
  /// L >= 0 and are skipped (returns false).
  bool add_pool_row(Mask set) {
    double volume = 0.0;
    for (Mask rest = set; rest != 0; rest &= rest - 1) {
      volume += volumes_[static_cast<std::size_t>(std::countr_zero(rest))];
    }
    if (volume <= 0.0) {
      return false;
    }
    row_sets_.push_back(set);
    row_volumes_.push_back(volume);
    row_coeffs_.resize(row_coeffs_.size() + stride_, 0.0);
    double* coeffs = &row_coeffs_[row_coeffs_.size() - stride_];
    double width = 0.0;
    for (std::size_t j = 64 - static_cast<std::size_t>(std::countl_zero(set));
         j-- > 0;) {
      if ((set >> j) & 1u) {
        width += widths_[j];
      }
      coeffs[j] = std::min(processors_, width);
    }
    return true;
  }

  /// Appends pool row `r` to the tableau, expressed in the current basis:
  /// its surplus is basic, and every basic L_j is substituted out.
  void append_tableau_row(std::size_t r) {
    const std::size_t k = tasks_.size();
    const double* coeffs = &row_coeffs_[r * stride_];
    tab_.resize((rows_ + 1) * k);
    double* row = &tab_[rows_ * k];
    double beta = -row_volumes_[r];
    for (std::size_t c = 0; c < k; ++c) {
      row[c] = nonbasic_[c] < k ? coeffs[nonbasic_[c]] : 0.0;
    }
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = basic_row_[j];
      const double factor = coeffs[j];
      if (i == kNone || factor == 0.0) {
        continue;
      }
      const double* source = &tab_[i * k];
      for (std::size_t c = 0; c < k; ++c) {
        row[c] += factor * source[c];
      }
      beta += factor * beta_[i];
    }
    basic_.push_back(k + r);
    beta_.push_back(beta);
    ++rows_;
  }

  /// Dual simplex on the condensed tableau: basic x_B = β + α·x_N, objective
  /// z = z0 + d·x_N with d >= 0 throughout.  Returns false when the
  /// iteration budget runs out or a violated row has no entering column.
  bool dual_simplex() {
    const std::size_t k = tasks_.size();
    for (;; ++iterations_) {
      if (iterations_ >= iteration_cap_) {
        return false;
      }
      // Leaving row: the most violated one; Bland's lowest index once half
      // the budget is gone, against cycling.
      const bool use_bland = iterations_ >= iteration_cap_ / 2;
      std::size_t leaving = kNone;
      for (std::size_t i = 0; i < rows_; ++i) {
        if (beta_[i] >= -feasibility_tol_) {
          continue;
        }
        if (leaving == kNone || (use_bland ? basic_[i] < basic_[leaving]
                                           : beta_[i] < beta_[leaving])) {
          leaving = i;
        }
      }
      if (leaving == kNone) {
        return true;
      }
      // Entering column: min d_c / α_rc over α_rc > 0, the larger pivot on
      // ties, then the lower variable id.
      const double* row = &tab_[leaving * k];
      std::size_t entering = kNone;
      for (std::size_t c = 0; c < k; ++c) {
        if (row[c] <= kPivotTol) {
          continue;
        }
        if (entering == kNone) {
          entering = c;
          continue;
        }
        const double lhs = reduced_[c] * row[entering];
        const double rhs = reduced_[entering] * row[c];
        if (lhs < rhs ||
            (!(rhs < lhs) &&
             (row[c] > row[entering] ||
              (row[c] == row[entering] &&
               nonbasic_[c] < nonbasic_[entering])))) {
          entering = c;
        }
      }
      if (entering == kNone) {
        return false;
      }
      pivot(leaving, entering);
      ++pivots_;
    }
  }

  /// Exchanges basic row `r` with nonbasic column `c`.
  void pivot(std::size_t r, std::size_t c) {
    const std::size_t k = tasks_.size();
    double* prow = &tab_[r * k];
    const double inverse = 1.0 / prow[c];
    for (std::size_t j = 0; j < k; ++j) {
      prow[j] = -prow[j] * inverse;
    }
    prow[c] = inverse;
    beta_[r] = -beta_[r] * inverse;
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i == r) {
        continue;
      }
      double* target = &tab_[i * k];
      const double factor = target[c];
      if (factor == 0.0) {
        continue;
      }
      for (std::size_t j = 0; j < k; ++j) {
        target[j] += factor * prow[j];
      }
      target[c] = factor * inverse;
      beta_[i] += factor * beta_[r];
    }
    const double factor = reduced_[c];
    if (factor != 0.0) {
      for (std::size_t j = 0; j < k; ++j) {
        // Clamped: a rounding-negative reduced cost would break the dual
        // ratio test's invariant.
        reduced_[j] = std::max(0.0, reduced_[j] + factor * prow[j]);
      }
    }
    reduced_[c] = factor * inverse;
    if (basic_[r] < k) {
      basic_row_[basic_[r]] = kNone;
    }
    if (nonbasic_[c] < k) {
      basic_row_[nonbasic_[c]] = r;
    }
    std::swap(basic_[r], nonbasic_[c]);
  }

  void read_lengths() {
    const std::size_t k = tasks_.size();
    lengths_.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = basic_row_[j];
      lengths_[j] = i == kNone ? 0.0 : std::max(0.0, beta_[i]);
    }
  }

  /// Max-flow of the current lengths on the staircase network: source →
  /// position a (V_a) → column j <= a (δ_a·L_j) → sink (P·L_j).  Returns 0
  /// when the flow carries ΣV up to `tol`; otherwise the positions reachable
  /// from the source in the residual graph, a set whose row L violates.
  /// A greedy flow (positions in order, each filling its latest column
  /// first) leaves little for the BFS augmenting paths to route: on the
  /// pinned n = 12 fixture 0.3 paths per flow, against 3.1 when each
  /// position fills its earliest column first.
  Mask violated_set(double tol) {
    const std::size_t k = tasks_.size();
    const double eps = 1e-15 * prefix_volume_;
    flow_.assign(k * k, 0.0);  // flow_[a·k + j]
    column_room_.resize(k);
    supply_.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      column_room_[j] = processors_ * lengths_[j];
    }
    double missing = 0.0;
    for (std::size_t a = 0; a < k; ++a) {
      double remaining = volumes_[a];
      for (std::size_t j = a + 1; j-- > 0 && remaining > 0.0;) {
        const double f = std::min(
            remaining, std::min(widths_[a] * lengths_[j], column_room_[j]));
        if (f > 0.0) {
          flow_[a * k + j] = f;
          column_room_[j] -= f;
          remaining -= f;
        }
      }
      supply_[a] = remaining;
      missing += remaining;
    }

    task_parent_.resize(k);
    column_parent_.resize(k);
    queue_.resize(2 * k);
    while (missing > tol) {
      // BFS over the residual graph; queue entries are a (position) or
      // k + j (column).
      Mask seen_tasks = 0;
      Mask seen_columns = 0;
      std::size_t head = 0;
      std::size_t tail = 0;
      for (std::size_t a = 0; a < k; ++a) {
        if (supply_[a] > eps) {
          seen_tasks |= Mask{1} << a;
          task_parent_[a] = kNone;
          queue_[tail++] = a;
        }
      }
      std::size_t sink_column = kNone;
      while (head < tail && sink_column == kNone) {
        const std::size_t node = queue_[head++];
        if (node < k) {
          const std::size_t a = node;
          for (std::size_t j = 0; j <= a; ++j) {
            if ((seen_columns >> j) & 1u ||
                widths_[a] * lengths_[j] - flow_[a * k + j] <= eps) {
              continue;
            }
            seen_columns |= Mask{1} << j;
            column_parent_[j] = a;
            if (column_room_[j] > eps) {
              sink_column = j;
              break;
            }
            queue_[tail++] = k + j;
          }
        } else {
          const std::size_t j = node - k;
          for (std::size_t a = j; a < k; ++a) {
            if ((seen_tasks >> a) & 1u || flow_[a * k + j] <= eps) {
              continue;
            }
            seen_tasks |= Mask{1} << a;
            task_parent_[a] = j;
            queue_[tail++] = a;
          }
        }
      }
      if (sink_column == kNone) {
        return seen_tasks;
      }
      // Bottleneck along column ← position (← column ← position ...) ←
      // source, then augment.
      double amount = column_room_[sink_column];
      std::size_t j = sink_column;
      std::size_t a;
      for (;;) {
        a = column_parent_[j];
        amount = std::min(amount, widths_[a] * lengths_[j] - flow_[a * k + j]);
        if (task_parent_[a] == kNone) {
          amount = std::min(amount, supply_[a]);
          break;
        }
        j = task_parent_[a];
        amount = std::min(amount, flow_[a * k + j]);
      }
      column_room_[sink_column] -= amount;
      j = sink_column;
      for (;;) {
        a = column_parent_[j];
        flow_[a * k + j] += amount;
        if (task_parent_[a] == kNone) {
          supply_[a] -= amount;
          break;
        }
        j = task_parent_[a];
        flow_[a * k + j] -= amount;
      }
      missing -= amount;
    }
    return 0;
  }

  const Instance* instance_;
  double processors_;
  std::size_t stride_;  ///< row_coeffs_ entries per pooled row

  // Per position.
  std::vector<std::size_t> tasks_;
  std::vector<double> widths_;
  std::vector<double> volumes_;
  std::vector<double> weights_;

  // Row pool; pool_marks_[d] is its size before the push to depth d + 1.
  std::vector<Mask> row_sets_;
  std::vector<double> row_volumes_;
  std::vector<double> row_coeffs_;
  std::vector<std::size_t> pool_marks_;

  // Dual simplex state of the current solve.  Variable ids: L_j is j, the
  // surplus of pool row r is k + r.
  std::vector<double> tab_;  ///< rows_ × k, row-major
  std::vector<double> beta_;
  std::vector<std::size_t> basic_;
  std::vector<std::size_t> nonbasic_;
  std::vector<std::size_t> basic_row_;  ///< per L_j: its row, or kNone
  std::vector<double> costs_;
  std::vector<double> reduced_;
  std::vector<double> lengths_;
  std::size_t rows_ = 0;
  std::size_t iterations_ = 0;
  std::size_t iteration_cap_ = 0;
  double prefix_volume_ = 0.0;
  double feasibility_tol_ = 0.0;

  // Max-flow scratch.
  std::vector<double> flow_;
  std::vector<double> column_room_;
  std::vector<double> supply_;
  std::vector<std::size_t> task_parent_;
  std::vector<std::size_t> column_parent_;
  std::vector<std::size_t> queue_;

  std::size_t pivots_ = 0;
  std::size_t max_flows_ = 0;
  std::size_t cut_rows_ = 0;
};

}  // namespace detail

OrderLpEvaluator::OrderLpEvaluator(const Instance& instance)
    : instance_(&instance),
      lp_(std::make_unique<detail::CoveringOrderLp>(instance)) {
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
  // An exact push extends the kernel's structure (position and singleton
  // row) without solving, and reports the from-scratch value, bit-identical
  // with order_lp_objective for the same prefix.
  lp_->append(task);
  const double objective =
      exact ? order_lp_objective(*instance_, prefix_) : lp_->solve();
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

std::size_t OrderLpEvaluator::max_flows() const noexcept {
  return lp_->max_flows();
}

std::size_t OrderLpEvaluator::cut_rows() const noexcept {
  return lp_->cut_rows();
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
