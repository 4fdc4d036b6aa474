#include "malsched/core/bnb.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "malsched/core/greedy.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Must task `i` complete no later than task `j` in some optimal order?
/// Only exchanges that are provably free are claimed (the search stays
/// exact):
/// * zero-volume tasks can always complete at time 0, so they go first;
/// * among positive-volume tasks, a zero-weight task can have its completion
///   boundary moved to the makespan at no objective cost, so it goes last;
/// * tasks identical in (V, δ_eff, w) are interchangeable by renaming, so
///   only the index-ordered representative branch is kept.
/// Ties inside each rule break by index, keeping the relation antisymmetric
/// and acyclic.
bool dominates(const Instance& instance, std::size_t i, std::size_t j) {
  const Task& a = instance.task(i);
  const Task& b = instance.task(j);
  const bool a_empty = a.volume <= 0.0;
  const bool b_empty = b.volume <= 0.0;
  if (a_empty || b_empty) {
    if (a_empty && b_empty) {
      return i < j;
    }
    return a_empty;
  }
  const bool a_weightless = a.weight <= 0.0;
  const bool b_weightless = b.weight <= 0.0;
  if (a_weightless || b_weightless) {
    if (a_weightless && b_weightless) {
      return i < j;
    }
    return b_weightless;
  }
  return a.volume == b.volume && a.weight == b.weight &&
         instance.effective_width(i) == instance.effective_width(j) && i < j;
}

class Searcher {
 public:
  Searcher(const Instance& instance, const BnbOptions& options)
      : instance_(instance),
        options_(options),
        n_(instance.size()),
        processors_(instance.processors()),
        total_volume_(instance.total_volume()),
        evaluator_(instance) {
    heights_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      heights_[i] = instance.task(i).volume / instance.effective_width(i);
    }
    if (options_.use_cuts) {
      // Exchange cut: two positive-volume tasks of *identical shape*
      // (exactly equal V and δ_eff) can trade their delivery profiles
      // verbatim — no rate scaling, so both width caps and the machine
      // capacity are untouched instant by instant and only the two
      // completion times swap.  By the rearrangement inequality some
      // optimal order therefore completes each shape class in
      // weight-descending order (index breaks ties, keeping the relation a
      // total order per class and hence acyclic).  Equal height alone is
      // NOT enough: swapping profiles of same-height tasks with different
      // volumes requires scaling rates by V_i/V_j, which can push the
      // instantaneous total above P in a saturated schedule — the
      // differential probe caught exactly that.  This cut is what
      // collapses structured batch workloads (repeated task shapes under
      // heterogeneous weights) whose near-tied orders defeat every
      // completion-time bound; on continuous random instances exact shape
      // collisions have probability zero and the cut is inert, which keeps
      // the cuts-on/off differential contract (same objective, same order)
      // intact there.
      cut_dominators_.assign(n_, 0u);
      for (std::size_t j = 0; j < n_; ++j) {
        const Task& b = instance_.task(j);
        if (b.volume <= 0.0) {
          continue;  // zero-volume tasks keep their dedicated go-first rule
        }
        for (std::size_t i = 0; i < n_; ++i) {
          const Task& a = instance_.task(i);
          if (i == j || a.volume != b.volume ||
              instance_.effective_width(i) != instance_.effective_width(j)) {
            continue;
          }
          if (a.weight > b.weight || (a.weight == b.weight && i < j)) {
            cut_dominators_[j] |= bit(i);
          }
        }
      }
    }
    dominators_.assign(n_, 0u);
    if (options_.use_dominance) {
      for (std::size_t j = 0; j < n_; ++j) {
        for (std::size_t i = 0; i < n_; ++i) {
          if (i != j && dominates(instance_, i, j)) {
            dominators_[j] |= bit(i);
          }
        }
      }
    }
    if (options_.use_bounds) {
      build_suffix_dp();
    }
  }

  BnbResult run() {
    BnbResult result;
    if (n_ == 0) {
      return result;
    }
    // Seed the incumbent with the classical priority orders — both as
    // completion orders directly and, crucially, via the *completion order
    // of the greedy schedule* each one induces (a placement order and its
    // completion order differ, and the order LP on the latter is at most
    // the greedy objective — with Conjecture 12 that is usually the
    // optimum already, which is what makes the bound bite from the root).
    consider_seed(smith_order(instance_));
    consider_seed(height_order(instance_));
    consider_seed(volume_order(instance_));
    consider_seed(weight_order(instance_));
    consider_greedy_seed(smith_order(instance_));
    consider_greedy_seed(best_greedy_heuristic(instance_).order);
    dfs();

    stats_.lp_evaluations += evaluator_.lp_evaluations();
    stats_.lp_failures += evaluator_.lp_failures();
    stats_.pivots = evaluator_.pivots();
    stats_.max_flows = evaluator_.max_flows();
    stats_.cut_rows = evaluator_.cut_rows();
    // Only a failed or cancelled search can end without an incumbent.
    MALSCHED_ENSURES(!best_order_.empty() || cancelled_ ||
                     stats_.lp_failures > 0);
    result.cancelled = cancelled_;
    result.objective = incumbent_;
    result.order = std::move(best_order_);
    if (options_.want_schedule && !result.order.empty()) {
      auto solved = solve_order_lp(instance_, result.order);
      ++stats_.lp_evaluations;
      if (solved.optimal()) {
        result.schedule = std::move(solved.schedule);
      } else {
        ++stats_.lp_failures;
      }
    }
    result.stats = stats_;
    return result;
  }

 private:
  [[nodiscard]] static std::uint32_t bit(std::size_t task) noexcept {
    return std::uint32_t{1} << task;
  }

  /// Seeds are heuristics: a seed LP that fails (+infinity) is skipped.
  /// So is an order already tried: it would give the same value again,
  /// which cannot be strictly below the incumbent.
  void consider_seed(std::vector<std::size_t> order) {
    if (std::find(seeds_.begin(), seeds_.end(), order) != seeds_.end()) {
      return;
    }
    seeds_.push_back(order);
    ++stats_.lp_evaluations;
    const double objective = order_lp_objective(instance_, order);
    if (objective < incumbent_) {
      incumbent_ = objective;
      best_order_ = std::move(order);
    }
  }

  /// Seeds with the completion order of the greedy schedule placed in
  /// `placement` order.  The greedy schedule is feasible with exactly those
  /// completions, so the order LP on its completion order is at most the
  /// greedy objective.
  void consider_greedy_seed(const std::vector<std::size_t>& placement) {
    const auto schedule = greedy_schedule(instance_, placement);
    const auto completions = schedule.completions();
    std::vector<std::size_t> order(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (completions[a] != completions[b]) {
                  return completions[a] < completions[b];
                }
                return a < b;
              });
    consider_seed(std::move(order));
  }

  /// True when a subtree with lower bound `bound` cannot improve on the
  /// incumbent by more than the numerical slack.
  [[nodiscard]] bool prunable(double bound) const noexcept {
    if (!std::isfinite(incumbent_)) {
      return false;
    }
    return bound >= incumbent_ - slack();
  }

  [[nodiscard]] double slack() const noexcept {
    return options_.bound_slack * std::max(1.0, std::abs(incumbent_));
  }

  /// Completion floor of task `t` when it is the next to complete after
  /// the task set `prefix_mask`: the exact minimum makespan of
  /// prefix ∪ {t}, max((V_prefix + V_t)/P, tallest height among them)
  /// (Definitions 5/6 plus McNaughton's makespan formula).
  [[nodiscard]] double completion_floor(std::uint32_t prefix_mask,
                                        std::size_t t) const {
    const double volume = set_volume_[prefix_mask] + instance_.task(t).volume;
    return std::max(volume / processors_,
                    std::max(set_max_height_[prefix_mask], heights_[t]));
  }

  [[nodiscard]] std::uint32_t free_mask(std::uint32_t used_mask) const {
    return full_mask() & ~used_mask;
  }
  [[nodiscard]] std::uint32_t full_mask() const {
    return n_ == 32 ? ~std::uint32_t{0}
                    : (std::uint32_t{1} << n_) - std::uint32_t{1};
  }

  /// Exact-over-the-relaxation suffix bound, one subset DP sweep per
  /// instance: suffix_dp_[F] is the minimum over completion orders of F of
  /// Σ w_t · completion_floor(complement at t's turn, t) — each suffix
  /// task pays at least the minimum makespan of everything completing
  /// before it plus itself.  Position floors combine the offset
  /// squashed-area cumulative-volume argument (Definition 5) with the
  /// tallest-height makespan term (Definition 6), and the min-assignment
  /// over orders is solved exactly, so this dominates both aggregate
  /// relaxations as well as any rearrangement pairing of them.  O(2^n · n)
  /// once, O(1) per node.
  void build_suffix_dp() {
    const std::size_t size = std::size_t{1} << n_;
    set_volume_.assign(size, 0.0);
    set_max_height_.assign(size, 0.0);
    for (std::uint32_t mask = 1; mask < size; ++mask) {
      const std::uint32_t low = mask & (~mask + 1u);
      const auto i = static_cast<std::size_t>(std::countr_zero(low));
      set_volume_[mask] = set_volume_[mask ^ low] + instance_.task(i).volume;
      set_max_height_[mask] =
          std::max(set_max_height_[mask ^ low], heights_[i]);
    }
    suffix_dp_.assign(size, 0.0);
    for (std::uint32_t free = 1; free < size; ++free) {
      double best = kInf;
      const double before_volume = total_volume_ - set_volume_[free];
      const double before_height = set_max_height_[full_mask() & ~free];
      for (std::uint32_t rest = free; rest != 0u;) {
        const std::uint32_t low = rest & (~rest + 1u);
        rest ^= low;
        const auto t = static_cast<std::size_t>(std::countr_zero(low));
        const Task& task = instance_.task(t);
        const double floor_t = std::max(
            (before_volume + task.volume) / processors_,
            std::max(before_height, heights_[t]));
        best = std::min(best,
                        task.weight * floor_t + suffix_dp_[free ^ low]);
      }
      suffix_dp_[free] = best;
    }
  }

  void dfs() {
    // Cancellation poll, once per node: every node below costs at least one
    // warm-started LP push, so the atomic load (plus a clock read when a
    // deadline is attached) is noise.  The flag makes the whole DFS unwind.
    if (!cancelled_ && options_.cancel.can_cancel() &&
        options_.cancel.cancelled()) {
      cancelled_ = true;
    }
    if (cancelled_) {
      return;
    }
    const std::size_t depth = evaluator_.depth();
    if (depth == n_) {
      ++stats_.leaves;
      // The leaf was pushed warm.  A warm value at least `slack` above the
      // incumbent cannot hide a from-scratch value below it (the two agree
      // to ~1e-9 relative; bound_slack defaults to 1e-7), so only the
      // other leaves are re-solved from scratch.  The test is written
      // negated so that a non-finite incumbent also re-solves.  The
      // incumbent, and with it the returned objective and order, only ever
      // holds from-scratch values: bit-identical with what enumeration
      // computes for an order.
      if (!(evaluator_.objective() >= incumbent_ + slack())) {
        ++stats_.leaf_resolves;
        ++stats_.lp_evaluations;
        const double objective =
            order_lp_objective(instance_, evaluator_.prefix());
        if (!std::isfinite(objective)) {
          ++stats_.lp_failures;
        } else if (objective < incumbent_) {
          incumbent_ = objective;
          best_order_.assign(evaluator_.prefix().begin(),
                             evaluator_.prefix().end());
        }
      }
      return;
    }

    struct Child {
      std::size_t task;
      double bound;  ///< subset-DP bound: the sort key
      double greedy_completion;
    };
    std::vector<Child> children;
    children.reserve(n_ - depth);
    const double prefix_objective = evaluator_.objective();
    for (std::size_t t = 0; t < n_; ++t) {
      if ((used_ & bit(t)) != 0u) {
        continue;
      }
      if (options_.use_dominance && (dominators_[t] & ~used_) != 0u) {
        ++stats_.pruned_by_dominance;
        continue;
      }
      if (options_.use_bounds && options_.use_cuts &&
          (cut_dominators_[t] & ~used_) != 0u) {
        // Exchange cut: an identical-shape task with strictly larger
        // weight (index on ties) is still free, and some optimal order
        // completes it first, so this child's subtree is redundant.  Gated
        // with the bounds, so `use_cuts` without `use_bounds` stays inert.
        ++stats_.pruned_by_cut;
        continue;
      }
      double bound = -kInf;
      if (options_.use_bounds) {
        // Pre-LP bound: exact prefix LP + the candidate's completion floor
        // + the subset-DP relaxation over the rest.  The parts bound
        // disjoint terms of the objective, so the sum is admissible.
        bound = prefix_objective +
                instance_.task(t).weight * completion_floor(used_, t) +
                suffix_dp_[free_mask(used_ | bit(t))];
        if (prunable(bound)) {
          ++stats_.pruned_by_bound;
          continue;
        }
      }
      children.push_back({t, bound, evaluator_.greedy_completion(t)});
    }

    if (options_.use_bounds) {
      // Cheapest bound first (greedy completion breaks ties): descending
      // into the most promising branch early tightens the incumbent, which
      // retroactively prunes its siblings via the re-check below.
      std::sort(children.begin(), children.end(),
                [](const Child& a, const Child& b) {
                  if (a.bound != b.bound) {
                    return a.bound < b.bound;
                  }
                  if (a.greedy_completion != b.greedy_completion) {
                    return a.greedy_completion < b.greedy_completion;
                  }
                  return a.task < b.task;
                });
    }

    for (std::size_t c = 0; c < children.size(); ++c) {
      const Child& child = children[c];
      if (cancelled_) {
        return;
      }
      if (options_.use_bounds && prunable(child.bound)) {
        // Incumbent-aware sibling pruning: children are sorted by ascending
        // DP bound and the incumbent only ever improves, so once one
        // sibling is prunable the whole sorted tail is prunable with it.
        stats_.pruned_by_bound += children.size() - c;
        break;
      }
      // Every node, the leaf included, warm-starts from the parent basis;
      // the leaf decides above whether it needs a from-scratch re-solve.
      const double pushed = evaluator_.push(child.task, /*exact=*/false);
      ++stats_.nodes;
      used_ |= bit(child.task);

      // Refined bound: the exact (prefix + child) LP replaces the cheap
      // prefix-plus-one-task estimate.
      if (options_.use_bounds && evaluator_.depth() < n_ &&
          prunable(std::max(child.bound,
                            pushed + suffix_dp_[free_mask(used_)]))) {
        ++stats_.pruned_by_bound;
      } else {
        dfs();
      }

      used_ &= ~bit(child.task);
      evaluator_.pop();
    }
  }

  const Instance& instance_;
  const BnbOptions& options_;
  std::size_t n_;
  double processors_;
  double total_volume_;
  OrderLpEvaluator evaluator_;
  std::vector<double> heights_;         ///< V_i / δ_eff per task
  /// cut_dominators_[j] = tasks that must complete before j under the
  /// identical-shape exchange cut (see the constructor).  Empty when cuts
  /// are off.
  std::vector<std::uint32_t> cut_dominators_;
  std::vector<double> set_volume_;      ///< Σ V over each subset
  std::vector<double> set_max_height_;  ///< max height over each subset
  std::vector<double> suffix_dp_;       ///< subset suffix lower bound
  std::vector<std::uint32_t> dominators_;
  BnbStats stats_;
  std::uint32_t used_ = 0;
  double incumbent_ = kInf;
  bool cancelled_ = false;
  std::vector<std::size_t> best_order_;
  std::vector<std::vector<std::size_t>> seeds_;  ///< seed orders tried
};

}  // namespace

BnbResult branch_and_bound(const Instance& instance,
                           const BnbOptions& options) {
  MALSCHED_EXPECTS_MSG(
      instance.size() <= options.max_tasks && instance.size() <= 20,
      "branch_and_bound is worst-case exponential in n; raise "
      "BnbOptions::max_tasks deliberately (hard cap 20: the subset-DP bound "
      "tables are 3·2^n doubles)");
  Searcher searcher(instance, options);
  return searcher.run();
}

}  // namespace malsched::core
