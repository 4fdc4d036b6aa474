#pragma once

/// \file bnb.hpp
/// Exact optimum of MWCT-CB-F by branch-and-bound over completion orders.
///
/// Corollary 1 reduces the problem to choosing the best completion order;
/// `optimal_by_enumeration` walks all n! orders and is hard-capped at tiny
/// n.  This module searches the same space as a depth-first tree over order
/// *prefixes* and prunes it three ways:
///
/// * Incremental evaluation — an OrderLpEvaluator solves one prefix-sized
///   order LP per node (the prefix objective is an exact lower bound on what
///   those tasks contribute to any completion of the prefix), instead of one
///   full-n LP per leaf.  It works on the LP's covering form in the column
///   lengths, over a pool of min-cut rows that a subtree inherits; any
///   subset of those rows is a relaxation, so every warm value is itself a
///   lower bound, which is all the child bound, the refined bound and the
///   leaf filter below need.  Leaves are pushed warm like every other node;
///   a leaf is re-solved from scratch only when its warm value is not at
///   least the bound slack above the incumbent, so the incumbent (and the
///   returned objective and order) holds from-scratch values only.
/// * Admissible bounds — a node's value is bounded below by
///     prefix LP  +  max(offset squashed area, per-task height)
///   over the remaining tasks, where the offset area is
///   W_suffix · V_prefix / P + A(suffix) (every suffix task's boundary must
///   cover the whole prefix volume plus the Smith-ordered suffix work, the
///   Definition-5 relaxation of bounds.hpp) and the per-task bound is
///   Σ w_i · max(V_i/δ_i, (V_prefix + V_i)/P) (Definition 6 plus the same
///   volume argument).  Subtrees whose bound cannot beat the incumbent are
///   cut.
/// * Exchange cut (use_cuts) — a redundant-by-construction prune on top of
///   the subset-DP bound: tasks with exactly equal (V, δ_eff) can swap
///   delivery profiles verbatim, so some optimal order completes each
///   shape class in weight-descending order and every other interleaving
///   of the class is never generated.  This collapses structured batch
///   workloads (repeated shapes, heterogeneous weights) whose near-tied
///   orders the completion-floor bounds cannot separate; on continuous
///   instances exact shape collisions never occur and the cut is inert.
///   The cut never reorders children (siblings sort by the DP bound in
///   both modes), so enabling it can only remove subtrees, never explore
///   new ones.
/// * Incumbent-aware sibling pruning — children are sorted by ascending
///   bound, so the moment one sibling is prunable after an incumbent
///   improvement the entire sorted tail is prunable with it; the loop
///   charges the tail in one step instead of re-checking each sibling.
/// * Dominance — branches that a volume/weight exchange argument proves
///   redundant are never generated: tasks identical in (V, δ, w) are forced
///   into index order (swapping them is a pure renaming, the degenerate
///   Theorem-11 exchange), zero-volume tasks complete first, and
///   zero-weight tasks complete last (moving them is free).
///
/// The incumbent is seeded with the order LP of the classical priority
/// orders (Smith first — §VI's suggestion) and the greedy-heuristic order
/// (each distinct order solved once), and siblings are explored
/// cheapest-bound-first, so pruning bites from the first descent.  With
/// bounds and dominance disabled the search degenerates to exhaustive
/// enumeration and visits exactly n! leaves — the correctness test for the
/// pruning machinery.

#include <cstddef>
#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"

namespace malsched::core {

struct BnbOptions {
  /// Hard guard: worst-case exponential (and the subset-DP bound tables
  /// cost 3·2^n doubles, capping n at 20).  ~15 is comfortable
  /// single-thread interactive territory.
  std::size_t max_tasks = 18;
  /// Also build the optimal schedule (one extra full order LP).
  bool want_schedule = false;
  /// Prune subtrees whose admissible lower bound cannot beat the incumbent.
  bool use_bounds = true;
  /// Skip dominated branches (identical-task symmetry, zero-volume/weight
  /// pinning).
  bool use_dominance = true;
  /// Also apply the identical-shape exchange cut (see the file comment).
  /// It only removes provably redundant shape-class orderings and never
  /// changes sibling order, so node counts with the cut on are ≤ node
  /// counts with it off — the property the differential suite pins.  No
  /// effect when `use_bounds` is false.
  bool use_cuts = true;
  /// Relative pruning slack: a subtree is cut when its bound is within
  /// slack·max(1, |incumbent|) of the incumbent, absorbing simplex noise.
  /// The returned objective is optimal up to this slack (default well below
  /// every tolerance the test-suite uses).
  double bound_slack = 1e-7;
  /// Cooperative cancellation, polled once per search node (each node costs
  /// an order-LP solve, so the poll is free by comparison).  When the token
  /// fires the DFS unwinds and the result carries `cancelled = true` with
  /// the best incumbent found so far — an upper bound, not the proven
  /// optimum.  The incumbent seeds always run, so a cancelled result still
  /// holds a feasible order.
  CancelToken cancel;
};

struct BnbStats {
  std::size_t nodes = 0;             ///< prefixes expanded (LP-evaluated)
  std::size_t leaves = 0;            ///< complete orders evaluated
  std::size_t lp_evaluations = 0;    ///< order-LP solves, distinct seeds
                                     ///< and leaf re-solves included
  std::size_t leaf_resolves = 0;     ///< leaves whose warm value could beat
                                     ///< the incumbent, re-solved from
                                     ///< scratch (≤ leaves)
  std::size_t pruned_by_bound = 0;   ///< subtrees cut by the subset-DP bound
  std::size_t pruned_by_cut = 0;     ///< branches never generated by the
                                     ///< identical-shape exchange cut
  std::size_t pruned_by_dominance = 0;  ///< branches never generated
  /// Dual-simplex pivots of the warm pushes over the covering order LP
  /// (OrderLpEvaluator::pivots); pivots / nodes is the mean pivot count of
  /// one push.
  std::size_t pivots = 0;
  /// Max-flow separation rounds of the warm pushes
  /// (OrderLpEvaluator::max_flows).
  std::size_t max_flows = 0;
  /// Violated-set rows those rounds added (OrderLpEvaluator::cut_rows).
  std::size_t cut_rows = 0;
  /// Order LPs the search relied on that missed optimality: leaf
  /// re-solves, from-scratch fallbacks of warm pushes, and the
  /// want_schedule solve.  Failed incumbent seeds are heuristics and are
  /// not counted.  Non-zero means the result is not a proven optimum.
  std::size_t lp_failures = 0;
};

/// When stats.lp_failures > 0 the objective/order are the best over the
/// LPs that solved (order empty, objective +infinity, if none did) and the
/// schedule stays empty if its own LP failed.
struct BnbResult {
  double objective = 0.0;
  std::vector<std::size_t> order;  ///< an optimal completion order
  ColumnSchedule schedule;         ///< populated if want_schedule
  BnbStats stats;
  /// True when BnbOptions::cancel fired before the search finished; the
  /// objective/order are then the best incumbent, not the proven optimum.
  bool cancelled = false;
};

/// Exact optimum over all completion orders by branch-and-bound.  Matches
/// `optimal_by_enumeration` to within `bound_slack` (relative) on every
/// instance.
[[nodiscard]] BnbResult branch_and_bound(const Instance& instance,
                                         const BnbOptions& options = {});

}  // namespace malsched::core
