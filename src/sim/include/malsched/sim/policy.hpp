#pragma once

/// \file policy.hpp
/// Allocation policies for the fluid execution engine.  A policy sees the
/// alive tasks (and, when clairvoyant, the remaining volumes) and returns
/// the processor rates to apply until the next completion event.
///
/// The zoo covers the baselines the paper's Table I cites: WDEQ (Algorithm
/// 1), DEQ (Deng et al. [13]), weighted round-robin (Kim & Chwa [14],
/// without surplus redistribution), rigid FCFS (the non-malleable
/// strawman), and clairvoyant Smith-priority greedy.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "malsched/core/instance.hpp"

namespace malsched::sim {

/// Snapshot handed to a policy at each decision point.
struct PolicyContext {
  double processors = 0.0;
  std::span<const double> weights;
  std::span<const double> widths;       ///< effective widths (δ clamped at P)
  std::span<const std::uint8_t> alive;  ///< 1 = still running
  double now = 0.0;
  /// Remaining volumes; empty for non-clairvoyant policies.
  std::span<const double> remaining;
};

/// Interface: return per-task rates (0 for dead tasks, <= width, Σ <= P).
class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// True when the policy wants remaining volumes in its context.
  [[nodiscard]] virtual bool clairvoyant() const { return false; }
  [[nodiscard]] virtual std::vector<double> allocate(
      const PolicyContext& context) const = 0;
};

/// WDEQ: weighted equipartition with cap-and-redistribute (Algorithm 1).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_wdeq_policy();

/// DEQ: unweighted equipartition.
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_deq_policy();

/// Weighted round-robin: share w_i P / Σw capped at δ_i, surplus *wasted*
/// (the single-processor analysis of [14] transplanted literally).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_wrr_policy();

/// Rigid FCFS: tasks in index order get exactly δ_i processors if they fit
/// (up to a rounding slack relative to P), otherwise wait — the
/// non-malleable baseline.
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_fifo_rigid_policy();

/// Clairvoyant Smith greedy: tasks in w/V-descending order get their full
/// width while capacity lasts (re-evaluated at each completion).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_smith_greedy_policy();

/// All policies above, for comparison sweeps.
[[nodiscard]] std::vector<std::unique_ptr<AllocationPolicy>> all_policies();

}  // namespace malsched::sim
