#pragma once

/// \file engine.hpp
/// Fluid event-driven execution engine.  Runs an allocation policy to
/// completion: rates are recomputed at every task completion (the only
/// event type in the work-preserving fluid model), producing a
/// piecewise-constant StepSchedule plus per-event telemetry.

#include <vector>

#include "malsched/core/cancel.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/core/schedule.hpp"
#include "malsched/sim/policy.hpp"

namespace malsched::sim {

struct EngineResult {
  core::StepSchedule schedule;
  /// Completion times indexed by task.
  std::vector<double> completions;
  /// Weighted completion Σ w_i C_i.
  double weighted_completion = 0.0;
  /// Number of policy invocations (events).
  std::size_t events = 0;
  /// True when EngineOptions::cancel fired mid-run; the schedule then stops
  /// at the last completed event and unfinished tasks report completion 0 —
  /// a partial trace, not a valid MWCT answer.
  bool cancelled = false;
};

struct EngineOptions {
  support::Tolerance tol = {};
  /// Safety valve: abort (contract failure) if the policy stops making
  /// progress after this many events.  0 means the default 4n + 16: a
  /// well-behaved run needs at most n completion events, so 4n + 16 leaves
  /// ample margin for tolerance-induced re-shares before declaring the
  /// policy stuck.  tests/sim/test_engine.cpp pins this budget.
  std::size_t max_events = 0;
  /// Cooperative cancellation, polled once per event — the abort latency of
  /// an engine-backed solve is therefore one policy invocation (O(n) work),
  /// microseconds in practice.  A default token never fires and the poll is
  /// skipped entirely (cancel.hpp).
  core::CancelToken cancel;
};

/// Runs `policy` on `instance` until every task completes.  Zero-task
/// instances are valid input and produce an empty schedule with zero events
/// (the service layer forwards arbitrary client batches here).
[[nodiscard]] EngineResult run_policy(const core::Instance& instance,
                                      const AllocationPolicy& policy,
                                      const EngineOptions& options = {});

}  // namespace malsched::sim
