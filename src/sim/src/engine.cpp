#include "malsched/sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "malsched/support/contracts.hpp"

namespace malsched::sim {

EngineResult run_policy(const core::Instance& instance,
                        const AllocationPolicy& policy,
                        const EngineOptions& options) {
  // n == 0 needs no special case: the completion loop below is vacuous, the
  // policy is never consulted, and the fall-through returns the empty
  // result (pinned by tests/sim/test_engine.cpp).
  const std::size_t n = instance.size();
  const auto tol = options.tol;
  const std::size_t max_events =
      options.max_events != 0 ? options.max_events : 4 * n + 16;

  std::vector<double> weights(n);
  std::vector<double> widths(n);
  std::vector<double> remaining(n);
  std::vector<std::uint8_t> alive(n, 0);  // unfinished
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = instance.task(i).weight;
    widths[i] = instance.effective_width(i);
    remaining[i] = instance.task(i).volume;
    alive[i] = remaining[i] > tol.abs ? 1 : 0;
  }

  EngineResult result;
  result.completions.assign(n, 0.0);
  std::vector<core::Step> steps;

  double now = 0.0;
  std::size_t events = 0;
  const bool poll_cancel = options.cancel.can_cancel();
  while (std::any_of(alive.begin(), alive.end(),
                     [](std::uint8_t b) { return b != 0; })) {
    // One poll per event bounds abort latency at a single policy
    // invocation; the schedule stops at the last event already emitted.
    if (poll_cancel && options.cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    MALSCHED_EXPECTS_MSG(events < max_events,
                         "allocation policy stopped making progress");

    PolicyContext context;
    context.processors = instance.processors();
    context.weights = weights;
    context.widths = widths;
    context.alive = alive;
    context.now = now;
    if (policy.clairvoyant()) {
      context.remaining = remaining;
    }
    const auto rates = policy.allocate(context);
    MALSCHED_ENSURES(rates.size() == n);
    ++events;

    // Sanity: rates respect widths and capacity (policies are trusted but
    // cheap to check).
    double used = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      MALSCHED_ENSURES(rates[i] >= -tol.abs);
      MALSCHED_ENSURES(rates[i] <= widths[i] + tol.slack(widths[i]));
      used += rates[i];
    }
    MALSCHED_ENSURES(used <=
                     instance.processors() + tol.slack(instance.processors()));

    // Time to the next event: the first completion among progressing tasks.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (alive[i] && rates[i] > tol.abs) {
        dt = std::min(dt, remaining[i] / rates[i]);
      }
    }
    MALSCHED_EXPECTS_MSG(std::isfinite(dt),
                         "policy starves every remaining task");

    core::Step step;
    step.begin = now;
    step.end = now + dt;
    step.rates.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!alive[i] || rates[i] <= tol.abs) {
        continue;
      }
      step.rates[i] = rates[i];
      remaining[i] -= rates[i] * dt;
      if (remaining[i] <= tol.slack(instance.task(i).volume)) {
        remaining[i] = 0.0;
        alive[i] = 0;
        result.completions[i] = now + dt;
      }
    }
    steps.push_back(std::move(step));
    now += dt;
  }

  result.events = events;
  result.schedule = core::StepSchedule(n, std::move(steps));
  for (std::size_t i = 0; i < n; ++i) {
    result.weighted_completion +=
        instance.task(i).weight * result.completions[i];
  }
  return result;
}

}  // namespace malsched::sim
