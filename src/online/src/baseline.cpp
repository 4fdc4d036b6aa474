#include "malsched/online/baseline.hpp"

#include <algorithm>

#include "malsched/core/bnb.hpp"
#include "malsched/core/release_dates.hpp"

namespace malsched::online {

BaselineResult offline_baseline(const ArrivalTrace& trace,
                                const BaselineOptions& options) {
  BaselineResult result;
  const core::Instance instance = trace.to_instance();
  if (instance.size() == 0) {
    result.exact = true;
    result.method = "empty";
    return result;
  }
  const std::vector<double> release = trace.release_dates();
  const double release_lb =
      core::released_weighted_completion_lower_bound(instance, release);

  if (instance.size() <= options.max_exact_tasks) {
    core::BnbOptions bnb;
    bnb.want_schedule = true;
    bnb.cancel = options.cancel;
    const auto solved = core::branch_and_bound(instance, bnb);
    if (!solved.cancelled && solved.stats.lp_failures == 0) {
      // The schedule-derived objective (not the LP scalar) so exact
      // comparisons against a replayed exact plan are bit-for-bit.
      const double optimum = solved.schedule.weighted_completion(instance);
      if (trace.all_at_time_zero()) {
        result.objective = optimum;
        result.exact = true;
        result.method = "bnb";
        return result;
      }
      result.objective = std::max(optimum, release_lb);
      result.method = "bnb+release-lb";
      return result;
    }
  }
  result.objective = release_lb;
  result.method = "release-lb";
  return result;
}

}  // namespace malsched::online
