#include "malsched/core/bounds.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "malsched/support/contracts.hpp"

namespace malsched::core {

double squashed_area_bound(const Instance& instance) {
  const std::size_t n = instance.size();
  // Smith order: V_i / w_i non-decreasing.  Zero-weight tasks sort last
  // (infinite ratio) and contribute nothing to the weighted sum anyway.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Task& ta = instance.task(a);
    const Task& tb = instance.task(b);
    // Compare V_a/w_a < V_b/w_b without dividing (weights may be zero).
    return ta.volume * tb.weight < tb.volume * ta.weight;
  });

  // A = Σ_i (suffix weight from i) * V_i / P over the sorted order, which
  // equals Σ w_j C_j of the squashed single-machine schedule.
  double suffix_weight = instance.total_weight();
  double bound = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const Task& t = instance.task(order[k]);
    bound += suffix_weight * t.volume / instance.processors();
    suffix_weight -= t.weight;
  }
  return bound;
}

double height_bound(const Instance& instance) {
  double bound = 0.0;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Task& t = instance.task(i);
    if (t.volume > 0.0) {
      bound += t.weight * t.volume / instance.effective_width(i);
    }
  }
  return bound;
}

double mixed_lower_bound(const Instance& instance, std::span<const double> v1) {
  MALSCHED_EXPECTS(v1.size() == instance.size());
  std::vector<double> v2(instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    MALSCHED_EXPECTS(v1[i] >= -1e-12);
    const double first = std::clamp(v1[i], 0.0, instance.task(i).volume);
    v2[i] = instance.task(i).volume - first;
  }
  std::vector<double> v1_clamped(v1.begin(), v1.end());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    v1_clamped[i] = std::clamp(v1_clamped[i], 0.0, instance.task(i).volume);
  }
  return squashed_area_bound(instance.with_volumes(v1_clamped)) +
         height_bound(instance.with_volumes(v2));
}

double best_simple_lower_bound(const Instance& instance) {
  return std::max(squashed_area_bound(instance), height_bound(instance));
}

}  // namespace malsched::core
