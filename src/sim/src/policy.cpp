#include "malsched/sim/policy.hpp"

#include <algorithm>
#include <numeric>

#include "malsched/core/wdeq.hpp"
#include "malsched/support/contracts.hpp"
#include "malsched/support/float_compare.hpp"

namespace malsched::sim {

namespace {

class WdeqPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "wdeq"; }
  [[nodiscard]] std::vector<double> allocate(
      const PolicyContext& context) const override {
    return core::wdeq_shares(context.processors, context.weights,
                             context.widths, context.alive);
  }
};

class DeqPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "deq"; }
  [[nodiscard]] std::vector<double> allocate(
      const PolicyContext& context) const override {
    const std::vector<double> unit(context.weights.size(), 1.0);
    return core::wdeq_shares(context.processors, unit, context.widths,
                             context.alive);
  }
};

class WrrPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "wrr"; }
  [[nodiscard]] std::vector<double> allocate(
      const PolicyContext& context) const override {
    const std::size_t n = context.weights.size();
    std::vector<double> rates(n, 0.0);
    double alive_weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (context.alive[i]) {
        alive_weight += context.weights[i];
      }
    }
    if (alive_weight <= 0.0) {
      return rates;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (context.alive[i]) {
        rates[i] = std::min(context.widths[i],
                            context.weights[i] * context.processors /
                                alive_weight);
      }
    }
    return rates;
  }
};

class FifoRigidPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "fifo-rigid"; }
  [[nodiscard]] std::vector<double> allocate(
      const PolicyContext& context) const override {
    const std::size_t n = context.weights.size();
    std::vector<double> rates(n, 0.0);
    double left = context.processors;
    // Widths that fill P exactly can miss it by an ulp once rescaled (the
    // cache solves at P = 1), so the fit test grants a slack relative to P.
    // A task admitted inside the slack runs at the capacity left, which
    // keeps the total at most P.
    const double slack = support::Tolerance{}.slack(context.processors);
    for (std::size_t i = 0; i < n && left > 0.0; ++i) {
      if (!context.alive[i]) {
        continue;
      }
      // Rigid: all-or-nothing at the task's width.
      if (context.widths[i] <= left + slack) {
        rates[i] = std::min(context.widths[i], left);
        left -= rates[i];
      }
    }
    // Guard against total deadlock (first alive task wider than P can never
    // fit rigidly): let it run malleably rather than hang the simulation.
    if (left == context.processors) {
      for (std::size_t i = 0; i < n; ++i) {
        if (context.alive[i]) {
          rates[i] = std::min(context.widths[i], left);
          break;
        }
      }
    }
    return rates;
  }
};

class SmithGreedyPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "smith-greedy"; }
  [[nodiscard]] bool clairvoyant() const override { return true; }
  [[nodiscard]] std::vector<double> allocate(
      const PolicyContext& context) const override {
    MALSCHED_EXPECTS_MSG(!context.remaining.empty(),
                         "smith-greedy needs remaining volumes");
    const std::size_t n = context.weights.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    // Smith priority on the *remaining* work: w / V_rem descending, i.e.
    // V_rem / w ascending.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return context.remaining[a] * context.weights[b] <
                              context.remaining[b] * context.weights[a];
                     });
    std::vector<double> rates(n, 0.0);
    double left = context.processors;
    for (const std::size_t i : order) {
      if (!context.alive[i] || left <= 0.0) {
        continue;
      }
      rates[i] = std::min(context.widths[i], left);
      left -= rates[i];
    }
    return rates;
  }
};

}  // namespace

std::unique_ptr<AllocationPolicy> make_wdeq_policy() {
  return std::make_unique<WdeqPolicy>();
}
std::unique_ptr<AllocationPolicy> make_deq_policy() {
  return std::make_unique<DeqPolicy>();
}
std::unique_ptr<AllocationPolicy> make_wrr_policy() {
  return std::make_unique<WrrPolicy>();
}
std::unique_ptr<AllocationPolicy> make_fifo_rigid_policy() {
  return std::make_unique<FifoRigidPolicy>();
}
std::unique_ptr<AllocationPolicy> make_smith_greedy_policy() {
  return std::make_unique<SmithGreedyPolicy>();
}

std::vector<std::unique_ptr<AllocationPolicy>> all_policies() {
  std::vector<std::unique_ptr<AllocationPolicy>> out;
  out.push_back(make_wdeq_policy());
  out.push_back(make_deq_policy());
  out.push_back(make_wrr_policy());
  out.push_back(make_fifo_rigid_policy());
  out.push_back(make_smith_greedy_policy());
  return out;
}

}  // namespace malsched::sim
