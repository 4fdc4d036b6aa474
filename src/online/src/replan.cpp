#include "malsched/online/replan.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "malsched/core/bnb.hpp"
#include "malsched/core/greedy.hpp"
#include "malsched/core/water_filling.hpp"
#include "malsched/core/wdeq.hpp"
#include "malsched/support/contracts.hpp"

namespace malsched::online {

namespace {

/// Compact view of the live tasks: a subinstance over remaining volumes
/// (original widths/weights, same P) plus the id mapping back to the trace.
struct LiveView {
  core::Instance sub;
  std::vector<std::size_t> ids;  ///< ids[k] = trace task id of sub task k
};

LiveView live_view(const ReplanContext& ctx) {
  std::vector<core::Task> tasks;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < ctx.instance->size(); ++i) {
    if (ctx.live[i] != 0) {
      core::Task t = ctx.instance->task(i);
      t.volume = ctx.remaining[i];
      tasks.push_back(t);
      ids.push_back(i);
    }
  }
  return LiveView{core::Instance(ctx.instance->processors(), std::move(tasks)),
                  std::move(ids)};
}

/// Shifts a compact plan (times from 0) to absolute time `now` and widens
/// its rate vectors back to the trace's task ids.
core::StepSchedule lift_plan(const core::StepSchedule& sub,
                             const std::vector<std::size_t>& ids,
                             std::size_t num_tasks, double now) {
  std::vector<core::Step> steps;
  steps.reserve(sub.steps().size());
  for (const core::Step& s : sub.steps()) {
    core::Step out;
    out.begin = now + s.begin;
    out.end = now + s.end;
    out.rates.assign(num_tasks, 0.0);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      out.rates[ids[k]] = s.rates[k];
    }
    steps.push_back(std::move(out));
  }
  return core::StepSchedule(num_tasks, std::move(steps));
}

/// WSEW order over a compact live view: w / remaining descending (the
/// weighted-shortest-estimated-work priority of the service admission
/// queue), ties by trace id for determinism.
std::vector<std::size_t> wsew_order(const LiveView& view) {
  std::vector<std::size_t> order(view.sub.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k] = k;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const core::Task& ta = view.sub.task(a);
    const core::Task& tb = view.sub.task(b);
    // w_a / V_a > w_b / V_b without dividing (volumes are positive for live
    // tasks, but stay safe for the zero-volume corner).
    const double lhs = ta.weight * tb.volume;
    const double rhs = tb.weight * ta.volume;
    if (lhs != rhs) {
      return lhs > rhs;
    }
    return view.ids[a] < view.ids[b];
  });
  return order;
}

/// Greedy-in-WSEW-order suffix, normalized by Water-Filling into the column
/// normal form (Theorem 8 guarantees normalization succeeds for any
/// completion vector the greedy schedule achieves).
core::StepSchedule wsew_plan(const ReplanContext& ctx) {
  const LiveView view = live_view(ctx);
  if (view.sub.size() == 0) {
    return core::StepSchedule(ctx.instance->size(), {});
  }
  const auto order = wsew_order(view);
  const auto greedy = core::greedy_schedule(view.sub, order);
  const auto completions = greedy.completions();
  const auto normal = core::water_fill(view.sub, completions);
  const core::StepSchedule sub_steps = normal.feasible
                                           ? core::to_steps(normal.schedule)
                                           : greedy;  // defensive fallback
  return lift_plan(sub_steps, view.ids, ctx.instance->size(), ctx.now);
}

class GreedyAppendPolicy final : public ReplanPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "greedy-append"; }
  [[nodiscard]] bool replan_on_completion() const override { return false; }

  [[nodiscard]] core::StepSchedule replan(const ReplanContext& ctx) override {
    const std::size_t n = ctx.instance->size();
    processors_ = ctx.instance->processors();
    if (placed_.size() < n) {
      placed_.resize(n, 0);
      pieces_.resize(n);
    }
    // Commit newly-arrived live tasks onto the running profile, in trace
    // order (= arrival order; ties broken by id).  Earlier commitments are
    // never revisited — that is the whole point of this policy.
    for (std::size_t i = 0; i < n; ++i) {
      if (ctx.live[i] == 0 || placed_[i] != 0) {
        continue;
      }
      place_after(ctx.now, ctx.instance->effective_width(i),
                  ctx.remaining[i], &pieces_[i]);
      placed_[i] = 1;
    }
    return build_suffix(ctx);
  }

 private:
  struct Segment {
    double begin = 0.0;
    double end = 0.0;
    double used = 0.0;
  };

  /// Algorithm-3 placement constrained to start no earlier than t0: the
  /// task runs at rate min(cap, P - used(t)) from t0 on, over the profile
  /// of everything committed so far.
  void place_after(double t0, double cap, double volume,
                   std::vector<core::ProfilePiece>* pieces) {
    pieces->clear();
    if (volume <= 0.0) {
      return;
    }
    const double P = processors_;
    // Ensure the profile covers [0, t0) so placement can index from t0.
    if (segments_.empty()) {
      segments_.push_back({0.0, t0, 0.0});
    } else if (segments_.back().end < t0) {
      segments_.push_back({segments_.back().end, t0, 0.0});
    }
    // Split the segment containing t0 so a boundary lands exactly on it.
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      if (segments_[k].begin < t0 && t0 < segments_[k].end) {
        Segment tail = segments_[k];
        tail.begin = t0;
        segments_[k].end = t0;
        segments_.insert(segments_.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                         tail);
        break;
      }
    }
    double left = volume;
    for (std::size_t k = 0; k < segments_.size() && left > 0.0; ++k) {
      Segment& seg = segments_[k];
      if (seg.end <= t0 || seg.end <= seg.begin) {
        continue;
      }
      const double rate = std::min(cap, P - seg.used);
      if (rate <= kRateEps) {
        continue;
      }
      const double len = seg.end - seg.begin;
      if (rate * len >= left) {
        // Completes inside this segment: split it at the crossing.
        const double span = left / rate;
        const double cut = seg.begin + span;
        if (cut < seg.end - 0.0) {
          Segment tail = seg;
          tail.begin = cut;
          seg.end = cut;
          segments_.insert(
              segments_.begin() + static_cast<std::ptrdiff_t>(k) + 1, tail);
        }
        segments_[k].used += rate;
        pieces->push_back({segments_[k].begin, segments_[k].end, rate});
        left = 0.0;
        break;
      }
      seg.used += rate;
      left -= rate * len;
      pieces->push_back({seg.begin, seg.end, rate});
    }
    if (left > 0.0) {
      // Past the committed horizon the machine is free: run flat out.
      const double rate = std::min(cap, P);
      const double begin = segments_.empty() ? t0 : segments_.back().end;
      const double end = begin + left / rate;
      segments_.push_back({begin, end, rate});
      pieces->push_back({begin, end, rate});
    }
    // Merge equal-used neighbours to keep the profile compact.
    std::size_t w = 0;
    for (std::size_t k = 0; k < segments_.size(); ++k) {
      if (w > 0 && segments_[w - 1].used == segments_[k].used &&
          segments_[w - 1].end == segments_[k].begin) {
        segments_[w - 1].end = segments_[k].end;
      } else {
        segments_[w++] = segments_[k];
      }
    }
    segments_.resize(w);
  }

  /// The plan from `now` on: every live task's committed pieces, clipped.
  [[nodiscard]] core::StepSchedule build_suffix(const ReplanContext& ctx) {
    const std::size_t n = ctx.instance->size();
    std::set<double> cuts{ctx.now};
    for (std::size_t i = 0; i < n; ++i) {
      if (ctx.live[i] == 0) {
        continue;
      }
      for (const core::ProfilePiece& piece : pieces_[i]) {
        if (piece.end > ctx.now) {
          cuts.insert(std::max(piece.begin, ctx.now));
          cuts.insert(piece.end);
        }
      }
    }
    const std::vector<double> times(cuts.begin(), cuts.end());
    std::vector<core::Step> steps;
    for (std::size_t k = 0; k + 1 < times.size(); ++k) {
      core::Step step;
      step.begin = times[k];
      step.end = times[k + 1];
      step.rates.assign(n, 0.0);
      steps.push_back(std::move(step));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (ctx.live[i] == 0) {
        continue;
      }
      for (const core::ProfilePiece& piece : pieces_[i]) {
        if (piece.end <= ctx.now) {
          continue;
        }
        const double begin = std::max(piece.begin, ctx.now);
        const auto first = std::lower_bound(times.begin(), times.end(), begin);
        for (std::size_t k = static_cast<std::size_t>(first - times.begin());
             k + 1 < times.size() && times[k] < piece.end; ++k) {
          steps[k].rates[i] = piece.rate;
        }
      }
    }
    return core::StepSchedule(n, std::move(steps));
  }

  static constexpr double kRateEps = 1e-12;

  double processors_ = 0.0;
  std::vector<Segment> segments_;
  std::vector<std::uint8_t> placed_;
  std::vector<std::vector<core::ProfilePiece>> pieces_;
};

class WsewReplanPolicy final : public ReplanPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "wsew-replan"; }

  [[nodiscard]] core::StepSchedule replan(const ReplanContext& ctx) override {
    return wsew_plan(ctx);
  }
};

class WdeqReplanPolicy final : public ReplanPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "wdeq-replan"; }

  [[nodiscard]] core::StepSchedule replan(const ReplanContext& ctx) override {
    const LiveView view = live_view(ctx);
    if (view.sub.size() == 0) {
      return core::StepSchedule(ctx.instance->size(), {});
    }
    const auto run = core::run_wdeq(view.sub);
    return lift_plan(run.schedule, view.ids, ctx.instance->size(), ctx.now);
  }
};

class ExactReplanPolicy final : public ReplanPolicy {
 public:
  explicit ExactReplanPolicy(const ExactReplanOptions& options)
      : options_(options) {}

  [[nodiscard]] std::string name() const override { return "exact-replan"; }
  [[nodiscard]] bool replan_on_completion() const override { return false; }

  [[nodiscard]] core::StepSchedule replan(const ReplanContext& ctx) override {
    const LiveView view = live_view(ctx);
    if (view.sub.size() == 0) {
      return core::StepSchedule(ctx.instance->size(), {});
    }
    if (view.sub.size() > options_.max_exact_tasks) {
      return wsew_plan(ctx);
    }
    core::BnbOptions bnb;
    bnb.want_schedule = true;
    if (ctx.cancel.can_cancel()) {
      bnb.cancel = ctx.cancel;
    } else if (options_.budget_seconds > 0.0) {
      bnb.cancel = core::CancelToken::with_deadline(
          core::CancelToken::Clock::now() +
          std::chrono::duration_cast<core::CancelToken::Clock::duration>(
              std::chrono::duration<double>(options_.budget_seconds)));
    }
    const auto result = core::branch_and_bound(view.sub, bnb);
    if (result.stats.lp_failures > 0 || result.order.empty()) {
      // An order LP broke down numerically; the schedule may be missing.
      return wsew_plan(ctx);
    }
    // Cancelled searches still carry the incumbent's schedule (the seeds
    // always run), so the plan stays feasible under any budget.
    return lift_plan(core::to_steps(result.schedule), view.ids,
                     ctx.instance->size(), ctx.now);
  }

 private:
  ExactReplanOptions options_;
};

}  // namespace

std::unique_ptr<ReplanPolicy> make_greedy_append_policy() {
  return std::make_unique<GreedyAppendPolicy>();
}

std::unique_ptr<ReplanPolicy> make_wsew_replan_policy() {
  return std::make_unique<WsewReplanPolicy>();
}

std::unique_ptr<ReplanPolicy> make_wdeq_replan_policy() {
  return std::make_unique<WdeqReplanPolicy>();
}

std::unique_ptr<ReplanPolicy> make_exact_replan_policy(
    const ExactReplanOptions& options) {
  return std::make_unique<ExactReplanPolicy>(options);
}

std::vector<std::unique_ptr<ReplanPolicy>> all_replan_policies() {
  std::vector<std::unique_ptr<ReplanPolicy>> policies;
  policies.push_back(make_greedy_append_policy());
  policies.push_back(make_wsew_replan_policy());
  policies.push_back(make_wdeq_replan_policy());
  policies.push_back(make_exact_replan_policy());
  return policies;
}

}  // namespace malsched::online
