// Workload `online_replay`: one thread making back-to-back online::replay
// calls, each over a seeded arrival trace under a fresh replanning policy,
// priced against online::offline_baseline.
//
// The replays cycle through a fixed set of (trace, policy) pairs: three
// trace families x four sizes (n = 30..60) x three policies.  exact-replan
// is left out because its wall-clock budget makes its output timing
// dependent; at n >= 30 the baseline is the released lower bound, which
// costs nothing, so the window measures replays only.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "malsched/core/instance.hpp"
#include "malsched/online/baseline.hpp"
#include "malsched/online/clock.hpp"
#include "malsched/online/replan.hpp"
#include "malsched/online/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = malsched::core;
namespace online = malsched::online;

constexpr online::TraceFamily kFamilies[] = {
    online::TraceFamily::PoissonBursts, online::TraceFamily::Diurnal,
    online::TraceFamily::AdversarialSpike};
constexpr std::size_t kTaskCounts[] = {30, 40, 50, 60};
constexpr std::size_t kTraces = 480;
constexpr std::size_t kPolicies = 3;
constexpr std::size_t kPairs = kTraces * kPolicies;
constexpr std::size_t kSetupReps = 21;
constexpr std::size_t kSetupBatch = 100;

std::unique_ptr<online::ReplanPolicy> make_policy(std::size_t which) {
  switch (which) {
    case 0: return online::make_greedy_append_policy();
    case 1: return online::make_wsew_replan_policy();
    default: return online::make_wdeq_replan_policy();
  }
}

struct TraceCase {
  online::ArrivalTrace trace;
  core::Instance batch;   ///< the trace's closed-batch instance
  double baseline = 0.0;  ///< offline_baseline objective
};

std::vector<TraceCase> make_traces(std::uint64_t seed) {
  std::vector<TraceCase> traces;
  traces.reserve(kTraces);
  for (std::size_t t = 0; t < kTraces; ++t) {
    online::TraceConfig config;
    config.family = kFamilies[t % 3];
    config.num_tasks = kTaskCounts[(t / 3) % 4];
    config.processors = 4.0;
    auto rng = item_rng(seed, kOnlineStream, t);
    online::ArrivalTrace trace = online::generate_trace(config, rng);
    core::Instance batch = trace.to_instance();
    const double baseline = online::offline_baseline(trace).objective;
    traces.push_back(TraceCase{std::move(trace), std::move(batch), baseline});
  }
  return traces;
}

/// Delegating policy that records one span per replan.
class TimedPolicy final : public online::ReplanPolicy {
 public:
  TimedPolicy(std::unique_ptr<online::ReplanPolicy> inner, Tracer& tracer,
              std::uint64_t request, std::int64_t parent)
      : inner_(std::move(inner)),
        tracer_(tracer),
        request_(request),
        parent_(parent) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool replan_on_completion() const override {
    return inner_->replan_on_completion();
  }
  [[nodiscard]] core::StepSchedule replan(
      const online::ReplanContext& context) override {
    const SpanScope span(tracer_, "online.replan", request_, parent_);
    return inner_->replan(context);
  }

 private:
  std::unique_ptr<online::ReplanPolicy> inner_;
  Tracer& tracer_;
  std::uint64_t request_;
  std::int64_t parent_;
};

struct Window {
  SlicedWindow sliced{Clock::time_point{}, 1.0};
  std::vector<double> first_objective;  ///< ΣwC of each pair's first replay
  std::size_t replays = 0;
  double rps = 0.0;
  double peak_rss_mb = 0.0;
};

Window serve(const Options& options, const std::vector<TraceCase>& traces,
             Tracer& tracer) {
  Window window;
  window.first_objective.assign(kPairs, -1.0);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  window.sliced = SlicedWindow(start, options.seconds);
  for (std::size_t j = 0;; ++j) {
    const auto begin = Clock::now();
    if (begin >= deadline) {
      break;
    }
    const std::size_t pair = j % kPairs;
    const std::int64_t span = tracer.begin("online.replay", j);
    std::unique_ptr<online::ReplanPolicy> policy = make_policy(pair % kPolicies);
    if (tracer.enabled()) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), tracer, j, span);
    }
    const online::ReplayResult result =
        online::replay(traces[pair / kPolicies].trace, *policy);
    const auto end = Clock::now();
    tracer.end(span);
    window.sliced.add(end, seconds_between(begin, end));
    if (j < kPairs) {
      window.first_objective[pair] = result.weighted_completion;
    }
    ++window.replays;
  }
  window.rps = window.sliced.median_rate();
  window.peak_rss_mb = self_peak_rss_mb();
  return window;
}

/// Deterministic outcome of replaying every pair once.
struct Pass {
  double ratio_sum = 0.0;
  std::size_t replans = 0;
  std::size_t events = 0;
  std::vector<double> objective;  ///< per pair
  std::vector<std::string> problems;

  [[nodiscard]] bool same_counts(const Pass& other) const {
    return ratio_sum == other.ratio_sum && replans == other.replans &&
           events == other.events && objective == other.objective;
  }
};

/// Replays every pair (four threads), validating each executed schedule
/// against the trace's batch instance and its ΣwC against the baseline.
Pass check_pass(const std::vector<TraceCase>& traces) {
  Pass pass;
  pass.objective.assign(kPairs, 0.0);
  std::vector<std::size_t> replans(kPairs, 0);
  std::vector<std::size_t> events(kPairs, 0);
  std::vector<std::string> problem(kPairs);
  parallel_for(kPairs, kCheckThreads, [&](std::size_t pair) {
    const TraceCase& item = traces[pair / kPolicies];
    auto policy = make_policy(pair % kPolicies);
    const online::ReplayResult result = online::replay(item.trace, *policy);
    pass.objective[pair] = result.weighted_completion;
    replans[pair] = result.replans;
    events[pair] = result.events;
    const core::Validation valid = result.schedule.validate(item.batch);
    if (!valid) {
      problem[pair] = "schedule invalid: " + valid.message;
    } else if (result.weighted_completion < item.baseline * (1.0 - 1e-9)) {
      problem[pair] = "objective " + std::to_string(result.weighted_completion) +
                      " below the baseline " + std::to_string(item.baseline);
    }
  });
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    const double baseline = traces[pair / kPolicies].baseline;
    pass.ratio_sum += pass.objective[pair] / baseline;
    pass.replans += replans[pair];
    pass.events += events[pair];
    if (!problem[pair].empty()) {
      pass.problems.push_back("pair " + std::to_string(pair) + ": " +
                              problem[pair]);
    }
  }
  return pass;
}

/// Counts the window's replays as requests: a replay fails when its pair
/// failed the check or its ΣwC differs from the check pass's replay.
void check_window(const Window& window, const Pass& pass, const char* label,
                  Report& report) {
  std::size_t failed = 0;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    const double served = window.first_objective[pair];
    if (served >= 0.0 && served != pass.objective[pair]) {
      ++failed;
      report.fail(std::string(label) + " pair " + std::to_string(pair) +
                  " replayed to a different objective");
    }
  }
  for (const std::string& problem : pass.problems) {
    ++failed;
    report.fail(std::string(label) + " " + problem);
  }
  report.add_requests(window.replays, std::min(failed, window.replays));
}

}  // namespace

void run_online_replay(const Options& options, Report& report) {
  report.note("closed loop: 1 thread, back-to-back online::replay over " +
              std::to_string(kTraces) + " seeded traces x " +
              std::to_string(kPolicies) +
              " policies (greedy-append, wsew-replan, wdeq-replan)");
  const std::vector<TraceCase> traces = make_traces(options.seed);

  // Set-up of this workload is building the replanning policies; one build
  // takes well under a microsecond, so each rep times a batch of builds.
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    for (std::size_t b = 0; b < kSetupBatch; ++b) {
      for (std::size_t p = 0; p < kPolicies; ++p) {
        auto policy = make_policy(p);
        (void)policy;
      }
    }
    setup_times.push_back(seconds_between(start, Clock::now()) /
                          static_cast<double>(kSetupBatch));
  }
  std::sort(setup_times.begin(), setup_times.end());

  Tracer off(false);
  const Window untraced = serve(options, traces, off);
  const Pass pass = check_pass(traces);
  check_window(untraced, pass, "untraced", report);
  if (!options.trace) {
    report.set("throughput_rps", untraced.rps, untraced.sliced.count(),
               SlicedWindow::kRateDescription);
    report_latency(report, untraced.sliced, 0.99);
    report.set("competitive_ratio",
               pass.ratio_sum / static_cast<double>(kPairs), kPairs,
               "mean replay ΣwC / offline_baseline over every pair");
    report.set("setup_s", setup_times[setup_times.size() / 2], kSetupReps,
               "median of building the three replanning policies");
    report.set("peak_rss_mb", untraced.peak_rss_mb, 1);
    return;
  }

  Tracer tracer(true);
  const Window traced = serve(options, traces, tracer);
  check_window(traced, pass, "traced", report);
  const Pass second = check_pass(traces);
  if (!pass.same_counts(second)) {
    report.fail("online replans/events/competitive ratio differ between two "
                "passes of seed " + std::to_string(options.seed));
  }
  const auto replan_us = tracer.durations_us("online.replan");
  report_p50(report, "online.replan_us_p50", replan_us);
  const auto p99 = percentile(replan_us, 0.99);
  report.set("online.replan_us_p99", p99 ? *p99 : 0.0, replan_us.size(),
             p99 ? "" : "too few samples for p99");
  report.set("online.replans", static_cast<double>(pass.replans), kPairs,
             "summed over one replay of every pair");
  report.set("online.events", static_cast<double>(pass.events), kPairs,
             "summed over one replay of every pair");
  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::vector<double> clock_self_us;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == "online.replay") {
      clock_self_us.push_back(static_cast<double>(self[i]) * 1e-3);
    }
  }
  report_p50(report, "online.clock_self_us_p50", clock_self_us);
  report_trace(options, tracer, untraced.rps, traced.rps, report);
}

}  // namespace perfbench
