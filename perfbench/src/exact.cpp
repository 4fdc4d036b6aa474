// Workload `exact`: `optimal` on distinct seeded instances through a
// 2-worker Scheduler in its production options, closed loop with two
// outstanding requests (one client thread each).
//
// The stream cycles through a fixed list of instance classes, so every run
// serves the same mix and only the drawn values change with the seed.  The
// classes straddle the enumeration crossover of core::optimal_by_enumeration
// (n <= 7 walks all n! order LPs, n >= 8 runs branch-and-bound) and include
// repeated-shape instances on which the identical-shape exchange cut prunes.
// Families whose B&B cost is heavy-tailed at these sizes (equal-weights-
// volumes, homogeneous-half, unit-width, uniform at n >= 8) are left out so
// that no single request dominates a run.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "malsched/core/bnb.hpp"
#include "malsched/core/generators.hpp"
#include "malsched/core/optimal.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/service/canonical.hpp"
#include "malsched/service/scheduler.hpp"
#include "malsched/service/solver_registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = malsched::core;
namespace service = malsched::service;
namespace support = malsched::support;

struct ExactClass {
  bool structured;  ///< repeated-shape instance instead of a generator family
  core::Family family;
  std::size_t n;
};

// One cycle of the request stream.  Measured single-thread means on a 4-core
// x86 VM: enumeration n=5 ~10 ms; B&B wide-tasks n=8 ~35 ms, bandwidth-like
// n=8 ~10 ms, structured n=9/10 ~20 ms.  n=6 enumeration (~80 ms) is left
// out: it would halve the requests per run for no new code path.
constexpr ExactClass kClasses[] = {
    {false, core::Family::Uniform, 5},
    {false, core::Family::WideTasks, 8},
    {true, core::Family::Uniform, 9},
    {false, core::Family::UniformIntegral, 5},
    {false, core::Family::BandwidthLike, 8},
    {false, core::Family::WideTasks, 8},
    {true, core::Family::Uniform, 10},
    {false, core::Family::HeavyTailVolumes, 5},
};
constexpr std::size_t kNumClasses = sizeof kClasses / sizeof kClasses[0];

constexpr unsigned kWorkers = 2;
constexpr unsigned kOutstanding = 2;
constexpr std::size_t kSetupReps = 31;
constexpr std::size_t kMaxRequests = std::size_t{1} << 14;
/// Six stream cycles: the fixed probe set of the traced run.
constexpr std::size_t kProbeRequests = 6 * kNumClasses;
/// Memory is sampled when this request completes: every request adds a
/// cache entry, so a fixed request count keeps peak_rss_mb independent of
/// throughput.
constexpr std::size_t kRssAfter = 600;

/// Two interleaved shape classes (tall-narrow and short-wide, like
/// bench_bnb's structured fixture) with geometric weight spreads, plus one
/// odd task for odd n.  Identical shapes under distinct weights are what
/// the exchange cut prunes.
core::Instance structured_instance(support::Rng& rng, std::size_t n) {
  const double tall_volume = rng.uniform(0.5, 2.0);
  const double tall_width = static_cast<double>(rng.uniform_int(1, 2));
  const double wide_volume = rng.uniform(0.5, 2.0);
  const double wide_width = static_cast<double>(rng.uniform_int(3, 4));
  const double tall_ratio = rng.uniform(1.3, 2.0);
  const double wide_ratio = rng.uniform(1.3, 2.0);
  std::vector<core::Task> tasks;
  const std::size_t pairs = n / 2;
  for (std::size_t j = 0; j < pairs; ++j) {
    tasks.push_back(
        {tall_volume, tall_width, std::pow(tall_ratio, static_cast<double>(j))});
    tasks.push_back({wide_volume, wide_width,
                     0.9 * std::pow(wide_ratio,
                                    static_cast<double>(pairs - 1 - j))});
  }
  if (n % 2 == 1) {
    tasks.push_back({rng.uniform(0.5, 2.0),
                     static_cast<double>(rng.uniform_int(1, 4)),
                     rng.uniform(0.5, 4.0)});
  }
  return core::Instance(4.0, std::move(tasks));
}

core::Instance exact_instance(std::uint64_t seed, std::size_t index) {
  const ExactClass& shape = kClasses[index % kNumClasses];
  support::Rng rng = item_rng(seed, kExactStream, index);
  if (shape.structured) {
    return structured_instance(rng, shape.n);
  }
  core::GeneratorConfig config;
  config.family = shape.family;
  config.num_tasks = shape.n;
  config.processors = 4.0;
  return generate_conditioned(config, rng);
}

struct Served {
  bool done = false;
  bool ok = false;
  bool cache_hit = false;
  double objective = 0.0;
  double latency = 0.0;  ///< SolveResult::latency_seconds
  Clock::time_point submit_begin{};
  Clock::time_point got{};
  std::string error;
};

struct Window {
  std::vector<Served> served = std::vector<Served>(kMaxRequests);
  std::size_t issued = 0;  ///< stream indices [0, issued) were submitted
  SlicedWindow sliced{Clock::time_point{}, 1.0};
  double rps = 0.0;
  double setup_seconds = 0.0;
  double peak_rss_mb = 0.0;
  service::CacheStats cache;
};

/// The registry and the production-options Scheduler serving from it.
struct Service {
  service::SolverRegistry registry =
      service::SolverRegistry::with_default_solvers();
  service::Scheduler scheduler{registry, [] {
                                 service::Scheduler::Options options;
                                 options.threads = kWorkers;
                                 return options;
                               }()};
};

/// Sets up (timed kSetupReps times; the last set-up serves) and runs one
/// closed-loop window of `seconds`.
std::unique_ptr<Window> serve(const Options& options, Tracer& tracer) {
  auto window = std::make_unique<Window>();
  auto setup = timed_setup<Service>(
      kSetupReps, [] { return std::make_unique<Service>(); });
  window->setup_seconds = setup.second;
  service::Scheduler& scheduler = setup.first->scheduler;

  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= kMaxRequests || Clock::now() >= deadline) {
        return;
      }
      auto handle = service::intern(exact_instance(options.seed, i));
      Served& served = window->served[i];
      const std::int64_t request_span = tracer.begin("request", i);
      served.submit_begin = Clock::now();
      const std::int64_t submit_span =
          tracer.begin("service.submit", i, request_span);
      service::Ticket ticket = scheduler.submit("optimal", std::move(handle));
      tracer.end(submit_span);
      service::SolveResult result = ticket.get();
      served.got = Clock::now();
      tracer.end(request_span);
      served.ok = result.ok();
      served.cache_hit = result.cache_hit;
      served.latency = result.latency_seconds;
      served.objective = result.ok() ? result.objective() : 0.0;
      served.error = result.ok() ? "" : result.error().to_string();
      served.done = true;
      if (i == kRssAfter) {
        window->peak_rss_mb = self_peak_rss_mb();
      }
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kOutstanding; ++c) {
    clients.emplace_back(client);
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  if (window->peak_rss_mb == 0.0) {
    window->peak_rss_mb = self_peak_rss_mb();
  }
  window->issued = std::min(next.load(), kMaxRequests);
  window->sliced = SlicedWindow(start, options.seconds);
  for (std::size_t i = 0; i < window->issued; ++i) {
    const Served& served = window->served[i];
    if (served.done) {
      window->sliced.add(served.got, served.latency);
    }
  }
  // About fifty completions per rate slice are too few for a slice median;
  // the whole window's count is the steadier figure here.
  window->rps = static_cast<double>(window->sliced.count()) / options.seconds;
  window->cache = scheduler.cache_stats();
  return window;
}

/// Objective of a direct core::branch_and_bound per stream index.
std::vector<double> reference_objectives(std::uint64_t seed,
                                         std::size_t count) {
  std::vector<double> objectives(count, 0.0);
  parallel_for(count, kCheckThreads, [&](std::size_t i) {
    objectives[i] = core::branch_and_bound(exact_instance(seed, i)).objective;
  });
  return objectives;
}

/// Checks every served request of `window` against the references; returns
/// Σ served / reference over the checked requests.
double check_window(const Window& window, const std::vector<double>& reference,
                    const char* label, Report& report, std::size_t* checked) {
  const double slack = core::BnbOptions{}.bound_slack;
  std::size_t failed = 0;
  double ratio_sum = 0.0;
  *checked = 0;
  for (std::size_t i = 0; i < window.issued; ++i) {
    const Served& served = window.served[i];
    if (!served.done) {
      continue;
    }
    ++*checked;
    if (!served.ok) {
      ++failed;
      report.fail(std::string(label) + " request " + std::to_string(i) +
                  " failed: " + served.error);
    } else if (!agrees(served.objective, reference[i], slack)) {
      ++failed;
      report.fail(std::string(label) + " request " + std::to_string(i) +
                  " objective " + std::to_string(served.objective) +
                  " differs from branch_and_bound " +
                  std::to_string(reference[i]));
    } else {
      ratio_sum += served.objective / reference[i];
    }
  }
  report.add_requests(*checked, failed);
  return ratio_sum;
}

/// Deterministic counts of one probe pass (compared between two passes).
struct ProbeCounts {
  core::BnbStats bnb;
  std::size_t enum_orders = 0;

  [[nodiscard]] bool operator==(const ProbeCounts& other) const {
    return bnb.nodes == other.bnb.nodes && bnb.leaves == other.bnb.leaves &&
           bnb.lp_evaluations == other.bnb.lp_evaluations &&
           bnb.pruned_by_bound == other.bnb.pruned_by_bound &&
           bnb.pruned_by_cut == other.bnb.pruned_by_cut &&
           bnb.pruned_by_dominance == other.bnb.pruned_by_dominance &&
           enum_orders == other.enum_orders;
  }
};

/// Times each layer's public calls on the probe set, one request at a time.
/// With a disabled tracer it only recomputes the counts.
ProbeCounts probe(std::uint64_t seed, const service::SolverRegistry& registry,
                  Tracer& tracer) {
  ProbeCounts counts;
  const service::SolverRegistry::SolverInfo* optimal = registry.find("optimal");
  for (std::size_t i = 0; i < kProbeRequests; ++i) {
    const core::Instance instance = exact_instance(seed, i);
    if (tracer.enabled()) {
      {
        const SpanScope span(tracer, "service.canonicalize", i);
        service::CanonicalOptions canonical;
        canonical.permute = optimal->order_invariant;
        const std::string text =
            service::canonical_text(service::canonicalize(instance, canonical));
        (void)text;
      }
      {
        const SpanScope span(tracer, "service.solve.optimal", i);
        (void)registry.solve("optimal", instance);
      }
      const SpanScope path(tracer, "core.order_lp.smith_path", i);
      core::OrderLpEvaluator evaluator(instance);
      for (const std::size_t task : core::smith_order(instance)) {
        const SpanScope push(tracer, "core.order_lp.push", i, path.id());
        (void)evaluator.push(task, /*exact=*/false);
      }
    }
    if (instance.size() > core::OptimalOptions{}.enumeration_crossover) {
      const SpanScope span(tracer, "core.branch_and_bound", i);
      const core::BnbStats stats = core::branch_and_bound(instance).stats;
      counts.bnb.nodes += stats.nodes;
      counts.bnb.leaves += stats.leaves;
      counts.bnb.lp_evaluations += stats.lp_evaluations;
      counts.bnb.pruned_by_bound += stats.pruned_by_bound;
      counts.bnb.pruned_by_cut += stats.pruned_by_cut;
      counts.bnb.pruned_by_dominance += stats.pruned_by_dominance;
    } else {
      const SpanScope span(tracer, "core.optimal_by_enumeration", i);
      counts.enum_orders += core::optimal_by_enumeration(instance).orders_tried;
    }
  }
  return counts;
}

void report_probe(const ProbeCounts& counts, const Tracer& tracer,
                  Report& report) {
  const auto count = [&](const char* name, std::size_t value) {
    report.set(name, static_cast<double>(value), 1);
  };
  count("core.bnb.nodes", counts.bnb.nodes);
  count("core.bnb.leaves", counts.bnb.leaves);
  count("core.bnb.lp_evaluations", counts.bnb.lp_evaluations);
  count("core.bnb.pruned_by_bound", counts.bnb.pruned_by_bound);
  count("core.bnb.pruned_by_cut", counts.bnb.pruned_by_cut);
  count("core.bnb.pruned_by_dominance", counts.bnb.pruned_by_dominance);
  count("core.enum.orders", counts.enum_orders);
  const auto bnb_us = tracer.durations_us("core.branch_and_bound");
  const auto enum_us = tracer.durations_us("core.optimal_by_enumeration");
  report.set("core.bnb.us_per_node",
             counts.bnb.nodes == 0
                 ? 0.0
                 : tracer.total_us("core.branch_and_bound") /
                       static_cast<double>(counts.bnb.nodes),
             bnb_us.size(), "branch_and_bound span / nodes");
  report.set("core.enum.us_per_order",
             counts.enum_orders == 0
                 ? 0.0
                 : tracer.total_us("core.optimal_by_enumeration") /
                       static_cast<double>(counts.enum_orders),
             enum_us.size(), "optimal_by_enumeration span / orders");
  report_p50(report, "core.order_lp.push_us_p50",
             tracer.durations_us("core.order_lp.push"));
  report_p50(report, "service.canonicalize_us_p50",
             tracer.durations_us("service.canonicalize"));
  report_p50(report, "service.solve_us_p50.optimal",
             tracer.durations_us("service.solve.optimal"));
}

/// Reconciles the traced window's spans with latency_seconds: the
/// Scheduler's interval lies inside the client's submit..get() span, and on
/// the probe set the queue wait (latency minus the direct solve) is not
/// negative beyond half the solve plus 1 ms of timing noise.
std::vector<double> reconcile(const Window& window, const Tracer& tracer,
                              Report& report) {
  const auto solve_us = tracer.durations_us("service.solve.optimal");
  std::vector<double> queue_wait_us;
  std::size_t violations = 0;
  for (std::size_t i = 0; i < window.issued; ++i) {
    const Served& served = window.served[i];
    if (!served.done) {
      continue;
    }
    const double client = seconds_between(served.submit_begin, served.got);
    if (served.latency > client + 1e-6) {
      ++violations;
    }
    if (i < solve_us.size() && served.ok && !served.cache_hit) {
      const double wait = served.latency * 1e6 - solve_us[i];
      queue_wait_us.push_back(wait);
      if (wait < -(0.5 * solve_us[i] + 1000.0)) {
        ++violations;
      }
    }
  }
  report.note("reconcile: latency_seconds inside the client span (+1 us) on " +
              std::to_string(window.issued) +
              " requests; queue wait >= -(solve/2 + 1 ms) on " +
              std::to_string(queue_wait_us.size()) + " probe requests; " +
              std::to_string(violations) + " violations");
  if (violations > 0) {
    report.fail("span reconciliation: " + std::to_string(violations) +
                " requests outside tolerance");
  }
  for (double& wait : queue_wait_us) {
    wait = std::max(wait, 0.0);
  }
  return queue_wait_us;
}

}  // namespace

void run_exact(const Options& options, Report& report) {
  report.note("closed loop: " + std::to_string(kOutstanding) +
              " client threads x 1 outstanding `optimal` request, " +
              std::to_string(kWorkers) + "-worker Scheduler (production "
              "options); stream cycles " +
              std::to_string(kNumClasses) + " instance classes");
  Tracer off(false);
  const auto untraced = serve(options, off);
  std::unique_ptr<Window> traced;
  Tracer tracer(true);
  if (options.trace) {
    traced = serve(options, tracer);
  }

  const std::size_t reference_count =
      std::max(untraced->issued, traced ? traced->issued : 0);
  const std::vector<double> reference =
      reference_objectives(options.seed, reference_count);
  std::size_t checked = 0;
  const double ratio_sum =
      check_window(*untraced, reference, "untraced", report, &checked);

  if (!options.trace) {
    report.set("throughput_rps", untraced->rps, untraced->sliced.count(),
               "requests completed in the window / window seconds");
    report_latency(report, untraced->sliced, 0.9);
    report.set("competitive_ratio",
               checked == 0 ? 0.0 : ratio_sum / static_cast<double>(checked),
               checked, "served optimum / direct branch_and_bound");
    report.set("setup_s", untraced->setup_seconds, kSetupReps,
               "median of registry + Scheduler construction");
    report.set("peak_rss_mb", untraced->peak_rss_mb, 1,
               "after " + std::to_string(kRssAfter) + " requests");
    return;
  }

  std::size_t traced_checked = 0;
  (void)check_window(*traced, reference, "traced", report, &traced_checked);
  const auto registry = service::SolverRegistry::with_default_solvers();
  const ProbeCounts first = probe(options.seed, registry, tracer);
  Tracer counts_only(false);
  const ProbeCounts second = probe(options.seed, registry, counts_only);
  if (!(first == second)) {
    report.fail("core.bnb/core.enum counts differ between two passes of seed " +
                std::to_string(options.seed));
  }
  report_probe(first, tracer, report);
  std::vector<double> queue_wait = reconcile(*traced, tracer, report);
  report_p50(report, "service.queue_wait_us_p50", queue_wait);
  const auto p99 = percentile(queue_wait, 0.99);
  report.set("service.queue_wait_us_p99", p99 ? *p99 : 0.0, queue_wait.size(),
             p99 ? "" : "too few samples for p99");
  report_p50(report, "service.submit_us_p50",
             tracer.durations_us("service.submit"));
  std::vector<double> hit_us;
  for (std::size_t i = 0; i < traced->issued; ++i) {
    if (traced->served[i].done && traced->served[i].cache_hit) {
      hit_us.push_back(traced->served[i].latency * 1e6);
    }
  }
  report_p50(report, "service.hit_us_p50", hit_us);
  report_cache(report, traced->cache);
  report_trace(options, tracer, untraced->rps, traced->rps, report);
}

}  // namespace perfbench
