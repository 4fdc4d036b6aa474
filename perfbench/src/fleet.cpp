// Workload `fleet_miss`: ShardRouter::run over two forked shards on the
// default data plane (shm rings, binary dialect), one scheduler thread per
// worker, closed loop through the router's per-worker in-flight window.
//
// Every request is a distinct instance, so every request misses the cache.
// Most are cheap solves (the fluid policies, plus greedy-heuristic); every
// 256th is order-lp-smith at n = 24, a dense
// simplex solve of ~15 ms whose ring placement decides how evenly the two
// workers are loaded.  Routers are built while the process has no other
// thread, per the fork-without-exec rule of router.hpp.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "malsched/core/generators.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/lp/solver.hpp"
#include "malsched/service/canonical.hpp"
#include "malsched/service/scheduler.hpp"
#include "malsched/service/service.hpp"
#include "malsched/service/solver_registry.hpp"
#include "malsched/shard/router.hpp"
#include "malsched/shard/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = malsched::core;
namespace lp = malsched::lp;
namespace service = malsched::service;
namespace shard = malsched::shard;
namespace support = malsched::support;
namespace wire = malsched::shard::wire;

constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 2048;
constexpr std::size_t kHeavyEvery = 256;
constexpr std::size_t kHeavyTasks = 24;
constexpr const char* kHeavySolver = "order-lp-smith";
/// water-fill-smith is not served: it fails typed ("water-fill
/// normalization infeasible") on a small share of generator instances, and
/// no benchmark workload may fail.  The probe still times it directly.
constexpr const char* kCheapSolvers[] = {"wdeq", "deq", "wrr", "wdeq",
                                         "deq",  "wrr", "wdeq",
                                         "greedy-heuristic"};
constexpr const char* kUnservedSolver = "water-fill-smith";
constexpr std::size_t kNumCheap = sizeof kCheapSolvers / sizeof kCheapSolvers[0];
constexpr core::Family kFamilies[] = {
    core::Family::Uniform, core::Family::BandwidthLike,
    core::Family::HeavyTailVolumes, core::Family::EqualWeights};
constexpr std::size_t kSetupReps = 15;
constexpr std::size_t kProbeRequests = 4 * kBatch;
/// Memory is sampled after this many batches rather than at the window end:
/// the workers' caches and token memos grow with every request served, so a
/// fixed request count keeps peak_rss_mb independent of throughput.
constexpr std::size_t kRssAfterBatches = 16;

struct Request {
  core::Instance instance;
  const char* solver;
};

Request fleet_request(std::uint64_t seed, std::size_t index) {
  support::Rng rng = item_rng(seed, kFleetStream, index);
  core::GeneratorConfig config;
  if (index % kHeavyEvery == 0) {
    config.family = core::Family::Uniform;
    config.num_tasks = kHeavyTasks;
    config.processors = 8.0;
    return Request{generate_conditioned(config, rng), kHeavySolver};
  }
  config.family = kFamilies[index % 4];
  config.num_tasks = 4 + 2 * ((index / kNumCheap) % 7);
  config.processors = static_cast<double>(std::size_t{2} << ((index / 3) % 4));
  return Request{generate_conditioned(config, rng), kCheapSolvers[index % kNumCheap]};
}

/// Batch slot names repeat across batches, so each worker re-primes the
/// same names instead of accumulating one interned instance per request.
std::string instance_name(std::size_t index) {
  std::string name = "s";
  name += std::to_string(index % kBatch);
  return name;
}

service::BatchSpec make_batch(std::uint64_t seed, std::size_t batch) {
  service::BatchSpec spec;
  for (std::size_t i = batch * kBatch; i < (batch + 1) * kBatch; ++i) {
    Request request = fleet_request(seed, i);
    const std::string name = instance_name(i);
    spec.instances.emplace(name, std::move(request.instance));
    service::BatchSpec::Request line;
    line.solver = request.solver;
    line.instance_name = name;
    line.line = i - batch * kBatch + 1;
    spec.requests.push_back(std::move(line));
  }
  return spec;
}

std::vector<std::string> result_lines(const service::ServiceReport& report) {
  std::vector<std::string> lines;
  std::istringstream in(service::format_results(report));
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// The served-result log: one record per request, in stream order.
struct Record {
  std::uint64_t line_hash = 0;  ///< of its format_results line
  double objective = 0.0;
  bool ok = false;
};

struct Window {
  std::vector<Record> records;
  /// Latencies on a timeline of router time (batch generation excluded).
  SlicedWindow sliced{Clock::time_point{}, 1.0};
  std::vector<double> batch_rps;
  std::size_t batches = 0;
  double setup_seconds = 0.0;
  double peak_rss_mb = 0.0;
  double max_share = 0.0;  ///< busiest worker's share of the probe set
  service::CacheStats cache;
  shard::TransportStats transport;
  shard::DataPlaneStats plane;
};

double placement_max_share(std::uint64_t seed, const shard::ShardRouter& router) {
  std::vector<std::size_t> owned(kShards, 0);
  for (std::size_t i = 0; i < kProbeRequests; ++i) {
    const auto handle = service::intern(fleet_request(seed, i).instance);
    ++owned[router.owner_of(handle.key())];
  }
  return static_cast<double>(*std::max_element(owned.begin(), owned.end())) /
         static_cast<double>(kProbeRequests);
}

/// Peak resident memory of the router process plus its workers, in MB.
double fleet_rss_mb(const shard::ShardRouter& router) {
  double mb = self_peak_rss_mb();
  for (std::size_t w = 0; w < kShards; ++w) {
    mb += process_peak_rss_mb(router.pid_of(w));
  }
  return mb;
}

/// The registry and the router whose forked workers serve from it.
struct Fleet {
  explicit Fleet(const shard::RouterOptions& options)
      : router(registry, options) {}

  service::SolverRegistry registry =
      service::SolverRegistry::with_default_solvers();
  shard::ShardRouter router;
};

/// Sets up (timed kSetupReps times; the last router serves), then streams
/// batches until `seconds` of router time have elapsed.  Must run while the
/// process has no thread besides the caller.
std::unique_ptr<Window> serve(const Options& options, Tracer& tracer) {
  auto window = std::make_unique<Window>();
  shard::RouterOptions router_options;
  router_options.shards = kShards;
  router_options.worker.threads = 1;
  auto setup = timed_setup<Fleet>(kSetupReps, [&] {
    return std::make_unique<Fleet>(router_options);
  });
  window->setup_seconds = setup.second;
  shard::ShardRouter& router = setup.first->router;

  double elapsed = 0.0;
  window->sliced = SlicedWindow(Clock::time_point{}, options.seconds);
  while (elapsed < options.seconds) {
    const service::BatchSpec batch = make_batch(options.seed, window->batches);
    const std::int64_t span = tracer.begin("shard.run", window->batches);
    const auto start = Clock::now();
    const service::ServiceReport report = router.run(batch);
    const double seconds = seconds_between(start, Clock::now());
    tracer.end(span);
    const auto batch_start = Clock::time_point{} +
                             std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(elapsed));
    elapsed += seconds;
    window->batch_rps.push_back(static_cast<double>(report.results.size()) /
                                seconds);
    const std::vector<std::string> lines = result_lines(report);
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const service::SolveResult& result = report.results[i];
      Record record;
      record.line_hash = i < lines.size() ? fnv1a(lines[i]) : 0;
      record.ok = result.ok();
      record.objective = result.ok() ? result.objective() : 0.0;
      window->records.push_back(record);
      window->sliced.add(batch_start, result.latency_seconds);
    }
    if (++window->batches == kRssAfterBatches) {
      window->peak_rss_mb = fleet_rss_mb(router);
    }
  }
  if (window->peak_rss_mb == 0.0) {
    window->peak_rss_mb = fleet_rss_mb(router);
  }
  window->max_share = placement_max_share(options.seed, router);
  window->cache = router.fleet_cache_summary().total;
  window->transport = router.transport_stats();
  for (std::size_t w = 0; w < kShards; ++w) {
    if (const auto plane = router.data_plane_stats(w)) {
      window->plane.plane = plane->plane;
      window->plane.frames_out += plane->frames_out;
      window->plane.frames_in += plane->frames_in;
      window->plane.bytes_out += plane->bytes_out;
      window->plane.bytes_in += plane->bytes_in;
      window->plane.producer_sleeps += plane->producer_sleeps;
      window->plane.consumer_sleeps += plane->consumer_sleeps;
      window->plane.wakes += plane->wakes;
    }
  }
  return window;
}

/// Checks each batch against single-process run_service: result lines must
/// be byte-identical.  Returns Σ sharded / single-process objective.
double check(const Window& window, std::uint64_t seed,
             const service::SolverRegistry& registry, const char* label,
             Report& report) {
  service::ServiceOptions single;
  single.threads = kCheckThreads;
  std::size_t failed = 0;
  std::size_t ok = 0;
  double ratio_sum = 0.0;
  for (std::size_t b = 0; b < window.batches; ++b) {
    const service::ServiceReport reference =
        service::run_service(make_batch(seed, b), registry, single);
    const std::vector<std::string> lines = result_lines(reference);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const Record& served = window.records[b * kBatch + i];
      const bool same = i < lines.size() && fnv1a(lines[i]) == served.line_hash;
      if (!served.ok || !same) {
        if (++failed <= 5) {
          report.fail(std::string(label) + " request " +
                      std::to_string(b * kBatch + i) +
                      (same ? " failed: " : " differs from run_service: ") +
                      (i < lines.size() ? lines[i] : std::string("(missing)")));
        }
        continue;
      }
      ++ok;
      const double single_objective = reference.results[i].objective();
      ratio_sum += single_objective > 0.0 ? served.objective / single_objective
                                          : 1.0;
    }
  }
  report.add_requests(window.batches * kBatch, failed);
  return ok == 0 ? 0.0 : ratio_sum / static_cast<double>(ok);
}

/// Times the per-request layer calls on the probe set (the first
/// kProbeRequests requests); returns the LP iteration counts of its
/// order-lp-smith requests.  A disabled tracer only recounts iterations.
std::vector<double> probe(std::uint64_t seed,
                          const service::SolverRegistry& registry,
                          Tracer& tracer, std::size_t* wire_bytes) {
  std::vector<double> iterations;
  *wire_bytes = 0;
  for (std::size_t i = 0; i < kProbeRequests; ++i) {
    const Request request = fleet_request(seed, i);
    const bool heavy = request.solver == kHeavySolver;
    if (heavy) {
      const SpanScope span(tracer, "lp.solve", i);
      const lp::Solution solution = lp::solve(core::build_order_lp(
          request.instance, core::smith_order(request.instance)));
      iterations.push_back(static_cast<double>(solution.iterations));
    }
    if (!tracer.enabled()) {
      continue;
    }
    {
      const SpanScope span(tracer, "service.canonicalize", i);
      service::CanonicalOptions canonical;
      canonical.permute = true;  // the router's placement key
      const std::string text = service::canonical_text(
          service::canonicalize(request.instance, canonical));
      (void)text;
    }
    service::SolveResult result;
    (void)record_fastest(tracer, request.solver, i, heavy ? 1 : 3, [&] {
      result = registry.solve(request.solver, request.instance);
    });
    if (!heavy) {
      const auto start = Clock::now();
      const bool solved = registry.solve(kUnservedSolver, request.instance).ok();
      if (solved) {
        tracer.record(kUnservedSolver, i, start, Clock::now());
      }
    }
    const std::string name = instance_name(i);
    wire::SolveMessage solve;
    solve.id = i;
    solve.token = i + 1;
    solve.solver = request.solver;
    solve.instance_name = name;
    std::string instance_bytes;
    std::string solve_bytes;
    std::string result_bytes;
    {
      const SpanScope span(tracer, "shard.wire.encode", i);
      instance_bytes =
          wire::encode_instance(name, request.instance, wire::Dialect::Binary);
      solve_bytes = wire::encode_solve(solve, wire::Dialect::Binary);
      result_bytes =
          wire::encode_result(solve.id, solve.token, result, wire::Dialect::Binary);
    }
    {
      const SpanScope span(tracer, "shard.wire.decode", i);
      const bool decoded = wire::decode_instance(instance_bytes).has_value() &&
                           wire::decode_solve(solve_bytes).has_value() &&
                           wire::decode_result(result_bytes).has_value();
      (void)decoded;
    }
    *wire_bytes +=
        instance_bytes.size() + solve_bytes.size() + result_bytes.size();
  }
  return iterations;
}

void report_layers(const Window& traced, const Tracer& tracer,
                   const std::vector<double>& iterations,
                   std::size_t wire_bytes, Report& report) {
  const auto count = [&](const char* name, double value) {
    report.set(name, value, 1);
  };
  report_p50(report, "service.canonicalize_us_p50",
             tracer.durations_us("service.canonicalize"));
  for (const char* solver :
       {"wdeq", "deq", "wrr", "water-fill-smith", "greedy-heuristic",
        kHeavySolver}) {
    report_p50(report,
               (std::string("service.solve_us_p50.") + solver).c_str(),
               tracer.durations_us(solver));
  }
  report_p50(report, "lp.solve_us_p50", tracer.durations_us("lp.solve"));
  report_p50(report, "lp.iterations_p50", iterations);
  const double probe = static_cast<double>(kProbeRequests);
  report.set("shard.wire.encode_us_per_request",
             tracer.total_us("shard.wire.encode") / probe, kProbeRequests,
             "binary encode_instance + encode_solve + encode_result");
  report.set("shard.wire.decode_us_per_request",
             tracer.total_us("shard.wire.decode") / probe, kProbeRequests);
  report.set("shard.wire.bytes_per_request",
             static_cast<double>(wire_bytes) / probe, kProbeRequests);
  report.set("shard.placement.max_share", traced.max_share, kProbeRequests,
             "busiest worker's share of the probe set");
  report_cache(report, traced.cache);
  count("shard.transport.dead_peers",
        static_cast<double>(traced.transport.dead_peers));
  count("shard.transport.retries_replayed",
        static_cast<double>(traced.transport.retries_replayed));
  count("shard.transport.shm_fallbacks",
        static_cast<double>(traced.transport.shm_fallbacks));
  const shard::DataPlaneStats& plane = traced.plane;
  count("net.plane.frames_out", static_cast<double>(plane.frames_out));
  count("net.plane.frames_in", static_cast<double>(plane.frames_in));
  count("net.plane.bytes_out", static_cast<double>(plane.bytes_out));
  count("net.plane.bytes_in", static_cast<double>(plane.bytes_in));
  count("net.plane.producer_sleeps", static_cast<double>(plane.producer_sleeps));
  count("net.plane.consumer_sleeps", static_cast<double>(plane.consumer_sleeps));
  count("net.plane.wakes", static_cast<double>(plane.wakes));
  report.note(std::string("data plane: ") + plane.plane);
}

}  // namespace

void run_fleet_miss(const Options& options, Report& report) {
  report.note("closed loop: ShardRouter::run over " + std::to_string(kShards) +
              " forked shards (default data plane), router window 64 per "
              "worker, 1 scheduler thread per worker; batches of " +
              std::to_string(kBatch) + " distinct instances, every " +
              std::to_string(kHeavyEvery) + "th order-lp-smith at n = " +
              std::to_string(kHeavyTasks));
  // Both windows fork before any thread exists; every check runs after.
  Tracer off(false);
  const auto untraced = serve(options, off);
  Tracer tracer(true);
  std::unique_ptr<Window> traced;
  if (options.trace) {
    traced = serve(options, tracer);
  }
  const auto registry = service::SolverRegistry::with_default_solvers();
  const double ratio =
      check(*untraced, options.seed, registry, "untraced", report);
  std::vector<double> batch_rps = untraced->batch_rps;
  std::sort(batch_rps.begin(), batch_rps.end());
  if (!options.trace) {
    report.set("throughput_rps", batch_rps[batch_rps.size() / 2],
               untraced->batches,
               "median over batches of requests / ShardRouter::run seconds");
    report_latency(report, untraced->sliced, 0.99);
    report.set("competitive_ratio", ratio, untraced->records.size(),
               "sharded objective / single-process run_service");
    report.set("setup_s", untraced->setup_seconds, kSetupReps,
               "median of registry + ShardRouter construction (fork, shm, "
               "handshakes)");
    report.set("peak_rss_mb", untraced->peak_rss_mb, 1 + kShards,
               "router + workers after " +
                   std::to_string(kRssAfterBatches * kBatch) + " requests");
    return;
  }

  (void)check(*traced, options.seed, registry, "traced", report);
  std::size_t wire_bytes = 0;
  const std::vector<double> iterations =
      probe(options.seed, registry, tracer, &wire_bytes);
  Tracer counts_only(false);
  std::size_t unused = 0;
  if (probe(options.seed, registry, counts_only, &unused) != iterations) {
    report.fail("lp iteration counts differ between two passes of seed " +
                std::to_string(options.seed));
  }
  if (untraced->max_share != traced->max_share) {
    report.fail("shard.placement.max_share differs between two routers");
  }
  report_layers(*traced, tracer, iterations, wire_bytes, report);
  std::vector<double> traced_rps = traced->batch_rps;
  std::sort(traced_rps.begin(), traced_rps.end());
  report_trace(options, tracer, batch_rps[batch_rps.size() / 2],
               traced_rps[traced_rps.size() / 2], report);
}

}  // namespace perfbench
