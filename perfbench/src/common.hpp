#pragma once

/// \file common.hpp
/// Shared machinery of the malsched benchmark: options, seeded input
/// streams, the percentile rule, the metric catalog and report printer, the
/// in-memory span tracer, and small timing/memory helpers.  The workloads
/// (workloads.hpp) drive malsched only through its public entry points and
/// use these pieces to time and check what they get back.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "malsched/core/generators.hpp"
#include "malsched/service/cache.hpp"
#include "malsched/support/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< length of each measured window
  bool trace = false;      ///< --trace 1: per-layer metrics from a traced run
  std::string trace_out;   ///< where the traced run writes its spans ("" = nowhere)
};

/// The random stream of item `index` of input stream `stream`.  Every
/// generated input (instance, trace, arrival) draws from its own stream, so
/// the same seed always yields the same inputs and a checker can rebuild
/// item i without replaying items 0..i-1.
[[nodiscard]] malsched::support::Rng item_rng(std::uint64_t seed,
                                              std::uint64_t stream,
                                              std::uint64_t index);

/// Draws an instance of `config`'s family, redrawing (from the same stream)
/// while any task has a width below 0.05 or a volume below 0.01.  Such
/// near-degenerate tasks can make the dense simplex abort the process once
/// the cache rescales the instance (a malsched robustness bug, see
/// README.md), and no benchmark operation may fail.
[[nodiscard]] malsched::core::Instance generate_conditioned(
    const malsched::core::GeneratorConfig& config,
    malsched::support::Rng& rng);

/// A percentile is reported only when at least this many samples lie beyond
/// it, so a tail figure never rests on one or two outliers.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank p-quantile (p in (0, 1)): the sample at 1-based rank
/// ceil(p * n) of the sorted values.  nullopt unless at least kMinBeyond
/// samples rank above it, i.e. n - ceil(p * n) >= kMinBeyond.
[[nodiscard]] std::optional<double> percentile(std::vector<double> values,
                                               double p);

/// The highest of p99, p90 and p50 that the percentile rule allows, with
/// the quantile used; nullopt when even p50 is not backed.
struct Tail {
  double p = 0.0;
  double value = 0.0;
};
[[nodiscard]] std::optional<Tail> backed_tail(const std::vector<double>& values,
                                              double highest_p);

/// --- metric catalog -------------------------------------------------------

enum class MetricKind { EndToEnd, PerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the benchmark can print, in print order.  BENCHMARK.json
/// must list exactly these (the self-test compares them).
[[nodiscard]] const std::vector<MetricSpec>& metric_catalog();

/// Collects one run's metrics, check failures and request counts, and
/// prints them: human-readable lines first, then the one-line JSON result
/// that tools parse.  Thread-safe.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  /// Records a metric; `samples` is how many observations back it.  Aborts
  /// on a name missing from the catalog (a benchmark bug).
  void set(const std::string& name, double value, std::size_t samples,
           const std::string& note = "");
  /// Records an informational line (printed, not parsed).
  void note(const std::string& line);
  /// Records a failed output or self check: the run is then not `correct`.
  void fail(const std::string& what);
  /// Adds `attempted` requests, of which `failed` returned a typed error or
  /// failed the output check.
  void add_requests(std::size_t attempted, std::size_t failed);

  /// Prints everything.  Metrics of the run's mode (end-to-end untraced,
  /// per-layer traced) that no workload set are printed as 0 and named on a
  /// "not measured" line: the layer is bypassed by this workload.
  void print() const;

 private:
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
    std::string note;
  };

  Options options_;
  mutable std::mutex mutex_;
  std::map<std::string, Value> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// --- spans ----------------------------------------------------------------

/// One timed call.  `name` points at a string literal; `parent` is the index
/// of the enclosing span (-1 for a root); `request` ties the spans of one
/// request together.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder.  Disabled tracers record nothing and cost one
/// branch per call, so untraced runs share the traced code path.  Spans stay
/// in memory until `write` dumps them at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) {
      spans_.reserve(std::size_t{1} << 20);  // no reallocation mid-window
    }
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  std::int64_t begin(const char* name, std::uint64_t request,
                     std::int64_t parent = -1);
  /// Closes span `id` (no-op for -1).
  void end(std::int64_t id);

  /// Records an already-timed interval as a closed span.
  std::int64_t record(const char* name, std::uint64_t request,
                      Clock::time_point start, Clock::time_point end,
                      std::int64_t parent = -1);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Durations, in microseconds, of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;
  /// Σ duration of every closed span called `name`, in microseconds.
  [[nodiscard]] double total_us(const char* name) const;

  /// Tab-separated dump: id, parent, request, name, start_ns, end_ns, self_ns.
  /// False when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t since_origin(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t request,
            std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Calls `call` `reps` times and records only the fastest call as a span
/// `name`, so one preempted call cannot inflate a per-layer time.  Returns
/// that call's duration in microseconds.
template <typename Call>
double record_fastest(Tracer& tracer, const char* name, std::uint64_t request,
                      int reps, Call call) {
  Clock::time_point best_start{};
  Clock::time_point best_end{};
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    call();
    const auto stop = Clock::now();
    if (rep == 0 || stop - start < best_end - best_start) {
      best_start = start;
      best_end = stop;
    }
  }
  tracer.record(name, request, best_start, best_end);
  return seconds_between(best_start, best_end) * 1e6;
}

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it (children may overlap each other).  Indexed like
/// `spans`; unclosed spans (end < start) get 0.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Σ self time per span name, in microseconds, sorted by name.
[[nodiscard]] std::map<std::string, double> self_time_by_name_us(
    const std::vector<Span>& spans);

/// --- helpers --------------------------------------------------------------

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double self_peak_rss_mb();
/// Peak resident set (VmHWM) of a live process, in MB; 0 when unreadable.
[[nodiscard]] double process_peak_rss_mb(pid_t pid);

/// Runs body(i) for i in [0, count) on `threads` threads; joins them all.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body);

/// Builds a fresh object with `make` `reps` times, tearing the previous
/// one down first (untimed), and returns the last one together with the
/// median build time in seconds: the setup_s of a workload.
template <typename T, typename Make>
[[nodiscard]] std::pair<std::unique_ptr<T>, double> timed_setup(
    std::size_t reps, Make make) {
  std::unique_ptr<T> built;
  std::vector<double> times;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    built.reset();
    const auto start = Clock::now();
    built = make();
    times.push_back(seconds_between(start, Clock::now()));
  }
  std::sort(times.begin(), times.end());
  return {std::move(built), times[times.size() / 2]};
}

/// 64-bit FNV-1a of a byte string.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes);

/// Relative agreement |a - b| <= rel * max(1, |b|).
[[nodiscard]] bool agrees(double a, double b, double rel);

/// A measured window cut into equal time slices.  Completions are counted
/// per slice and latencies kept per slice, so both throughput and latency
/// percentiles can be reported as medians over slices: a stall confined to
/// a few slices (a noisy neighbour stealing the CPU) cannot move them.
class SlicedWindow {
 public:
  static constexpr std::size_t kRateSlices = 20;
  static constexpr std::size_t kLatencySlices = 5;
  static constexpr const char* kRateDescription =
      "median over 20 window slices of completions / slice seconds";

  SlicedWindow(Clock::time_point start, double seconds)
      : start_(start),
        seconds_(seconds),
        counts_(kRateSlices, 0),
        latencies_(kLatencySlices) {}

  /// Records one request completed at `at` (ignored outside the window).
  void add(Clock::time_point at, double latency_seconds);

  [[nodiscard]] double median_rate() const;
  [[nodiscard]] std::size_t count() const;
  /// Median over the latency slices of each slice's p-quantile, using only
  /// slices where the percentile rule backs it; nullopt when fewer than
  /// three slices do.
  [[nodiscard]] std::optional<double> median_percentile(double p) const;
  /// Every recorded latency, slice by slice.
  [[nodiscard]] std::vector<double> latencies() const;

 private:
  Clock::time_point start_;
  double seconds_;
  std::vector<std::size_t> counts_;
  std::vector<std::vector<double>> latencies_;
};

/// Reports latency_p50_ms and latency_tail_ms (the `tail_p` quantile) of a
/// window as medians over its latency slices.  Falls back to the whole
/// window, with the highest backed quantile, when too few slices back them.
void report_latency(Report& report, const SlicedWindow& window, double tail_p);

/// Reports the p50 of `values` under `name` when backed (else 0 + note).
void report_p50(Report& report, const char* name,
                const std::vector<double>& values);

/// Reports the service.cache.* metrics of `stats`.
void report_cache(Report& report, const malsched::service::CacheStats& stats);

/// Finishes a traced run: reports the tracing overhead (traced against
/// untraced throughput) and the span count, notes each span name's total
/// self time, and writes the spans to Options::trace_out.
void report_trace(const Options& options, const Tracer& tracer,
                  double untraced_rps, double traced_rps, Report& report);

}  // namespace perfbench
