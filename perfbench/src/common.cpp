#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace perfbench {

malsched::support::Rng item_rng(std::uint64_t seed, std::uint64_t stream,
                                std::uint64_t index) {
  std::uint64_t state = seed;
  std::uint64_t mixed = malsched::support::splitmix64(state);
  state = mixed ^ (stream * 0xd1b54a32d192ed03ULL);
  mixed = malsched::support::splitmix64(state);
  state = mixed ^ (index * 0x9e3779b97f4a7c15ULL);
  return malsched::support::Rng(malsched::support::splitmix64(state));
}

malsched::core::Instance generate_conditioned(
    const malsched::core::GeneratorConfig& config,
    malsched::support::Rng& rng) {
  for (;;) {
    malsched::core::Instance instance = malsched::core::generate(config, rng);
    const auto& tasks = instance.tasks();
    if (std::all_of(tasks.begin(), tasks.end(), [](const auto& task) {
          return task.width >= 0.05 && task.volume >= 0.01;
        })) {
      return instance;
    }
  }
}

std::optional<double> percentile(std::vector<double> values, double p) {
  const std::size_t n = values.size();
  if (n == 0 || !(p > 0.0) || !(p < 1.0)) {
    return std::nullopt;
  }
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) {
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::optional<Tail> backed_tail(const std::vector<double>& values,
                                double highest_p) {
  for (const double p : {0.99, 0.9, 0.5}) {
    if (p > highest_p) {
      continue;
    }
    if (const auto value = percentile(values, p)) {
      return Tail{p, *value};
    }
  }
  return std::nullopt;
}

const std::vector<MetricSpec>& metric_catalog() {
  constexpr auto E = MetricKind::EndToEnd;
  constexpr auto L = MetricKind::PerLayer;
  static const std::vector<MetricSpec> catalog = {
      {"throughput_rps", "1/s", E},
      {"latency_p50_ms", "ms", E},
      {"latency_tail_ms", "ms", E},
      {"competitive_ratio", "ratio", E},
      {"setup_s", "s", E},
      {"peak_rss_mb", "MB", E},

      {"service.submit_us_p50", "us", L},
      {"service.queue_wait_us_p50", "us", L},
      {"service.queue_wait_us_p99", "us", L},
      {"service.canonicalize_us_p50", "us", L},
      {"service.cache.hit_ratio", "ratio", L},
      {"service.cache.evictions", "count", L},
      {"service.cache.admitted", "count", L},
      {"service.cache.rejected", "count", L},
      {"service.hit_us_p50", "us", L},
      {"service.solve_us_p50.optimal", "us", L},
      {"service.solve_us_p50.wdeq", "us", L},
      {"service.solve_us_p50.deq", "us", L},
      {"service.solve_us_p50.wrr", "us", L},
      {"service.solve_us_p50.water-fill-smith", "us", L},
      {"service.solve_us_p50.greedy-heuristic", "us", L},
      {"service.solve_us_p50.order-lp-smith", "us", L},
      {"core.bnb.nodes", "count", L},
      {"core.bnb.leaves", "count", L},
      {"core.bnb.lp_evaluations", "count", L},
      {"core.bnb.pruned_by_bound", "count", L},
      {"core.bnb.pruned_by_cut", "count", L},
      {"core.bnb.pruned_by_dominance", "count", L},
      {"core.bnb.us_per_node", "us", L},
      {"core.order_lp.push_us_p50", "us", L},
      {"core.enum.orders", "count", L},
      {"core.enum.us_per_order", "us", L},
      {"lp.solve_us_p50", "us", L},
      {"lp.iterations_p50", "count", L},
      {"sim.run_policy_us_p50", "us", L},
      {"sim.events_p50", "count", L},
      {"online.replan_us_p50", "us", L},
      {"online.replan_us_p99", "us", L},
      {"online.replans", "count", L},
      {"online.events", "count", L},
      {"online.clock_self_us_p50", "us", L},
      {"shard.placement.max_share", "ratio", L},
      {"shard.wire.encode_us_per_request", "us", L},
      {"shard.wire.decode_us_per_request", "us", L},
      {"shard.wire.bytes_per_request", "bytes", L},
      {"shard.transport.dead_peers", "count", L},
      {"shard.transport.retries_replayed", "count", L},
      {"shard.transport.shm_fallbacks", "count", L},
      {"net.plane.frames_out", "count", L},
      {"net.plane.frames_in", "count", L},
      {"net.plane.bytes_out", "bytes", L},
      {"net.plane.bytes_in", "bytes", L},
      {"net.plane.producer_sleeps", "count", L},
      {"net.plane.consumer_sleeps", "count", L},
      {"net.plane.wakes", "count", L},
      {"trace.untraced_rps", "1/s", L},
      {"trace.traced_rps", "1/s", L},
      {"trace.overhead_pct", "%", L},
      {"trace.spans", "count", L},
  };
  return catalog;
}

namespace {

const MetricSpec* find_metric(const std::string& name) {
  for (const MetricSpec& spec : metric_catalog()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// JSON has no NaN/Inf; a non-finite metric is a benchmark bug, printed as 0
// and reported as a failure by print().
std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::set(const std::string& name, double value, std::size_t samples,
                 const std::string& note) {
  if (find_metric(name) == nullptr) {
    std::fprintf(stderr, "perfbench: metric '%s' is not in the catalog\n",
                 name.c_str());
    std::abort();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  values_[name] = Value{value, samples, note};
}

void Report::note(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  notes_.push_back(line);
}

void Report::fail(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mutex_);
  failures_.push_back(what);
}

void Report::add_requests(std::size_t attempted, std::size_t failed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const MetricKind mode =
      options_.trace ? MetricKind::PerLayer : MetricKind::EndToEnd;
  std::vector<std::string> failures = failures_;
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options_.workload.c_str(),
              static_cast<unsigned long long>(options_.seed), options_.seconds,
              options_.trace ? 1 : 0);
  for (const std::string& line : notes_) {
    std::printf("  %s\n", line.c_str());
  }
  std::string bypassed;
  std::string metrics_json;
  for (const MetricSpec& spec : metric_catalog()) {
    if (spec.kind != mode) {
      continue;
    }
    const auto it = values_.find(spec.name);
    const Value value = it == values_.end() ? Value{} : it->second;
    if (it == values_.end()) {
      bypassed += bypassed.empty() ? "" : " ";
      bypassed += spec.name;
    } else {
      std::printf("metric %-40s %.6g %s (n=%zu)%s%s\n", spec.name,
                  value.value, spec.unit, value.samples,
                  value.note.empty() ? "" : "  ", value.note.c_str());
      if (!std::isfinite(value.value)) {
        failures.push_back(std::string("metric ") + spec.name +
                           " is not finite");
      }
    }
    metrics_json += metrics_json.empty() ? "" : ", ";
    metrics_json += json_string(spec.name) + ": {\"value\": " +
                    json_number(value.value) + ", \"unit\": " +
                    json_string(spec.unit) + "}";
  }
  if (!bypassed.empty()) {
    std::printf("not measured on this workload (printed as 0): %s\n",
                bypassed.c_str());
  }
  std::printf("requests attempted %zu failed %zu failed_ratio %.6g\n",
              attempted_, failed_,
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_));
  for (const std::string& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = failures.empty() && failed_ == 0 && attempted_ > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", std::max<std::size_t>(attempted_, 1),
      failed_, metrics_json.c_str());
  std::fflush(stdout);
}

std::int64_t Tracer::since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::int64_t Tracer::begin(const char* name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled_) {
    return -1;
  }
  const std::int64_t start = since_origin(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, -1, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) {
    return;
  }
  const std::int64_t stop = since_origin(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
}

std::int64_t Tracer::record(const char* name, std::uint64_t request,
                            Clock::time_point start, Clock::time_point end,
                            std::int64_t parent) {
  if (!enabled_) {
    return -1;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      Span{name, since_origin(start), since_origin(end), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations_us(const char* name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  const std::string wanted = name;
  for (const Span& span : spans_) {
    if (span.end_ns >= span.start_ns && wanted == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

double Tracer::total_us(const char* name) const {
  double total = 0.0;
  for (const double us : durations_us(name)) {
    total += us;
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  const std::vector<Span> spans = this->spans();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << self[i] << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns < span.start_ns) {
      continue;
    }
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) {
        covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        covered_ns += run_hi > run_lo ? run_hi - run_lo : 0;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered_ns += run_hi > run_lo ? run_hi - run_lo : 0;
    self[i] = (span.end_ns - span.start_ns) - covered_ns;
  }
  return self;
}

std::map<std::string, double> self_time_by_name_us(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += static_cast<double>(self[i]) * 1e-3;
  }
  return by_name;
}

double self_peak_rss_mb() { return process_peak_rss_mb(getpid()); }

double process_peak_rss_mb(pid_t pid) {
  // VmHWM rather than getrusage: ru_maxrss survives exec, so it would
  // report the launching process's footprint when that one was larger.
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body) {
  std::mutex mutex;
  std::size_t next = 0;
  const auto drain = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (next == count) {
          return;
        }
        i = next++;
      }
      body(i);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(threads, 1u); ++t) {
    pool.emplace_back(drain);
  }
  drain();
  for (std::thread& thread : pool) {
    thread.join();
  }
}

void SlicedWindow::add(Clock::time_point at, double latency_seconds) {
  const double offset = seconds_between(start_, at);
  if (offset < 0.0 || offset >= seconds_) {
    return;
  }
  const double share = offset / seconds_;
  ++counts_[static_cast<std::size_t>(share * kRateSlices)];
  latencies_[static_cast<std::size_t>(share * kLatencySlices)].push_back(
      latency_seconds);
}

double SlicedWindow::median_rate() const {
  std::vector<std::size_t> sorted = counts_;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<double>(sorted[sorted.size() / 2]) /
         (seconds_ / kRateSlices);
}

std::size_t SlicedWindow::count() const {
  std::size_t total = 0;
  for (const std::size_t count : counts_) {
    total += count;
  }
  return total;
}

std::optional<double> SlicedWindow::median_percentile(double p) const {
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : latencies_) {
    if (const auto value = percentile(slice, p)) {
      per_slice.push_back(*value);
    }
  }
  if (per_slice.size() < 3) {
    return std::nullopt;
  }
  std::sort(per_slice.begin(), per_slice.end());
  return per_slice[per_slice.size() / 2];
}

std::vector<double> SlicedWindow::latencies() const {
  std::vector<double> all;
  for (const std::vector<double>& slice : latencies_) {
    all.insert(all.end(), slice.begin(), slice.end());
  }
  return all;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  return hash;
}

bool agrees(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(1.0, std::abs(b));
}

void report_latency(Report& report, const SlicedWindow& window,
                    double tail_p) {
  const std::size_t samples = window.count();
  const auto set = [&](const char* name, double p) {
    char note[96];
    if (const auto value = window.median_percentile(p)) {
      std::snprintf(note, sizeof note, "median of %zu slice p%g values",
                    SlicedWindow::kLatencySlices, p * 100.0);
      report.set(name, *value * 1e3, samples, note);
    } else if (const auto tail = backed_tail(window.latencies(), p)) {
      std::snprintf(note, sizeof note,
                    "whole-window p%g (too few samples per slice)",
                    tail->p * 100.0);
      report.set(name, tail->value * 1e3, samples, note);
    } else {
      report.set(name, 0.0, samples, "too few samples for any percentile");
    }
  };
  set("latency_p50_ms", 0.5);
  set("latency_tail_ms", tail_p);
}

void report_p50(Report& report, const char* name,
                const std::vector<double>& values) {
  const auto p50 = percentile(values, 0.5);
  report.set(name, p50 ? *p50 : 0.0, values.size(),
             p50 ? "" : "too few samples for p50");
}

void report_cache(Report& report, const malsched::service::CacheStats& stats) {
  report.set("service.cache.hit_ratio", stats.hit_rate(),
             stats.hits + stats.misses);
  report.set("service.cache.evictions", static_cast<double>(stats.evictions), 1);
  report.set("service.cache.admitted", static_cast<double>(stats.admitted), 1);
  report.set("service.cache.rejected", static_cast<double>(stats.rejected), 1);
}

void report_trace(const Options& options, const Tracer& tracer,
                  double untraced_rps, double traced_rps, Report& report) {
  const std::vector<Span> spans = tracer.spans();
  report.set("trace.untraced_rps", untraced_rps, 1);
  report.set("trace.traced_rps", traced_rps, 1);
  report.set("trace.overhead_pct",
             untraced_rps > 0.0
                 ? 100.0 * (untraced_rps - traced_rps) / untraced_rps
                 : 0.0,
             1, "(untraced - traced) / untraced throughput");
  report.set("trace.spans", static_cast<double>(spans.size()), spans.size());
  for (const auto& [name, us] : self_time_by_name_us(spans)) {
    report.note("self time " + name + ": " + std::to_string(us / 1e3) + " ms");
  }
  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    report.note("could not write spans to " + options.trace_out);
  }
}

}  // namespace perfbench
