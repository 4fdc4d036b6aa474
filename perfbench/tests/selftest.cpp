// Self-test of the benchmark's own arithmetic: the percentile rule, the
// backed-tail choice, span self time and the slice-median throughput.
// Exits non-zero on the first failed check.  Run through
// perfbench/tests/test_perfbench.py, which builds it.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

#define CHECK(condition)                                              \
  do {                                                                \
    if (!(condition)) {                                               \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #condition);                             \
      ++failures;                                                     \
    }                                                                 \
  } while (false)

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = n; i >= 1; --i) {
    values.push_back(static_cast<double>(i));  // descending: order must not matter
  }
  return values;
}

void percentile_rule() {
  using perfbench::percentile;
  // p50 needs 10 samples above rank ceil(n/2): n >= 20.
  CHECK(!percentile(one_to(19), 0.5));
  CHECK(percentile(one_to(20), 0.5) == 10.0);
  CHECK(percentile(one_to(21), 0.5) == 11.0);
  // p90 needs n >= 100, p99 needs n >= 1000.
  CHECK(!percentile(one_to(99), 0.9));
  CHECK(percentile(one_to(100), 0.9) == 90.0);
  CHECK(!percentile(one_to(999), 0.99));
  CHECK(percentile(one_to(1000), 0.99) == 990.0);
  CHECK(!percentile({}, 0.5));

  const auto tail500 = perfbench::backed_tail(one_to(500), 0.99);
  CHECK(tail500 && tail500->p == 0.9 && tail500->value == 450.0);
  const auto tail5000 = perfbench::backed_tail(one_to(5000), 0.99);
  CHECK(tail5000 && tail5000->p == 0.99 && tail5000->value == 4950.0);
  const auto capped = perfbench::backed_tail(one_to(5000), 0.9);
  CHECK(capped && capped->p == 0.9);
  const auto tail50 = perfbench::backed_tail(one_to(50), 0.99);
  CHECK(tail50 && tail50->p == 0.5);
  CHECK(!perfbench::backed_tail(one_to(10), 0.99));
}

void span_self_time() {
  using perfbench::Span;
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 1},
      {"child", 10, 30, 0, 1},
      {"child", 20, 50, 0, 1},   // overlaps the first child
      {"child", 90, 120, 0, 1},  // runs past the parent: clipped
      {"grandchild", 12, 28, 1, 1},
      {"open", 5, -1, -1, 2},    // never closed
  };
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  CHECK(self[0] == 100 - (40 + 10));  // covered: [10,50) and [90,100)
  CHECK(self[1] == 20 - 16);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 16);
  CHECK(self[5] == 0);
  const auto by_name = perfbench::self_time_by_name_us(spans);
  CHECK(std::abs(by_name.at("child") - 0.064) < 1e-12);

  perfbench::Tracer off(false);
  CHECK(off.begin("x", 0) == -1);
  CHECK(off.spans().empty());
  perfbench::Tracer on(true);
  const std::int64_t outer = on.begin("outer", 7);
  {
    const perfbench::SpanScope inner(on, "inner", 7, outer);
    CHECK(inner.id() == 1);
  }
  on.end(outer);
  const auto recorded = on.spans();
  CHECK(recorded.size() == 2 && recorded[1].parent == 0);
  CHECK(recorded[0].end_ns >= recorded[1].end_ns);
  CHECK(on.durations_us("inner").size() == 1);
}

void slice_medians() {
  const auto start = perfbench::Clock::now();
  perfbench::SlicedWindow window(start, 2.0);  // rate slices of 0.1 s
  const auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<perfbench::Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  for (std::size_t s = 0; s < perfbench::SlicedWindow::kRateSlices; ++s) {
    const std::size_t count = s < 3 ? 1 : 5;  // three stalled slices
    for (std::size_t k = 0; k < count; ++k) {
      window.add(at(0.1 * static_cast<double>(s) + 0.05), 1.0);
    }
  }
  window.add(at(-1.0), 1.0);  // before the window: ignored
  window.add(at(5.0), 1.0);   // after it: ignored
  CHECK(window.count() == 3 * 1 + 17 * 5);
  CHECK(window.median_rate() > 49.9 && window.median_rate() < 50.1);

  // Latency slices of 0.4 s: 30 samples each, one slice stalled 100x.
  perfbench::SlicedWindow latency(start, 2.0);
  for (std::size_t s = 0; s < perfbench::SlicedWindow::kLatencySlices; ++s) {
    for (std::size_t k = 1; k <= 30; ++k) {
      latency.add(at(0.4 * static_cast<double>(s) + 0.01 * k),
                  static_cast<double>(k) * (s == 4 ? 100.0 : 1.0));
    }
  }
  CHECK(latency.median_percentile(0.5) == 15.0);
  CHECK(!latency.median_percentile(0.9));  // 30 samples do not back p90
  CHECK(latency.latencies().size() == 150);
}

void catalog_names() {
  std::set<std::string> seen;
  for (const auto& spec : perfbench::metric_catalog()) {
    const std::string name = spec.name;
    CHECK(seen.insert(name).second);
    CHECK(!name.empty() && name.size() <= 64 && std::isalnum(name[0]));
    for (const char c : name) {
      CHECK(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.' || c == '-');
    }
    const std::string unit = spec.unit;
    CHECK(!unit.empty() && unit.size() <= 16);
  }
}

}  // namespace

int main() {
  percentile_rule();
  span_self_time();
  slice_medians();
  catalog_names();
  if (failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
