#include "malsched/service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>

#include "malsched/core/generators.hpp"
#include "malsched/core/io.hpp"
#include "malsched/online/trace.hpp"
#include "malsched/support/rng.hpp"

namespace malsched::service {

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

std::string at_line(std::size_t line_no, const std::string& message) {
  return "line " + std::to_string(line_no) + ": " + message;
}

// parse_instance numbers lines within the block body; shift any leading
// "line k:" so diagnostics point at the batch file's own line numbers.
std::string rebase_line_diagnostic(const std::string& message,
                                   std::size_t offset) {
  constexpr const char* prefix = "line ";
  if (message.rfind(prefix, 0) != 0) {
    return message;
  }
  std::size_t pos = std::char_traits<char>::length(prefix);
  std::size_t line = 0;
  bool any_digit = false;
  while (pos < message.size() && message[pos] >= '0' && message[pos] <= '9') {
    line = line * 10 + static_cast<std::size_t>(message[pos] - '0');
    ++pos;
    any_digit = true;
  }
  if (!any_digit) {
    return message;
  }
  return at_line(line + offset, message.substr(
                                    std::min(message.size(), pos + 2)));
}

std::optional<core::Family> family_from_name(const std::string& name) {
  for (const core::Family family : core::all_families()) {
    if (name == core::family_name(family)) {
      return family;
    }
  }
  return std::nullopt;
}

// Recursive descent over one stream; `include` re-enters with the included
// file's own directory so nested relative paths resolve naturally.  The
// sticky weight/deadline directives are locals here, which is what scopes
// them to their own file: an include starts fresh and leaks nothing back.
bool parse_stream(std::istream& in, const std::string& base_dir,
                  std::size_t depth, std::size_t max_depth, BatchSpec& batch,
                  std::string* error) {
  std::string line;
  std::size_t line_no = 0;
  std::string block_name;        // non-empty while inside an instance block
  std::string block_text;
  std::size_t block_start = 0;
  bool in_block = false;
  double current_weight = 1.0;             // `weight` directive state
  std::optional<double> current_deadline;  // `deadline` directive state

  while (std::getline(in, line)) {
    ++line_no;
    std::string stripped = line;
    const auto hash = stripped.find('#');
    if (hash != std::string::npos) {
      stripped.resize(hash);
    }
    std::istringstream fields(stripped);
    std::string keyword;
    if (!(fields >> keyword)) {
      if (in_block) {
        block_text += '\n';  // keep block line numbering file-relative
      }
      continue;
    }
    if (keyword == "instance") {
      if (in_block) {
        set_error(error, at_line(line_no, "nested 'instance' block (missing 'end'?)"));
        return false;
      }
      std::string name;
      if (!(fields >> name)) {
        set_error(error, at_line(line_no, "'instance' needs a name"));
        return false;
      }
      if (batch.instances.count(name) != 0) {
        set_error(error, at_line(line_no, "duplicate instance '" + name + "'"));
        return false;
      }
      in_block = true;
      block_name = name;
      block_text.clear();
      block_start = line_no;
    } else if (keyword == "end") {
      if (!in_block) {
        set_error(error, at_line(line_no, "'end' outside an instance block"));
        return false;
      }
      std::string parse_error;
      auto instance = core::parse_instance(block_text, &parse_error);
      if (!instance) {
        set_error(error,
                  "instance '" + block_name + "' (line " +
                      std::to_string(block_start) + "): " +
                      rebase_line_diagnostic(parse_error, block_start));
        return false;
      }
      batch.instances.emplace(block_name, std::move(*instance));
      in_block = false;
    } else if (in_block) {
      // Body lines are validated wholesale by core::parse_instance at 'end'.
      block_text += stripped;
      block_text += '\n';
    } else if (keyword == "solve") {
      BatchSpec::Request request;
      request.line = line_no;
      request.priority_weight = current_weight;
      request.deadline_seconds = current_deadline;
      if (!(fields >> request.solver >> request.instance_name)) {
        set_error(error,
                  at_line(line_no, "'solve' needs <solver> <instance-name>"));
        return false;
      }
      batch.requests.push_back(std::move(request));
    } else if (keyword == "weight") {
      double weight = 0.0;
      if (!(fields >> weight) || !std::isfinite(weight) || !(weight > 0.0)) {
        set_error(error,
                  at_line(line_no, "'weight' needs a positive number"));
        return false;
      }
      current_weight = weight;
    } else if (keyword == "deadline") {
      std::string text;
      if (!(fields >> text)) {
        set_error(error,
                  at_line(line_no, "'deadline' needs <seconds> or 'none'"));
        return false;
      }
      if (text == "none") {
        current_deadline.reset();
      } else {
        char* end = nullptr;
        const double seconds = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || !std::isfinite(seconds) ||
            seconds < 0.0) {
          set_error(error, at_line(line_no,
                                   "'deadline' needs a non-negative number "
                                   "of seconds or 'none'"));
          return false;
        }
        current_deadline = seconds;
      }
    } else if (keyword == "generate") {
      std::string name;
      std::string family_text;
      long long num_tasks = 0;
      double processors = 0.0;
      std::uint64_t seed = 0;
      if (!(fields >> name >> family_text >> num_tasks >> processors >>
            seed)) {
        set_error(error,
                  at_line(line_no,
                          "'generate' needs <name> <family> <tasks> "
                          "<processors> <seed>"));
        return false;
      }
      if (batch.instances.count(name) != 0) {
        set_error(error, at_line(line_no, "duplicate instance '" + name + "'"));
        return false;
      }
      const auto family = family_from_name(family_text);
      const auto trace_family = online::trace_family_from_name(family_text);
      if (!family && !trace_family) {
        std::string known;
        for (const core::Family f : core::all_families()) {
          known += known.empty() ? "" : ", ";
          known += core::family_name(f);
        }
        for (const online::TraceFamily f : online::all_trace_families()) {
          known += ", ";
          known += online::trace_family_name(f);
        }
        set_error(error, at_line(line_no, "unknown family '" + family_text +
                                              "' (known: " + known + ")"));
        return false;
      }
      constexpr long long kMaxGeneratedTasks = 1'000'000;
      if (num_tasks <= 0 || num_tasks > kMaxGeneratedTasks) {
        set_error(error,
                  at_line(line_no,
                          "'generate' task count must be in [1, " +
                              std::to_string(kMaxGeneratedTasks) + "]"));
        return false;
      }
      if (!(processors > 0.0)) {
        set_error(error,
                  at_line(line_no, "'generate' needs positive processors"));
        return false;
      }
      support::Rng rng(seed);
      if (family) {
        core::GeneratorConfig config;
        config.family = *family;
        config.num_tasks = static_cast<std::size_t>(num_tasks);
        config.processors = processors;
        batch.instances.emplace(name, core::generate(config, rng));
      } else {
        // Online trace families serve their closed-batch view here (tasks in
        // arrival order, release times dropped) so batch and online
        // experiments can share workloads; replay the same (family, n, P,
        // seed) tuple through online::generate_trace for the timed version.
        online::TraceConfig config;
        config.family = *trace_family;
        config.num_tasks = static_cast<std::size_t>(num_tasks);
        config.processors = processors;
        batch.instances.emplace(
            name, online::generate_trace(config, rng).to_instance());
      }
    } else if (keyword == "include") {
      // The rest of the line (comments already stripped) is the path, so
      // paths containing spaces work; trim surrounding whitespace.
      std::string path_text;
      std::getline(fields >> std::ws, path_text);
      while (!path_text.empty() &&
             (path_text.back() == ' ' || path_text.back() == '\t' ||
              path_text.back() == '\r')) {
        path_text.pop_back();
      }
      if (path_text.empty()) {
        set_error(error, at_line(line_no, "'include' needs a path"));
        return false;
      }
      if (depth + 1 > max_depth) {
        set_error(error,
                  at_line(line_no, "include depth exceeds " +
                                       std::to_string(max_depth) +
                                       " (cycle?) at '" + path_text + "'"));
        return false;
      }
      std::filesystem::path path(path_text);
      if (path.is_relative() && !base_dir.empty()) {
        path = std::filesystem::path(base_dir) / path;
      }
      std::ifstream included(path);
      if (!included) {
        set_error(error, at_line(line_no, "cannot open include '" +
                                              path.string() + "'"));
        return false;
      }
      std::string inner_error;
      if (!parse_stream(included, path.parent_path().string(), depth + 1,
                        max_depth, batch, &inner_error)) {
        set_error(error, at_line(line_no, "include '" + path.string() +
                                              "': " + inner_error));
        return false;
      }
    } else {
      set_error(error, at_line(line_no, "unknown keyword '" + keyword + "'"));
      return false;
    }
  }
  if (in_block) {
    set_error(error, "instance '" + block_name + "' (line " +
                         std::to_string(block_start) + "): missing 'end'");
    return false;
  }
  return true;
}

}  // namespace

std::optional<BatchSpec> read_batch(std::istream& in, std::string* error,
                                    const BatchReadOptions& options) {
  BatchSpec batch;
  if (!parse_stream(in, options.base_dir, 0, options.max_include_depth, batch,
                    error)) {
    return std::nullopt;
  }
  // Included files may carry only instance definitions; the top-level batch
  // is the one that must actually request work.
  if (batch.requests.empty()) {
    set_error(error, "batch has no 'solve' requests");
    return std::nullopt;
  }
  return batch;
}

std::optional<BatchSpec> parse_batch(const std::string& text,
                                     std::string* error,
                                     const BatchReadOptions& options) {
  std::istringstream in(text);
  return read_batch(in, error, options);
}

Scheduler::Options make_scheduler_options(const ServiceOptions& options) {
  Scheduler::Options scheduler_options;
  scheduler_options.threads = options.threads;
  scheduler_options.queue_capacity = options.queue_capacity;
  scheduler_options.cache_capacity = options.cache_capacity;
  scheduler_options.cache_ttl_seconds = options.cache_ttl_seconds;
  scheduler_options.use_cache =
      options.use_cache && options.cache_capacity > 0;
  scheduler_options.admission = options.fifo_admission
                                    ? Scheduler::Admission::Fifo
                                    : Scheduler::Admission::WeightedPriority;
  return scheduler_options;
}

ServiceReport run_service(const BatchSpec& batch,
                          const SolverRegistry& registry,
                          const ServiceOptions& options) {
  // Intern each named instance exactly once; every request on it then
  // shares the handle (and its precomputed canonical forms) instead of
  // copying the task vector per request.
  std::map<std::string, InstanceHandle> handles;
  for (const auto& [name, instance] : batch.instances) {
    handles.emplace(name, intern(instance));
  }

  // Resolve names once; unknown instances become deterministic per-request
  // ParseError results rather than failing the whole batch.
  struct Resolved {
    std::size_t index;  ///< into batch.requests
    const std::string* solver;
    const InstanceHandle* instance;
    double priority_weight;
    std::optional<double> deadline_seconds;
  };
  std::vector<Resolved> resolved;
  resolved.reserve(batch.requests.size());

  ServiceReport report;
  report.results.resize(batch.requests.size());
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const auto& request = batch.requests[i];
    const auto it = handles.find(request.instance_name);
    if (it == handles.end()) {
      report.results[i] = SolveResult::failure(
          request.solver, ErrorCode::ParseError,
          "unknown instance '" + request.instance_name + "' (line " +
              std::to_string(request.line) + ")");
      continue;
    }
    resolved.push_back(Resolved{i, &request.solver, &it->second,
                                request.priority_weight,
                                request.deadline_seconds});
  }

  Scheduler scheduler(registry, make_scheduler_options(options));

  const auto start = std::chrono::steady_clock::now();
  const std::size_t rounds = options.repeat == 0 ? 1 : options.repeat;
  // support::Sample keeps every observation for its quantiles; a large
  // batch x repeat product would hold one double per solve.  Decimate
  // deterministically so telemetry memory stays bounded (~8 MB) however
  // long the run is.
  constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 20;
  const std::size_t total_solves = rounds * resolved.size();
  const std::size_t stride =
      total_solves == 0
          ? 1
          : (total_solves + kMaxLatencySamples - 1) / kMaxLatencySamples;
  std::size_t seen = 0;
  std::vector<Ticket> tickets;
  tickets.reserve(resolved.size());
  for (std::size_t round = 0; round < rounds; ++round) {
    tickets.clear();
    for (const Resolved& request : resolved) {
      SubmitOptions submit_options;
      submit_options.priority_weight = request.priority_weight;
      if (request.deadline_seconds) {
        // The directive is a latency budget: it starts at this submit, so
        // every repeat round gets the same budget.
        submit_options.deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    std::min(*request.deadline_seconds,
                             kMaxDeadlineBudgetSeconds)));
      }
      tickets.push_back(
          scheduler.submit(*request.solver, *request.instance, submit_options));
    }
    for (std::size_t j = 0; j < tickets.size(); ++j) {
      SolveResult result = tickets[j].get();
      if (seen++ % stride == 0) {
        report.latencies.add(result.latency_seconds);
      }
      if (round + 1 == rounds) {
        report.results[resolved[j].index] = std::move(result);
      }
    }
  }
  report.total_solves = seen;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.cache = scheduler.cache_stats();
  return report;
}

void write_results(std::ostream& out, const ServiceReport& report) {
  // Error messages embed client-controlled text (solver/instance names from
  // the batch file); escape so the one-line-per-request stream stays
  // parseable.
  std::ostringstream line;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const SolveResult& r = report.results[i];
    line.str("");
    line << "request " << i << " solver=" << escape_result_text(r.solver);
    if (!r.ok()) {
      line << " status=error code=" << error_code_name(r.error().code)
           << " message=\"" << escape_result_text(r.error().detail) << "\"";
    } else {
      line.precision(12);
      line << " status=ok objective=" << r.objective()
           << " makespan=" << r.makespan();
    }
    out << line.str() << "\n";
  }
}

std::string format_results(const ServiceReport& report) {
  std::ostringstream out;
  write_results(out, report);
  return out.str();
}

std::string format_telemetry(const ServiceReport& report) {
  std::ostringstream out;
  // Counts/throughput come from total_solves — the latency sample is
  // decimated on long runs and would under-report both.
  const std::size_t n = report.latencies.size();
  out << "requests      : " << report.results.size() << " ("
      << report.total_solves << " solves incl. repeats)\n";
  if (report.wall_seconds > 0.0 && report.total_solves > 0) {
    out.precision(1);
    out << std::fixed << "throughput    : "
        << static_cast<double>(report.total_solves) / report.wall_seconds
        << " req/s\n";
    out.unsetf(std::ios::fixed);
  }
  if (n > 0) {
    out.precision(1);
    out << std::fixed << "latency (us)  : p50="
        << report.latencies.quantile(0.5) * 1e6
        << " p90=" << report.latencies.quantile(0.9) * 1e6
        << " p99=" << report.latencies.quantile(0.99) * 1e6
        << " max=" << report.latencies.max() * 1e6 << "\n";
    out.unsetf(std::ios::fixed);
  }
  if (report.cache.capacity == 0) {
    out << "cache         : disabled\n";
  } else {
    out.precision(4);
    out << "cache         : hits=" << report.cache.hits
        << " misses=" << report.cache.misses
        << " evictions=" << report.cache.evictions
        << " expired=" << report.cache.expired
        << " admitted=" << report.cache.admitted
        << " rejected=" << report.cache.rejected
        << " entries=" << report.cache.entries
        << " weight=" << report.cache.weight << "/" << report.cache.capacity
        << " hit_rate=" << report.cache.hit_rate() << "\n";
  }
  return out.str();
}

}  // namespace malsched::service
