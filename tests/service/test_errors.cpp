// Typed-error coverage: every ErrorCode is producible through the public
// API, and failures round-trip through write_results deterministically
// (stable `code=` names a client can parse back into the enum).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "malsched/net/frame.hpp"
#include "malsched/net/socket.hpp"
#include "malsched/service/scheduler.hpp"
#include "malsched/service/service.hpp"
#include "malsched/service/solver_registry.hpp"
#include "malsched/shard/router.hpp"

namespace mc = malsched::core;
namespace mnet = malsched::net;
namespace msvc = malsched::service;
namespace mshard = malsched::shard;

namespace {

// The library's own enumeration, so a newly added code is covered here
// without touching this file.
std::vector<msvc::ErrorCode> all_codes() {
  return {std::begin(msvc::kAllErrorCodes), std::end(msvc::kAllErrorCodes)};
}

mc::Instance small_instance() {
  return mc::Instance(2.0, {{1.0, 1.0, 1.0}, {2.0, 2.0, 0.5}});
}

// Field-by-field option builders: g++ 12 flags every designated initializer
// that leaves a member out (-Wmissing-field-initializers).
msvc::Scheduler::Options with_threads(unsigned threads) {
  msvc::Scheduler::Options options;
  options.threads = threads;
  return options;
}

msvc::SubmitOptions with_priority(double weight) {
  msvc::SubmitOptions options;
  options.priority_weight = weight;
  return options;
}

// One genuinely-produced failure per code, through the public surface.
std::vector<msvc::SolveResult> produce_all_failures() {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  std::vector<msvc::SolveResult> failures;

  // UnknownSolver: dispatch to a name nobody registered.
  failures.push_back(registry.solve("no-such-solver", small_instance()));

  // SizeGuard: the optimal solver beyond its n <= 18 guard.
  failures.push_back(registry.solve(
      "optimal",
      mc::Instance(4.0, std::vector<mc::Task>(19, {1.0, 1.0, 1.0}))));

  // ParseError: a batch request naming an instance that does not exist.
  std::string error;
  const auto batch = msvc::parse_batch(
      "instance a\nprocessors 2\ntask 1 1 1\nend\n"
      "solve wdeq ghost\n",
      &error);
  EXPECT_TRUE(batch.has_value()) << error;
  auto report = msvc::run_service(*batch, registry, {});
  failures.push_back(report.results.at(0));

  // SolverFailure: wdeq rejects a runnable zero-weight task.
  failures.push_back(registry.solve(
      "wdeq", mc::Instance(2.0, {{1.0, 1.0, 0.0}, {1.0, 1.0, 1.0}})));

  // QueueClosed: submit after Scheduler::close().
  {
    msvc::Scheduler scheduler(registry, with_threads(1));
    scheduler.close();
    auto ticket =
        scheduler.submit("wdeq", msvc::intern(small_instance()));
    failures.push_back(ticket.get());
  }

  // Cancelled: a still-queued request abandoned via Ticket::cancel().  A
  // latch solver occupies the single worker, so the second request is
  // guaranteed to be in the admission queue when the cancel lands.
  {
    std::atomic<bool> released{false};
    auto blocking = msvc::SolverRegistry::with_default_solvers();
    blocking.register_solver(
        "blocker",
        [&released](const mc::Instance& inst) {
          while (!released.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return msvc::SolveResult::success(
              "", msvc::SolveOutput{1.0, 1.0,
                                    std::vector<double>(inst.size(), 1.0)});
        },
        /*order_invariant=*/false, "test blocker", /*cacheable=*/false);
    msvc::Scheduler scheduler(blocking, with_threads(1));
    auto holder = scheduler.submit("blocker", msvc::intern(small_instance()));
    // A vanishing priority weight ranks this request far behind the blocker
    // under the default priority admission, so the worker is guaranteed to
    // pop the blocker first and this request is still queued at cancel().
    auto queued = scheduler.submit("wdeq", msvc::intern(small_instance()),
                                   with_priority(1e-9));
    EXPECT_TRUE(queued.cancel());
    failures.push_back(queued.get());
    released.store(true, std::memory_order_release);
    EXPECT_TRUE(holder.get().ok());
  }

  // DeadlineExceeded: a deadline that already passed at submission; the
  // worker resolves it at pop time without starting a solve.
  {
    msvc::Scheduler scheduler(registry, with_threads(1));
    msvc::SubmitOptions options;
    options.deadline = std::chrono::steady_clock::now();
    auto ticket =
        scheduler.submit("wdeq", msvc::intern(small_instance()), options);
    failures.push_back(ticket.get());
  }

  // ProtocolMismatch: the router dials a "worker" that greets with garbage;
  // the versioned handshake rejects it and requests fail typed.  TCP
  // transport, so no fork happens despite the threads above.
  {
    std::string net_error;
    std::uint16_t port = 0;
    const int listen_fd =
        mnet::tcp_listen({"127.0.0.1", 0}, &net_error, &port);
    EXPECT_GE(listen_fd, 0) << net_error;
    std::thread impostor([listen_fd] {
      std::string accept_error;
      const int fd = mnet::tcp_accept(
          listen_fd, std::chrono::milliseconds(10000), &accept_error);
      if (fd >= 0) {
        (void)mnet::write_frame(fd, "HTTP/1.1 200 OK");
        std::string ignored;
        (void)mnet::read_frame(fd, &ignored);  // drain the router's hello
        ::close(fd);
      }
    });
    mshard::RouterOptions router_options;
    router_options.tcp_workers = {{"127.0.0.1", port}};
    mshard::ShardRouter router(registry, router_options);
    impostor.join();
    ::close(listen_fd);
    const auto batch = msvc::parse_batch(
        "instance a\nprocessors 2\ntask 1 1 1\nend\nsolve wdeq a\n", &error);
    EXPECT_TRUE(batch.has_value()) << error;
    failures.push_back(router.run(*batch).results.at(0));
  }
  return failures;
}

}  // namespace

TEST(Errors, CodeNamesAreUniqueAndRoundTrip) {
  std::set<std::string> names;
  for (const msvc::ErrorCode code : all_codes()) {
    const std::string name = msvc::error_code_name(code);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    const auto parsed = msvc::parse_error_code(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(msvc::parse_error_code("no-such-code").has_value());
  EXPECT_FALSE(msvc::parse_error_code("").has_value());
}

TEST(Errors, ToStringLeadsWithTheCodeName) {
  const msvc::SolveError error{msvc::ErrorCode::SizeGuard, "n too large"};
  EXPECT_EQ(error.to_string(), "size-guard: n too large");
}

TEST(Errors, EveryCodeIsProducibleThroughThePublicApi) {
  const auto failures = produce_all_failures();
  ASSERT_EQ(failures.size(), all_codes().size());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    ASSERT_FALSE(failures[i].ok()) << i;
    EXPECT_EQ(failures[i].error().code, all_codes()[i])
        << "failure " << i << ": " << failures[i].error().to_string();
    EXPECT_FALSE(failures[i].error().detail.empty()) << i;
  }
}

TEST(Errors, FailuresRoundTripThroughWriteResultsDeterministically) {
  msvc::ServiceReport report;
  report.results = produce_all_failures();

  const std::string first = msvc::format_results(report);
  const std::string second = msvc::format_results(report);
  EXPECT_EQ(first, second) << "write_results must be deterministic";

  // Each line carries `code=<name>` that parses back to the original enum.
  std::istringstream lines(first);
  std::string line;
  std::size_t index = 0;
  while (std::getline(lines, line)) {
    ASSERT_LT(index, report.results.size());
    EXPECT_NE(line.find("status=error"), std::string::npos) << line;
    const auto pos = line.find("code=");
    ASSERT_NE(pos, std::string::npos) << line;
    const auto end = line.find(' ', pos);
    const std::string name = line.substr(pos + 5, end - (pos + 5));
    const auto parsed = msvc::parse_error_code(name);
    ASSERT_TRUE(parsed.has_value()) << "unparseable code '" << name << "'";
    EXPECT_EQ(*parsed, report.results[index].error().code) << line;
    ++index;
  }
  EXPECT_EQ(index, report.results.size());
}

TEST(Errors, SuccessAndErrorAccessorsAreExclusive) {
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  const auto ok = registry.solve("wdeq", small_instance());
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_GT(ok.objective(), 0.0);

  const auto bad = registry.solve("bogus", small_instance());
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(static_cast<bool>(bad));
  EXPECT_EQ(bad.error().code, msvc::ErrorCode::UnknownSolver);

  // Default-constructed results are failures until filled in.
  EXPECT_FALSE(msvc::SolveResult{}.ok());
}
