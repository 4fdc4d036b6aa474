// Worker-side contracts of the fleet protocol, driven over a socketpair
// with run_worker on an in-process thread (no fork, so these tests can use
// custom instrumented solvers): the versioned handshake gate, fail-closed
// parsing of data frames after it, and the at-most-once idempotency-token
// guarantee that makes router retries safe.

#include "malsched/shard/worker.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "malsched/core/instance.hpp"
#include "malsched/shard/wire.hpp"

namespace mc = malsched::core;
namespace msvc = malsched::service;
namespace mshard = malsched::shard;
namespace wire = malsched::shard::wire;

namespace {

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    for (const int fd : fds) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
  void close_end(int index) {
    ::close(fds[index]);
    fds[index] = -1;
  }
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

mc::Instance small_instance() {
  return mc::Instance(2.0, {{1.0, 1.0, 1.0}, {2.0, 2.0, 0.5}});
}

// Sends a solve frame and returns true on success.
bool send_solve(int fd, std::uint64_t id, std::uint64_t token,
                const std::string& solver, const std::string& name) {
  wire::SolveMessage message;
  message.id = id;
  message.token = token;
  message.solver = solver;
  message.instance_name = name;
  return wire::write_frame(fd, wire::encode_solve(message));
}

// Reads and decodes one result frame.
wire::ResultMessage read_result(int fd) {
  std::string payload;
  EXPECT_TRUE(wire::read_frame(fd, &payload));
  const auto message = wire::decode_result(payload);
  EXPECT_TRUE(message.has_value()) << payload;
  return message.value_or(wire::ResultMessage{});
}

// Completes a valid handshake and primes instance "a", then sends one
// malformed data frame; returns run_worker's exit code.  A TCP worker
// parses these bytes straight off the network, so a bad frame must end the
// connection with the protocol-error code, never crash or hang.
int exit_code_after_bad_frame(const std::string& bad_frame) {
  SocketPair channel;
  int rc = -1;
  std::thread worker([&] {
    const auto registry = msvc::SolverRegistry::with_default_solvers();
    mshard::WorkerOptions options;
    options.threads = 1;
    rc = mshard::run_worker(channel.fds[1], registry, options);
  });
  const int fd = channel.fds[0];
  EXPECT_TRUE(wire::handshake(fd, "router", std::chrono::seconds(10)));
  EXPECT_TRUE(
      wire::write_frame(fd, wire::encode_instance("a", small_instance())));
  EXPECT_TRUE(wire::write_frame(fd, bad_frame));
  // Closing turns a worker that wrongly skipped the bad frame into a clean
  // EOF exit (code 0) instead of a hung test.
  channel.close_end(0);
  worker.join();
  return rc;
}

}  // namespace

TEST(Worker, GarbageGreetingIsRejectedWithExitCode2) {
  // A port scanner (or an HTTP client) that reaches a worker's fd must be
  // turned away by the handshake before a Scheduler is even constructed.
  SocketPair channel;
  int rc = -1;
  std::thread worker([&] {
    const auto registry = msvc::SolverRegistry::with_default_solvers();
    mshard::WorkerOptions options;
    options.threads = 1;
    rc = mshard::run_worker(channel.fds[1], registry, options);
  });
  ASSERT_TRUE(wire::write_frame(channel.fds[0], "GET / HTTP/1.1"));
  // Drain the worker's own hello so its write cannot block, then close.
  std::string ignored;
  ASSERT_TRUE(wire::read_frame(channel.fds[0], &ignored));
  worker.join();
  EXPECT_EQ(rc, 2);
}

TEST(Worker, TruncatedBinarySolveAfterHandshakeExitsWithCode1) {
  wire::SolveMessage message;
  message.id = 1;
  message.token = 1;
  message.solver = "wdeq";
  message.instance_name = "a";
  const std::string solve = wire::encode_solve(message);
  EXPECT_EQ(exit_code_after_bad_frame(solve.substr(0, solve.size() - 1)), 1);
}

TEST(Worker, Version3TextSolveAfterHandshakeExitsWithCode1) {
  // The pre-v4 hexfloat text form of `solve`: its keyword still names the
  // message, but the body is no longer a data frame this build parses.
  EXPECT_EQ(exit_code_after_bad_frame("solve 1 1 0x1p+0 - wdeq a"), 1);
}

TEST(Worker, NanDeadlineSolveAfterHandshakeExitsWithCode1) {
  // A well-formed solve whose deadline is NaN: admitting it would hand the
  // NaN to a steady_clock duration_cast, so it is a protocol error.
  wire::SolveMessage message;
  message.id = 1;
  message.token = 1;
  message.deadline_seconds = std::numeric_limits<double>::quiet_NaN();
  message.solver = "wdeq";
  message.instance_name = "a";
  EXPECT_EQ(exit_code_after_bad_frame(wire::encode_solve(message)), 1);
}

TEST(Worker, CompletedTokenIsReplayedVerbatimNotReSolved) {
  // The router's retry-on-replica failover is only safe because a worker
  // solves each idempotency token at most once.  An instrumented
  // non-cacheable solver counts executions; the duplicate's result must be
  // bit-identical — latency included, which pins replay-from-memo (a
  // re-solve could not reproduce the wall-clock latency bit for bit).
  std::atomic<int> solves{0};
  auto registry = msvc::SolverRegistry::with_default_solvers();
  registry.register_solver(
      "counting",
      [&solves](const mc::Instance& inst) {
        solves.fetch_add(1, std::memory_order_relaxed);
        return msvc::SolveResult::success(
            "counting",
            msvc::SolveOutput{1.5, 2.0,
                              std::vector<double>(inst.size(), 1.0)});
      },
      /*order_invariant=*/false, "execution counter", /*cacheable=*/false);

  SocketPair channel;
  int rc = -1;
  std::thread worker([&] {
    mshard::WorkerOptions options;
    options.threads = 1;
    rc = mshard::run_worker(channel.fds[1], registry, options);
  });

  const int fd = channel.fds[0];
  ASSERT_TRUE(wire::handshake(fd, "router", std::chrono::seconds(10)));
  ASSERT_TRUE(
      wire::write_frame(fd, wire::encode_instance("a", small_instance())));

  ASSERT_TRUE(send_solve(fd, /*id=*/1, /*token=*/7, "counting", "a"));
  const auto original = read_result(fd);
  EXPECT_EQ(original.id, 1u);
  EXPECT_EQ(original.token, 7u);
  ASSERT_TRUE(original.result.ok());

  // Same token, new wire id — exactly what a router retry looks like.
  ASSERT_TRUE(send_solve(fd, /*id=*/2, /*token=*/7, "counting", "a"));
  const auto replay = read_result(fd);
  EXPECT_EQ(replay.id, 2u);
  EXPECT_EQ(replay.token, 7u);
  ASSERT_TRUE(replay.result.ok());
  EXPECT_EQ(solves.load(), 1) << "duplicate token must not re-solve";
  EXPECT_TRUE(bits_equal(replay.result.latency_seconds,
                         original.result.latency_seconds))
      << "a replay is observably the original solve, latency included";
  EXPECT_TRUE(
      bits_equal(replay.result.objective(), original.result.objective()));
  EXPECT_EQ(replay.result.cache_hit, original.result.cache_hit);

  // Token 0 opts out of idempotency: the same request solved twice.
  ASSERT_TRUE(send_solve(fd, /*id=*/3, /*token=*/0, "counting", "a"));
  (void)read_result(fd);
  ASSERT_TRUE(send_solve(fd, /*id=*/4, /*token=*/0, "counting", "a"));
  (void)read_result(fd);
  EXPECT_EQ(solves.load(), 3);

  channel.close_end(0);
  worker.join();
  EXPECT_EQ(rc, 0);
}

TEST(Worker, InFlightTokenParksTheDuplicateAndRepliesToBothIds) {
  // The race the memo cannot cover: the duplicate arrives while the
  // original is still solving.  It must park (not re-solve) and receive
  // the original's result under its own wire id once that finishes.
  std::atomic<bool> released{false};
  std::atomic<int> solves{0};
  auto registry = msvc::SolverRegistry::with_default_solvers();
  registry.register_solver(
      "latch",
      [&](const mc::Instance& inst) {
        solves.fetch_add(1, std::memory_order_relaxed);
        while (!released.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return msvc::SolveResult::success(
            "latch", msvc::SolveOutput{1.0, 1.0,
                                       std::vector<double>(inst.size(), 1.0)});
      },
      /*order_invariant=*/false, "latch solver", /*cacheable=*/false);

  SocketPair channel;
  int rc = -1;
  std::thread worker([&] {
    mshard::WorkerOptions options;
    options.threads = 1;
    rc = mshard::run_worker(channel.fds[1], registry, options);
  });

  const int fd = channel.fds[0];
  ASSERT_TRUE(wire::handshake(fd, "router", std::chrono::seconds(10)));
  ASSERT_TRUE(
      wire::write_frame(fd, wire::encode_instance("a", small_instance())));

  ASSERT_TRUE(send_solve(fd, /*id=*/10, /*token=*/5, "latch", "a"));
  while (solves.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The original is provably mid-solve; this duplicate must park.
  ASSERT_TRUE(send_solve(fd, /*id=*/11, /*token=*/5, "latch", "a"));
  released.store(true, std::memory_order_release);

  const auto first = read_result(fd);
  const auto second = read_result(fd);
  EXPECT_EQ(first.id, 10u) << "original resolves first";
  EXPECT_EQ(second.id, 11u) << "parked duplicate replays right behind it";
  EXPECT_EQ(first.token, 5u);
  EXPECT_EQ(second.token, 5u);
  ASSERT_TRUE(first.result.ok());
  ASSERT_TRUE(second.result.ok());
  EXPECT_EQ(solves.load(), 1);
  EXPECT_TRUE(bits_equal(second.result.latency_seconds,
                         first.result.latency_seconds));

  channel.close_end(0);
  worker.join();
  EXPECT_EQ(rc, 0);
}

TEST(Worker, DrainCountsSolvesOnceDespiteReplays) {
  // A memo replay answers from the reader thread without touching the
  // delivery pipeline, so drain's acknowledgement still counts each
  // request solved effectively once.
  const auto registry = msvc::SolverRegistry::with_default_solvers();
  SocketPair channel;
  int rc = -1;
  std::thread worker([&] {
    mshard::WorkerOptions options;
    options.threads = 1;
    rc = mshard::run_worker(channel.fds[1], registry, options);
  });

  const int fd = channel.fds[0];
  ASSERT_TRUE(wire::handshake(fd, "router", std::chrono::seconds(10)));
  ASSERT_TRUE(
      wire::write_frame(fd, wire::encode_instance("a", small_instance())));
  ASSERT_TRUE(send_solve(fd, /*id=*/1, /*token=*/3, "wdeq", "a"));
  ASSERT_TRUE(read_result(fd).result.ok());
  ASSERT_TRUE(send_solve(fd, /*id=*/2, /*token=*/3, "wdeq", "a"));
  ASSERT_TRUE(read_result(fd).result.ok());

  ASSERT_TRUE(wire::write_frame(fd, "drain"));
  std::string payload;
  ASSERT_TRUE(wire::read_frame(fd, &payload));
  EXPECT_EQ(payload, "drained 1") << "the replay is not a second delivery";

  channel.close_end(0);
  worker.join();
  EXPECT_EQ(rc, 0);
}
