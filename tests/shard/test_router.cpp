// End-to-end tests of multi-process sharded serving: a ShardRouter forks
// real worker processes and must (a) produce bit-identical results to the
// single-process service, (b) survive worker death without hanging, and
// (c) rebalance/restart around the consistent-hash ring.
//
// These tests fork.  GoogleTest's main thread is the only thread alive when
// a router is constructed (the routers spawn before any in-process
// Scheduler), which is the documented spawning contract.

#include "malsched/shard/router.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "malsched/core/instance.hpp"
#include "malsched/net/socket.hpp"
#include "malsched/service/scheduler.hpp"
#include "malsched/service/service.hpp"
#include "malsched/shard/hash_ring.hpp"
#include "malsched/shard/worker.hpp"
#include "malsched/support/faultpoint.hpp"

namespace mc = malsched::core;
namespace mnet = malsched::net;
namespace msvc = malsched::service;
namespace mshard = malsched::shard;
namespace msup = malsched::support;

namespace {

const msvc::SolverRegistry& registry() {
  static const auto instance = msvc::SolverRegistry::with_default_solvers();
  return instance;
}

msvc::BatchSpec parse(const std::string& text) {
  std::string error;
  const auto batch = msvc::parse_batch(text, &error);
  EXPECT_TRUE(batch.has_value()) << error;
  return *batch;
}

// A mixed batch covering the solver zoo, scaled duplicates (cache traffic),
// and the typed error paths that must round-trip the wire byte-identically:
// unknown solver, SizeGuard, solver rejection, unknown instance.
const char* kParityBatch = R"(
instance small
processors 4
task 2.0 2 1.0
task 1.5 1 0.5
task 0.75 3 2.0
end
instance small-scaled          # power-of-two scaling: same canonical key
processors 4
task 4.0 2 4.0
task 3.0 1 2.0
task 1.5 3 8.0
end
instance tiny
processors 2
task 1.0 1 1.0
task 0.5 2 3.0
end
generate mid uniform 24 8 42
generate heavy heavy-tail-volumes 40 16 7
generate toolarge uniform 19 4 3
instance badweights
processors 2
task 1.0 1 0.0
end
solve wdeq small
solve deq small
solve wrr mid
solve smith-greedy mid
solve greedy-heuristic heavy
solve water-fill-smith mid
solve order-lp-smith heavy
solve optimal tiny
weight 3
solve wdeq small-scaled
solve wdeq heavy
weight 1
solve no-such-solver small
solve no"such small
solve optimal toolarge
solve wdeq badweights
solve wdeq ghost
solve wdeq mid
)";

}  // namespace

TEST(Router, ShardedResultsAreBitIdenticalToSingleProcess) {
  const auto batch = parse(kParityBatch);

  mshard::RouterOptions router_options;
  router_options.shards = 2;
  router_options.worker.threads = 2;
  std::string sharded;
  msvc::CacheStats sharded_cache;
  {
    mshard::ShardRouter router(registry(), router_options);
    ASSERT_EQ(router.alive_count(), 2u);
    mshard::RouterRunOptions run_options;
    run_options.repeat = 2;  // round 2 exercises the warm worker caches
    const auto report = router.run(batch, run_options);
    sharded = msvc::format_results(report);
    sharded_cache = report.cache;
    // The ghost-instance request resolves at routing time and is excluded
    // from the solve count, exactly as run_service excludes it.
    EXPECT_EQ(report.total_solves, 2 * (batch.requests.size() - 1));
  }

  msvc::ServiceOptions service_options;
  service_options.threads = 2;
  service_options.repeat = 2;
  const auto single = msvc::format_results(
      msvc::run_service(batch, registry(), service_options));

  EXPECT_EQ(sharded, single)
      << "sharded serving must be indistinguishable from single-process "
         "serving, byte for byte";

  // Round 2 re-solved nothing: every repeat hit a worker cache, and the
  // scaled duplicate shares its base instance's canonical entry.
  EXPECT_GE(sharded_cache.hits, batch.requests.size() - 4)
      << "repeat round should be served from the worker caches";
  // Two workers, each its own cache: aggregate capacity is the sum.
  EXPECT_EQ(sharded_cache.capacity, 2 * (std::size_t{1} << 20));
}

TEST(Router, EquivalentInstancesRouteToTheSameWorker) {
  // small and small-scaled differ by power-of-two volume/weight scaling,
  // so they share a canonical key and therefore a worker (and its cache).
  const auto batch = parse(kParityBatch);
  const auto key_of = [&](const std::string& name) {
    return msvc::intern(batch.instances.at(name)).key();
  };
  ASSERT_EQ(key_of("small"), key_of("small-scaled"));

  mshard::RouterOptions options;
  options.shards = 4;
  mshard::ShardRouter router(registry(), options);
  EXPECT_EQ(router.owner_of(key_of("small")),
            router.owner_of(key_of("small-scaled")));
}

TEST(Router, WorkerKilledMidSolveResolvesSolverFailureNotAHang) {
  // One request whose exact solve runs ~a minute; the owning worker is
  // SIGKILLed out-of-band ~150 ms in.  The router must detect the death,
  // resolve the request with a typed SolverFailure, and return promptly.
  const auto batch = parse(
      "generate hard equal-weights 12 4 1\n"
      "solve optimal hard\n");
  const std::uint64_t key = msvc::intern(batch.instances.at("hard")).key();

  mshard::RouterOptions options;
  options.shards = 2;
  mshard::ShardRouter router(registry(), options);
  const std::uint32_t owner = router.owner_of(key);
  const pid_t victim = router.pid_of(owner);
  ASSERT_GT(victim, 0);

  std::thread killer([victim] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ::kill(victim, SIGKILL);
  });
  const auto start = std::chrono::steady_clock::now();
  const auto report = router.run(batch);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  killer.join();

  ASSERT_EQ(report.results.size(), 1u);
  ASSERT_FALSE(report.results[0].ok());
  EXPECT_EQ(report.results[0].error().code, msvc::ErrorCode::SolverFailure);
  EXPECT_NE(report.results[0].error().detail.find("died"), std::string::npos);
  EXPECT_LT(seconds, 30.0) << "worker death must fail fast, not hang";
  EXPECT_FALSE(router.alive(owner));
  EXPECT_EQ(router.alive_count(), 1u);
  EXPECT_FALSE(router.ring().contains(owner)) << "ring must rebalance";
}

TEST(Router, ReplicationFailsOverQueuedRequestsToTheReplica) {
  // With replication = 2 both workers hold every instance; killing the
  // primary before the run leaves the replica to serve everything.
  const auto batch = parse(
      "instance a\nprocessors 4\ntask 2.0 2 1.0\ntask 1.0 1 1.0\nend\n"
      "solve wdeq a\nsolve deq a\nsolve order-lp-smith a\n");
  const std::uint64_t key = msvc::intern(batch.instances.at("a")).key();

  mshard::RouterOptions options;
  options.shards = 2;
  options.replication = 2;
  mshard::ShardRouter router(registry(), options);
  const std::uint32_t primary = router.owner_of(key);
  router.kill(primary);
  EXPECT_EQ(router.alive_count(), 1u);

  const auto report = router.run(batch);
  for (const auto& result : report.results) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }
}

TEST(Router, KillBeforeRunRebalancesOwnershipToTheSurvivor) {
  // A worker killed *between* runs leaves the ring before placement, so the
  // consistent-hash arc reassigns to the survivor and the request succeeds
  // — mid-run death (the race the ring cannot absorb) is the case that
  // fails typed, covered by WorkerKilledMidSolveResolvesSolverFailure.
  const auto batch = parse(
      "instance a\nprocessors 4\ntask 2.0 2 1.0\nend\nsolve wdeq a\n");
  const std::uint64_t key = msvc::intern(batch.instances.at("a")).key();

  mshard::RouterOptions options;
  options.shards = 2;
  options.replication = 1;
  mshard::ShardRouter router(registry(), options);
  const std::uint32_t original_owner = router.owner_of(key);
  router.kill(original_owner);

  const auto report = router.run(batch);
  ASSERT_EQ(report.results.size(), 1u);
  ASSERT_TRUE(report.results[0].ok()) << report.results[0].error().to_string();
  EXPECT_NE(router.owner_of(key), original_owner);
}

TEST(Router, WholeFleetDownFailsEveryRequestTyped) {
  const auto batch = parse(
      "instance a\nprocessors 4\ntask 2.0 2 1.0\nend\nsolve wdeq a\n");
  mshard::ShardRouter router(registry(), mshard::RouterOptions{});
  router.kill(0);
  router.kill(1);
  const auto report = router.run(batch);
  ASSERT_EQ(report.results.size(), 1u);
  ASSERT_FALSE(report.results[0].ok());
  EXPECT_EQ(report.results[0].error().code, msvc::ErrorCode::SolverFailure);
}

TEST(Router, PingHealthChecksAndDrainAcknowledge) {
  mshard::ShardRouter router(registry(), mshard::RouterOptions{});
  EXPECT_TRUE(router.ping(0));
  EXPECT_TRUE(router.ping(1));
  EXPECT_TRUE(router.drain(0));

  router.kill(1);
  EXPECT_FALSE(router.ping(1));
  EXPECT_FALSE(router.drain(1));
  EXPECT_FALSE(router.ping(99));  // out of range
}

TEST(Router, RestartRespawnsAndReplantsTheRing) {
  const auto batch = parse(
      "generate work uniform 16 4 5\n"
      "solve wdeq work\nsolve order-lp-smith work\n");

  mshard::RouterOptions options;
  options.shards = 2;
  mshard::ShardRouter router(registry(), options);

  router.kill(0);
  EXPECT_EQ(router.alive_count(), 1u);
  EXPECT_FALSE(router.ring().contains(0));

  ASSERT_TRUE(router.restart(0));
  EXPECT_EQ(router.alive_count(), 2u);
  EXPECT_TRUE(router.ring().contains(0));
  EXPECT_TRUE(router.ping(0));

  // Restarting an alive worker drains it first and also succeeds.
  ASSERT_TRUE(router.restart(1));
  EXPECT_EQ(router.alive_count(), 2u);

  const auto report = router.run(batch);
  for (const auto& result : report.results) {
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }
}

TEST(Router, DeadlineExceededCrossesTheProcessBoundaryTyped) {
  // `deadline 0` expires the moment the worker pops it: the typed code must
  // survive the wire (the detail text is wall-clock flavored, so this is
  // not part of the byte-parity batch).
  const auto batch = parse(
      "instance a\nprocessors 4\ntask 2.0 2 1.0\nend\n"
      "deadline 0\nsolve wdeq a\n");
  mshard::ShardRouter router(registry(), mshard::RouterOptions{});
  const auto report = router.run(batch);
  ASSERT_EQ(report.results.size(), 1u);
  ASSERT_FALSE(report.results[0].ok());
  EXPECT_EQ(report.results[0].error().code,
            msvc::ErrorCode::DeadlineExceeded);
}

TEST(Router, SingleShardDegeneratesToOneWorkerService) {
  const auto batch = parse(
      "generate work bandwidth-like 12 8 9\n"
      "solve wdeq work\nsolve greedy-heuristic work\n");
  mshard::RouterOptions options;
  options.shards = 1;
  mshard::ShardRouter router(registry(), options);
  const auto sharded = msvc::format_results(router.run(batch));

  msvc::ServiceOptions service_options;
  service_options.threads = 1;
  const auto single = msvc::format_results(
      msvc::run_service(batch, registry(), service_options));
  EXPECT_EQ(sharded, single);
}

TEST(Router, PerWorkerCacheStatsSumToAggregateAndExposeTtlExpiry) {
  const auto batch = parse(kParityBatch);
  mshard::RouterOptions options;
  options.shards = 2;
  options.worker.threads = 2;
  options.worker.cache_ttl_seconds = 0.2;
  mshard::ShardRouter router(registry(), options);
  ASSERT_EQ(router.alive_count(), 2u);

  const auto report = router.run(batch);
  // The per-worker view decomposes the run's aggregate exactly.
  msvc::CacheStats sum;
  for (std::size_t w = 0; w < router.shard_count(); ++w) {
    const auto stats = router.worker_cache_stats(w);
    ASSERT_TRUE(stats.has_value()) << "worker " << w;
    sum.hits += stats->hits;
    sum.misses += stats->misses;
    sum.evictions += stats->evictions;
    sum.expired += stats->expired;
    sum.admitted += stats->admitted;
    sum.rejected += stats->rejected;
    sum.entries += stats->entries;
    sum.weight += stats->weight;
    sum.capacity += stats->capacity;
  }
  EXPECT_EQ(sum.hits, report.cache.hits);
  EXPECT_EQ(sum.misses, report.cache.misses);
  EXPECT_EQ(sum.expired, report.cache.expired);
  EXPECT_EQ(sum.admitted, report.cache.admitted);
  EXPECT_EQ(sum.rejected, report.cache.rejected);
  EXPECT_EQ(sum.entries, report.cache.entries);
  EXPECT_EQ(sum.weight, report.cache.weight);
  EXPECT_EQ(sum.capacity, report.cache.capacity);
  EXPECT_EQ(sum.expired, 0u);  // nothing aged out yet
  EXPECT_GT(sum.entries, 0u);

  // Let the TTL lapse; the re-run's lookups age the old entries out, and
  // the per-worker counters make the expirations attributable to a shard.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  (void)router.run(batch);
  std::uint64_t expired = 0;
  for (std::size_t w = 0; w < router.shard_count(); ++w) {
    const auto stats = router.worker_cache_stats(w);
    ASSERT_TRUE(stats.has_value()) << "worker " << w;
    expired += stats->expired;
  }
  EXPECT_GT(expired, 0u);

  // Out-of-range and dead workers answer nullopt, not a hang.
  EXPECT_FALSE(router.worker_cache_stats(99).has_value());
  router.kill(0);
  EXPECT_FALSE(router.worker_cache_stats(0).has_value());
  EXPECT_TRUE(router.worker_cache_stats(1).has_value());
}

TEST(Router, TransportStatsCountHandshakesAndDeaths) {
  mshard::RouterOptions options;
  options.shards = 2;
  mshard::ShardRouter router(registry(), options);
  const auto& stats = router.transport_stats();
  EXPECT_EQ(stats.handshakes, 2u) << "one hello exchange per forked worker";
  EXPECT_EQ(stats.handshake_failures, 0u);
  EXPECT_EQ(stats.dead_peers, 0u);

  router.kill(0);
  EXPECT_EQ(router.transport_stats().dead_peers, 1u);
  ASSERT_TRUE(router.restart(0));
  EXPECT_EQ(router.transport_stats().handshakes, 3u)
      << "a restart re-runs the versioned handshake";
}

TEST(Router, MidSolveDeathRetriesOnThePrimedReplicaUnderTheSameToken) {
  // The failover upgrade replication buys: the primary is SIGKILLed while
  // a solve is *in flight* (already sent, not yet answered).  The dead
  // worker may or may not have executed it — the router must replay it on
  // the replica under the same idempotency token and still succeed, where
  // replication=1 could only fail typed (WorkerKilledMidSolve... above).
  auto sleepy = msvc::SolverRegistry::with_default_solvers();
  sleepy.register_solver(
      "sleepy",
      [](const mc::Instance& inst) {
        std::this_thread::sleep_for(std::chrono::milliseconds(700));
        return msvc::SolveResult::success(
            "sleepy", msvc::SolveOutput{1.0, 1.0,
                                        std::vector<double>(inst.size(), 1.0)});
      },
      /*order_invariant=*/false, "slow success", /*cacheable=*/false);

  const auto batch = parse(
      "instance a\nprocessors 4\ntask 2.0 2 1.0\ntask 1.0 1 1.0\nend\n"
      "solve sleepy a\n");
  const std::uint64_t key = msvc::intern(batch.instances.at("a")).key();

  mshard::RouterOptions options;
  options.shards = 2;
  options.replication = 2;
  mshard::ShardRouter router(sleepy, options);
  const std::uint32_t primary = router.owner_of(key);
  const pid_t victim = router.pid_of(primary);
  ASSERT_GT(victim, 0);

  std::thread killer([victim] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::kill(victim, SIGKILL);
  });
  const auto report = router.run(batch);
  killer.join();

  ASSERT_EQ(report.results.size(), 1u);
  ASSERT_TRUE(report.results[0].ok())
      << "the retry on the primed replica must succeed: "
      << report.results[0].error().to_string();
  EXPECT_FALSE(router.alive(primary));
  const auto& stats = router.transport_stats();
  EXPECT_EQ(stats.dead_peers, 1u);
  EXPECT_GE(stats.retries_replayed, 1u)
      << "the in-flight request must have been replayed, not failed";
}

TEST(Router, TcpWorkersMatchSingleProcessByteForByte) {
  // The multi-host data path end to end: two in-process "remote" workers
  // behind real TCP listeners on ephemeral loopback ports, dialed by the
  // router exactly as `--workers host:port,...` would.  Output must be
  // byte-identical to single-process serving — same contract the fork
  // transport honors.  No fork happens here, so the worker threads are
  // safe; they are joined before the test returns.
  struct TcpWorker {
    int listen_fd = -1;
    std::uint16_t port = 0;
    std::thread thread;
    int rc = -1;
  };
  std::vector<TcpWorker> fleet(2);
  for (auto& worker : fleet) {
    std::string error;
    worker.listen_fd =
        mnet::tcp_listen({"127.0.0.1", 0}, &error, &worker.port);
    ASSERT_GE(worker.listen_fd, 0) << error;
    worker.thread = std::thread([&worker] {
      std::string accept_error;
      const int fd = mnet::tcp_accept(
          worker.listen_fd, std::chrono::seconds(30), &accept_error);
      if (fd < 0) {
        return;  // rc stays -1 and the assertions below flag it
      }
      mshard::WorkerOptions options;
      options.threads = 2;
      worker.rc = mshard::run_worker(fd, registry(), options);
      ::close(fd);
    });
  }

  const auto batch = parse(kParityBatch);
  std::string sharded;
  {
    mshard::RouterOptions options;
    options.tcp_workers = {{"127.0.0.1", fleet[0].port},
                           {"127.0.0.1", fleet[1].port}};
    options.worker.threads = 2;
    mshard::ShardRouter router(registry(), options);
    ASSERT_EQ(router.shard_count(), 2u);
    ASSERT_EQ(router.alive_count(), 2u);
    EXPECT_EQ(router.transport_stats().handshakes, 2u);
    EXPECT_EQ(router.pid_of(0), -1) << "TCP workers are not our processes";
    EXPECT_TRUE(router.ping(0));
    sharded = msvc::format_results(router.run(batch));
  }  // router teardown closes the connections: EOF = clean worker exit

  for (auto& worker : fleet) {
    worker.thread.join();
    ::close(worker.listen_fd);
    EXPECT_EQ(worker.rc, 0) << "TCP worker must exit cleanly on EOF";
  }

  msvc::ServiceOptions service_options;
  service_options.threads = 2;
  const auto single = msvc::format_results(
      msvc::run_service(batch, registry(), service_options));
  EXPECT_EQ(sharded, single)
      << "the TCP fleet must be indistinguishable from single-process "
         "serving, byte for byte";
}

// --- data plane: shared-memory rings vs the socketpair fallback ---

TEST(Router, DataPlaneChoiceCannotChangeASingleOutputByte) {
  // The tentpole contract: shm rings, socketpair frames and single-process
  // serving are indistinguishable byte for byte, hostile error paths
  // included.  Runs the full parity batch under both forced planes.
  const auto batch = parse(kParityBatch);
  const auto run_with = [&](mshard::DataPlaneMode mode, const char* expect) {
    mshard::RouterOptions options;
    options.shards = 2;
    options.worker.threads = 2;
    options.data_plane = mode;
    mshard::ShardRouter router(registry(), options);
    EXPECT_EQ(router.transport_stats().shm_fallbacks, 0u);
    const std::string output = msvc::format_results(router.run(batch));
    for (std::size_t w = 0; w < router.shard_count(); ++w) {
      const auto stats = router.data_plane_stats(w);
      if (!stats.has_value()) {
        ADD_FAILURE() << "worker " << w << " has no data plane";
        continue;
      }
      EXPECT_STREQ(stats->plane, expect) << "worker " << w;
      EXPECT_GT(stats->frames_out, 0u) << "worker " << w;
      EXPECT_GT(stats->frames_in, 0u) << "worker " << w;
      EXPECT_GT(stats->bytes_in, 0u) << "worker " << w;
      // Between runs every ring has been drained.
      EXPECT_EQ(stats->request_depth, 0u);
      EXPECT_EQ(stats->response_depth, 0u);
    }
    return output;
  };

  const std::string over_shm = run_with(mshard::DataPlaneMode::Auto, "shm");
  const std::string over_pipes =
      run_with(mshard::DataPlaneMode::Socketpair, "socketpair");

  msvc::ServiceOptions service_options;
  service_options.threads = 2;
  const auto single = msvc::format_results(
      msvc::run_service(batch, registry(), service_options));
  EXPECT_EQ(over_shm, single)
      << "shm data plane must be indistinguishable from single-process";
  EXPECT_EQ(over_pipes, single)
      << "socketpair data plane must be indistinguishable from "
         "single-process";
}

TEST(Router, ShmSetupFailureFallsBackToSocketpairCountedAndServing) {
  // MALSCHED_SHM_DISABLE makes every ShmRegion::create fail, which is
  // exactly what a locked-down mmap would do: the router must degrade to
  // socketpair per worker, count it, and keep the byte-parity contract.
  ::setenv(mnet::kShmDisableEnv, "1", 1);
  const auto batch = parse(
      "instance a\nprocessors 4\ntask 2.0 2 1.0\ntask 1.0 1 1.0\nend\n"
      "solve wdeq a\nsolve deq a\n");
  std::string fallback_output;
  {
    mshard::RouterOptions options;
    options.shards = 2;
    options.data_plane = mshard::DataPlaneMode::Auto;  // ask, get denied
    mshard::ShardRouter router(registry(), options);
    EXPECT_EQ(router.transport_stats().shm_fallbacks, 2u)
        << "every worker should have fallen back";
    for (std::size_t w = 0; w < router.shard_count(); ++w) {
      const auto stats = router.data_plane_stats(w);
      ASSERT_TRUE(stats.has_value());
      EXPECT_STREQ(stats->plane, "socketpair");
    }
    fallback_output = msvc::format_results(router.run(batch));
  }
  ::unsetenv(mnet::kShmDisableEnv);

  msvc::ServiceOptions service_options;
  service_options.threads = 1;
  const auto single = msvc::format_results(
      msvc::run_service(batch, registry(), service_options));
  EXPECT_EQ(fallback_output, single);
}

TEST(Router, KillAndRestartUnderShmReplantsFreshRings) {
  // A respawned worker must come back on a *fresh* shm channel — stale
  // head/tail or a closed flag from the dead incarnation must not leak in.
  const auto batch = parse(
      "generate work uniform 16 4 5\n"
      "solve wdeq work\nsolve order-lp-smith work\n");
  mshard::RouterOptions options;
  options.shards = 2;
  options.data_plane = mshard::DataPlaneMode::Auto;
  mshard::ShardRouter router(registry(), options);

  const auto first = msvc::format_results(router.run(batch));
  router.kill(0);
  EXPECT_FALSE(router.data_plane_stats(0).has_value())
      << "a dead worker has no plane";
  ASSERT_TRUE(router.restart(0));
  EXPECT_TRUE(router.ping(0));
  const auto stats = router.data_plane_stats(0);
  ASSERT_TRUE(stats.has_value());
  EXPECT_STREQ(stats->plane, "shm");
  EXPECT_EQ(stats->request_depth, 0u) << "restart must reset the rings";
  EXPECT_EQ(stats->response_depth, 0u);

  const auto second = msvc::format_results(router.run(batch));
  EXPECT_EQ(second, first)
      << "a restarted shm worker must serve identically";
}

TEST(Router, MidSolveDeathUnderShmFailsTypedNotHung) {
  // WorkerKilledMidSolve... again, but with the data plane forced to shm:
  // the death evidence is ring silence plus a dead pid (the torn-write
  // case), which must surface as the same typed SolverFailure.
  const auto batch = parse(
      "generate hard equal-weights 12 4 1\n"
      "solve optimal hard\n");
  const std::uint64_t key = msvc::intern(batch.instances.at("hard")).key();

  mshard::RouterOptions options;
  options.shards = 2;
  options.data_plane = mshard::DataPlaneMode::Auto;
  mshard::ShardRouter router(registry(), options);
  const std::uint32_t owner = router.owner_of(key);
  const pid_t victim = router.pid_of(owner);
  ASSERT_GT(victim, 0);

  std::thread killer([victim] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ::kill(victim, SIGKILL);
  });
  const auto start = std::chrono::steady_clock::now();
  const auto report = router.run(batch);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  killer.join();

  ASSERT_EQ(report.results.size(), 1u);
  ASSERT_FALSE(report.results[0].ok());
  EXPECT_EQ(report.results[0].error().code, msvc::ErrorCode::SolverFailure);
  EXPECT_LT(seconds, 30.0) << "shm worker death must fail fast, not hang";
  EXPECT_EQ(router.transport_stats().dead_peers, 1u);
}

TEST(Router, FramesLargerThanTheRingDivertOverTheControlFd) {
  // A ring sized at the 4 KiB floor cannot hold the parity batch's big
  // generated instances: those frames divert over the control fd while
  // small ones ride the ring, and the outputs still match byte for byte.
  const auto batch = parse(kParityBatch);
  mshard::RouterOptions options;
  options.shards = 2;
  options.worker.threads = 2;
  options.data_plane = mshard::DataPlaneMode::Auto;
  options.shm_ring_bytes = 1;  // rounds up to the 4 KiB floor
  mshard::ShardRouter router(registry(), options);
  const auto sharded = msvc::format_results(router.run(batch));

  msvc::ServiceOptions service_options;
  service_options.threads = 2;
  const auto single = msvc::format_results(
      msvc::run_service(batch, registry(), service_options));
  EXPECT_EQ(sharded, single)
      << "oversize-frame diversion must preserve byte parity";
}

TEST(Router, FleetCacheSummaryDividesByAliveWorkersNotConfigured) {
  // Regression for the --stats fleet mean: a dead worker contributes no
  // cache sample, so the alive count — the denominator the CLI divides
  // by — must track workers that actually answered, never the configured
  // fleet size.
  const auto batch = parse(
      "instance small\nprocessors 4\ntask 2.0 2 1.0\ntask 1.0 1 1.0\nend\n"
      "solve wdeq small\nsolve wdeq small\n");
  mshard::RouterOptions options;
  options.shards = 2;
  mshard::ShardRouter router(registry(), options);
  (void)router.run(batch);

  const auto healthy = router.fleet_cache_summary();
  EXPECT_EQ(healthy.configured, 2u);
  EXPECT_EQ(healthy.alive, 2u);
  EXPECT_GE(healthy.total.hits + healthy.total.misses, 1u)
      << "the repeated request must have touched a worker cache";

  router.kill(0);
  const auto degraded = router.fleet_cache_summary();
  EXPECT_EQ(degraded.configured, 2u);
  EXPECT_EQ(degraded.alive, 1u)
      << "a dead worker must drop out of the mean's denominator";
}

TEST(Router, DuplicateForwardDeliveryIsAbsorbedByTheDedup) {
  // The fault harness doubles the first forwarded solve frame: the worker
  // sees the same wire id twice, parks the alias, and answers twice; the
  // router must drop the echo and keep byte parity.
  const auto batch = parse(kParityBatch);
  msup::fault_arm("router.before_forward=dup");
  mshard::RouterOptions options;
  options.shards = 2;
  options.worker.threads = 2;
  mshard::ShardRouter router(registry(), options);
  const auto sharded = msvc::format_results(router.run(batch));
  msup::fault_disarm();

  msvc::ServiceOptions service_options;
  service_options.threads = 2;
  const auto single = msvc::format_results(
      msvc::run_service(batch, registry(), service_options));
  EXPECT_EQ(sharded, single);
  EXPECT_GE(router.transport_stats().duplicates_dropped, 1u)
      << "the duplicated forward must surface in the dedup counter";
}

TEST(Router, DuplicateWorkerReplyIsAbsorbedByTheDedup) {
  // Same property from the other side of the wire: the spec is armed
  // before the fork so the *workers* inherit it and every worker doubles
  // its first reply.
  const auto batch = parse(kParityBatch);
  msup::fault_arm("worker.before_reply=dup");
  mshard::RouterOptions options;
  options.shards = 2;
  options.worker.threads = 2;
  mshard::ShardRouter router(registry(), options);
  msup::fault_disarm();  // parent side: the router's own points stay cold
  const auto sharded = msvc::format_results(router.run(batch));

  msvc::ServiceOptions service_options;
  service_options.threads = 2;
  const auto single = msvc::format_results(
      msvc::run_service(batch, registry(), service_options));
  EXPECT_EQ(sharded, single);
  EXPECT_GE(router.transport_stats().duplicates_dropped, 1u)
      << "each worker's doubled reply must be dropped, not double-resolved";
}
