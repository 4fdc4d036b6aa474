// malsched_service: batch scheduling service front door (v2 Scheduler,
// optionally sharded across worker processes).
//
//   ./examples/malsched_service <batch-file> [--threads N] [--repeat R]
//                               [--cache-capacity W] [--cache-ttl S]
//                               [--no-cache] [--queue-capacity N] [--fifo]
//                               [--shards N] [--workers host:port,...]
//                               [--replication R] [--stats]
//   ./examples/malsched_service --solvers
//
// Batch file format (see malsched/service/service.hpp):
//
//   instance small
//   processors 4
//   task 2.0 2 1.0
//   task 1.5 1 0.5
//   end
//   generate big heavy-tail-volumes 200 16 42
//   include common_instances.msb
//   weight 4                 # sticky: priority weight of later solves
//   deadline 0.5             # sticky: per-request latency budget (seconds);
//                            # 'deadline none' clears it
//   solve wdeq small
//   solve optimal small
//   solve wdeq big
//
// Relative `include` paths resolve against the batch file's directory.
// Per-request results go to stdout (deterministic: identical bytes for any
// --threads value AND any --shards value; `deadline` budgets are wall-clock
// dependent by nature); failures carry their typed error code.
// Latency/cache telemetry goes to stderr.  --cache-capacity counts weight
// units (~one per completion time), not entries; --cache-ttl ages entries
// out at lookup.  Admission is the weighted-priority queue by default —
// --fifo restores strict arrival order (the A/B the bench measures).
//
// --stats appends a cache-statistics block to the stderr telemetry: the
// full counter set (hits, misses, LRU evictions, TTL expirations, weight)
// for the run — per worker when sharded, so a single shard quietly aging
// out its arc (expired climbing) is visible instead of being summed away
// in the fleet aggregate.
//
// --shards N forks N worker processes and partitions the canonical key
// space across them with consistent hashing (docs/OPERATIONS.md): every
// worker runs its own Scheduler (--threads each) and its own cache shard.
// --replication R primes each instance on R ring owners so a worker death
// mid-run fails over — and, with the idempotency tokens of wire protocol
// v2, in-flight requests are safely *retried* on a replica.  The fork
// happens before any in-process scheduler exists, which is the documented
// spawning contract.
//
// --workers host:port,... is the multi-host variant of --shards: instead
// of forking, dial one `malsched_worker --listen` process per endpoint
// (one shard each, versioned handshake on connect).  Worker Scheduler
// flags are configured on each worker's own command line in this mode.
// When sharded, --stats also prints the router's transport counters
// (handshakes, dead peers, retries replayed) — the fleet-health view.
//
// Router HA (docs/OPERATIONS.md, "Router HA"): --standby host:port makes
// this process a *primary* that replicates its journal (membership, primed
// set, in-flight tokens, final results) to a hot standby at that address.
// --standby-listen host:port makes it the *standby*: it prints
// `standby listening <host> <port>`, accepts the primary's replication
// connection, mirrors the journal, and — if the primary dies or goes
// silent past --heartbeat-timeout — takes over the --workers fleet and
// finishes the batch, emitting journaled results verbatim and replaying
// in-flight requests under their existing idempotency tokens.  The client
// stream stays byte-identical to a single-process run either way.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "malsched/net/socket.hpp"
#include "malsched/service/service.hpp"
#include "malsched/shard/router.hpp"
#include "malsched/shard/standby.hpp"

using namespace malsched;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <batch-file> [--threads N] [--repeat R] "
               "[--cache-capacity W] [--cache-ttl S] [--no-cache] "
               "[--queue-capacity N] [--fifo] [--shards N] "
               "[--workers host:port,...] [--replication R] "
               "[--data-plane auto|socketpair] [--stats]\n"
               "       %s <batch-file> --workers ... --standby host:port "
               "[--heartbeat-interval MS]\n"
               "       %s <batch-file> --workers ... --standby-listen "
               "host:port [--heartbeat-timeout MS]\n"
               "       %s --solvers\n",
               prog, prog, prog, prog);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const auto registry = service::SolverRegistry::with_default_solvers();

  if (argc >= 2 && std::strcmp(argv[1], "--solvers") == 0) {
    for (const auto& name : registry.names()) {
      const auto* info = registry.find(name);
      std::printf("%-18s %s%s\n", name.c_str(), info->description.c_str(),
                  info->cancellable ? "  [cancellable]" : "");
    }
    return 0;
  }
  if (argc < 2) {
    return usage(argv[0]);
  }

  service::ServiceOptions options;
  std::size_t shards = 0;       // 0 = single-process serving
  std::vector<net::Endpoint> tcp_workers;  // --workers: dial, don't fork
  std::size_t replication = 1;  // instance fan-out when sharded
  // --data-plane: how frames reach forked workers (shared-memory rings by
  // default, with automatic socketpair fallback; see router.hpp).
  shard::DataPlaneMode data_plane = shard::DataPlaneMode::Auto;
  bool show_stats = false;      // --stats: cache counter block on stderr
  // Router HA: --standby makes this a replicating primary; --standby-listen
  // makes it the hot standby (mutually exclusive).
  std::optional<net::Endpoint> standby;
  std::optional<net::Endpoint> standby_listen;
  std::chrono::milliseconds heartbeat_interval{100};
  std::chrono::milliseconds heartbeat_timeout{2000};
  // Numeric flags are range-checked: a stray "--threads -1" must not wrap
  // to four billion workers.
  const auto parse_count = [](const char* text, long max_value, long* out) {
    char* end = nullptr;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || value < 0 || value > max_value) {
      return false;
    }
    *out = value;
    return true;
  };
  for (int i = 2; i < argc; ++i) {
    long value = 0;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 256, &value)) {
        return usage(argv[0]);
      }
      options.threads = static_cast<unsigned>(value);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1000000, &value)) {
        return usage(argv[0]);
      }
      options.repeat = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1000000000, &value)) {
        return usage(argv[0]);
      }
      options.cache_capacity = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--cache-ttl") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const double seconds = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || !(seconds >= 0.0)) {
        return usage(argv[0]);
      }
      options.cache_ttl_seconds = seconds;
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 1000000, &value) || value == 0) {
        return usage(argv[0]);
      }
      options.queue_capacity = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 256, &value)) {
        return usage(argv[0]);
      }
      shards = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      const auto endpoints = net::parse_endpoint_list(argv[++i]);
      if (!endpoints) {
        std::fprintf(stderr,
                     "bad --workers list '%s' (want host:port,host:port)\n",
                     argv[i]);
        return usage(argv[0]);
      }
      tcp_workers = *endpoints;
    } else if (std::strcmp(argv[i], "--replication") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], 256, &value) || value == 0) {
        return usage(argv[0]);
      }
      replication = static_cast<std::size_t>(value);
    } else if (std::strcmp(argv[i], "--data-plane") == 0 && i + 1 < argc) {
      const char* plane = argv[++i];
      if (std::strcmp(plane, "auto") == 0) {
        data_plane = shard::DataPlaneMode::Auto;
      } else if (std::strcmp(plane, "socketpair") == 0) {
        data_plane = shard::DataPlaneMode::Socketpair;
      } else {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--standby") == 0 && i + 1 < argc) {
      standby = net::parse_endpoint(argv[++i]);
      if (!standby) {
        std::fprintf(stderr, "bad --standby endpoint '%s'\n", argv[i]);
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--standby-listen") == 0 && i + 1 < argc) {
      standby_listen = net::parse_endpoint(argv[++i]);
      if (!standby_listen) {
        std::fprintf(stderr, "bad --standby-listen endpoint '%s'\n", argv[i]);
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--heartbeat-interval") == 0 &&
               i + 1 < argc) {
      if (!parse_count(argv[++i], 3600000, &value) || value == 0) {
        return usage(argv[0]);
      }
      heartbeat_interval = std::chrono::milliseconds(value);
    } else if (std::strcmp(argv[i], "--heartbeat-timeout") == 0 &&
               i + 1 < argc) {
      if (!parse_count(argv[++i], 3600000, &value) || value == 0) {
        return usage(argv[0]);
      }
      heartbeat_timeout = std::chrono::milliseconds(value);
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      options.use_cache = false;
    } else if (std::strcmp(argv[i], "--fifo") == 0) {
      options.fifo_admission = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      show_stats = true;
    } else {
      return usage(argv[0]);
    }
  }

  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 66;
  }
  std::string error;
  service::BatchReadOptions read_options;
  read_options.base_dir =
      std::filesystem::path(argv[1]).parent_path().string();
  const auto batch = service::read_batch(in, &error, read_options);
  if (!batch) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 65;
  }

  const auto print_cache_stats = [](const char* label,
                                    const service::CacheStats& stats) {
    std::fprintf(stderr,
                 "cache%-9s: hits=%llu misses=%llu evictions=%llu "
                 "expired=%llu admitted=%llu rejected=%llu "
                 "entries=%zu weight=%zu/%zu\n",
                 label, static_cast<unsigned long long>(stats.hits),
                 static_cast<unsigned long long>(stats.misses),
                 static_cast<unsigned long long>(stats.evictions),
                 static_cast<unsigned long long>(stats.expired),
                 static_cast<unsigned long long>(stats.admitted),
                 static_cast<unsigned long long>(stats.rejected),
                 stats.entries, stats.weight, stats.capacity);
  };

  if (standby_listen) {
    // --- hot standby: mirror the primary's journal, take over on death ---
    if (tcp_workers.empty() || standby) {
      std::fprintf(stderr,
                   "--standby-listen needs --workers (the fleet to adopt) "
                   "and excludes --standby\n");
      return usage(argv[0]);
    }
    std::string net_error;
    std::uint16_t bound_port = 0;
    const int listen_fd =
        net::tcp_listen(*standby_listen, &net_error, &bound_port);
    if (listen_fd < 0) {
      std::fprintf(stderr, "standby listen failed: %s\n", net_error.c_str());
      return 71;
    }
    // Scrape line for harnesses (same idiom as malsched_worker): the bound
    // port matters because --standby-listen host:0 is how tests avoid
    // port collisions.
    std::printf("standby listening %s %u\n", standby_listen->host.c_str(),
                static_cast<unsigned>(bound_port));
    std::fflush(stdout);
    // Bounded accept so a primary that never starts cannot hang a CI job
    // forever; two minutes dwarfs any real startup race.
    const int primary_fd = net::tcp_accept(
        listen_fd, std::chrono::milliseconds(120000), &net_error);
    ::close(listen_fd);
    if (primary_fd < 0) {
      std::fprintf(stderr, "standby accept failed: %s\n", net_error.c_str());
      return 71;
    }
    shard::StandbyOptions standby_options;
    standby_options.heartbeat_timeout = heartbeat_timeout;
    standby_options.router.tcp_workers = tcp_workers;
    standby_options.router.replication = replication;
    standby_options.router.worker = options;
    const auto outcome =
        shard::run_standby(primary_fd, registry, *batch, standby_options);
    ::close(primary_fd);
    const bool took_over =
        outcome.status == shard::StandbyOutcome::Status::TookOver;
    if (took_over) {
      service::write_results(std::cout, outcome.report);
      std::cerr << service::format_telemetry(outcome.report);
    }
    if (show_stats) {
      std::fprintf(
          stderr,
          "standby        : takeover=%d journal_records=%llu "
          "heartbeats=%llu results_from_journal=%llu inflight_replayed=%llu "
          "solved_fresh=%llu\n",
          took_over ? 1 : 0,
          static_cast<unsigned long long>(outcome.state.records),
          static_cast<unsigned long long>(outcome.state.heartbeats),
          static_cast<unsigned long long>(outcome.results_from_journal),
          static_cast<unsigned long long>(outcome.replayed_in_flight),
          static_cast<unsigned long long>(outcome.solved_fresh));
      std::fprintf(
          stderr,
          "transport      : handshakes=%llu handshake_failures=%llu "
          "dead_peers=%llu retries_replayed=%llu duplicates_dropped=%llu "
          "shm_fallbacks=%llu\n",
          static_cast<unsigned long long>(outcome.transport.handshakes),
          static_cast<unsigned long long>(
              outcome.transport.handshake_failures),
          static_cast<unsigned long long>(outcome.transport.dead_peers),
          static_cast<unsigned long long>(outcome.transport.retries_replayed),
          static_cast<unsigned long long>(
              outcome.transport.duplicates_dropped),
          static_cast<unsigned long long>(outcome.transport.shm_fallbacks));
    }
    switch (outcome.status) {
      case shard::StandbyOutcome::Status::PrimaryCompleted:
        std::fprintf(stderr, "standby: primary completed; standing down\n");
        return 0;
      case shard::StandbyOutcome::Status::TookOver:
        return 0;
      case shard::StandbyOutcome::Status::SplitBrain:
        std::fprintf(stderr, "standby: %s\n", outcome.error.c_str());
        return 75;  // EX_TEMPFAIL: the primary may still be serving
      case shard::StandbyOutcome::Status::ProtocolError:
        break;
    }
    std::fprintf(stderr, "standby: %s\n", outcome.error.c_str());
    return 76;  // EX_PROTOCOL
  }

  service::ServiceReport report;
  if (shards > 0 || !tcp_workers.empty()) {
    // Sharded serving: fork (or dial) the worker fleet *now*, while this
    // process is still single-threaded, then stream the batch through the
    // ring.
    shard::RouterOptions router_options;
    router_options.shards = shards;
    router_options.tcp_workers = tcp_workers;
    router_options.replication = replication;
    router_options.data_plane = data_plane;
    router_options.worker = options;  // same options, served per worker
    router_options.standby = standby;
    router_options.heartbeat_interval = heartbeat_interval;
    shard::ShardRouter router(registry, router_options);
    if (standby && !router.standby_attached()) {
      // Serving continues without HA; the operator asked for a standby and
      // must see that it is not there.
      std::fprintf(stderr, "warning: %s\n", router.standby_error().c_str());
    }
    shard::RouterRunOptions run_options;
    run_options.repeat = options.repeat;
    report = router.run(*batch, run_options);
    service::write_results(std::cout, report);
    std::cerr << service::format_telemetry(report);
    if (show_stats) {
      // Per-worker breakdown: the run's aggregate sums the shards, which
      // hides a single worker quietly aging out its arc via the TTL.
      for (std::size_t w = 0; w < router.shard_count(); ++w) {
        const auto stats = router.worker_cache_stats(w);
        const std::string label = "[" + std::to_string(w) + "]";
        if (stats) {
          print_cache_stats(label.c_str(), *stats);
        } else {
          std::fprintf(stderr, "cache%-9s: worker dead\n", label.c_str());
        }
      }
      // Data-plane counters: which plane each worker actually got (a shm
      // request that fell back shows up as "socketpair" + shm_fallbacks
      // below), how much crossed it, and whether the rings ever parked.
      for (std::size_t w = 0; w < router.shard_count(); ++w) {
        const std::string label = "[" + std::to_string(w) + "]";
        const auto plane = router.data_plane_stats(w);
        if (!plane) {
          std::fprintf(stderr, "plane%-9s: worker dead\n", label.c_str());
          continue;
        }
        std::fprintf(stderr,
                     "plane%-9s: %s frames_out=%llu bytes_out=%llu "
                     "frames_in=%llu bytes_in=%llu depth=%zu/%zu "
                     "sleeps=%llu/%llu wakes=%llu\n",
                     label.c_str(), plane->plane,
                     static_cast<unsigned long long>(plane->frames_out),
                     static_cast<unsigned long long>(plane->bytes_out),
                     static_cast<unsigned long long>(plane->frames_in),
                     static_cast<unsigned long long>(plane->bytes_in),
                     plane->request_depth, plane->response_depth,
                     static_cast<unsigned long long>(plane->producer_sleeps),
                     static_cast<unsigned long long>(plane->consumer_sleeps),
                     static_cast<unsigned long long>(plane->wakes));
      }
      // Fleet mean over *alive* workers: a dead worker reports no stats,
      // so dividing by the configured count would silently understate
      // per-worker load the moment one dies.  The alive=a/c prefix makes
      // the divisor auditable.
      const auto fleet = router.fleet_cache_summary();
      if (fleet.alive > 0) {
        const double alive = static_cast<double>(fleet.alive);
        std::fprintf(stderr,
                     "cache[mean]    : alive=%zu/%zu hits=%.2f misses=%.2f "
                     "entries=%.2f weight=%.2f\n",
                     fleet.alive, fleet.configured,
                     static_cast<double>(fleet.total.hits) / alive,
                     static_cast<double>(fleet.total.misses) / alive,
                     static_cast<double>(fleet.total.entries) / alive,
                     static_cast<double>(fleet.total.weight) / alive);
      } else {
        std::fprintf(stderr, "cache[mean]    : alive=0/%zu (fleet down)\n",
                     fleet.configured);
      }
      // Transport counters: the fleet-health view — how many peers passed
      // the handshake, how many died, how much work was retried.
      const shard::TransportStats& transport = router.transport_stats();
      std::fprintf(stderr,
                   "transport      : handshakes=%llu handshake_failures=%llu "
                   "dead_peers=%llu retries_replayed=%llu "
                   "duplicates_dropped=%llu shm_fallbacks=%llu "
                   "journal_records=%llu heartbeats_sent=%llu\n",
                   static_cast<unsigned long long>(transport.handshakes),
                   static_cast<unsigned long long>(
                       transport.handshake_failures),
                   static_cast<unsigned long long>(transport.dead_peers),
                   static_cast<unsigned long long>(
                       transport.retries_replayed),
                   static_cast<unsigned long long>(
                       transport.duplicates_dropped),
                   static_cast<unsigned long long>(transport.shm_fallbacks),
                   static_cast<unsigned long long>(
                       transport.journal_records),
                   static_cast<unsigned long long>(
                       transport.heartbeats_sent));
    }
  } else {
    report = service::run_service(*batch, registry, options);
    service::write_results(std::cout, report);
    std::cerr << service::format_telemetry(report);
    if (show_stats) {
      print_cache_stats("[total]", report.cache);
    }
  }
  return 0;
}
