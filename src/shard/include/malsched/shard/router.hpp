#pragma once

/// \file router.hpp
/// Multi-process sharded serving: a ShardRouter partitions the canonical
/// key space across forked worker processes via the consistent-hash ring
/// (hash_ring.hpp) and speaks the batch-file grammar on the front.
///
/// Why processes: a single Scheduler already scales across threads, but its
/// result cache is one address space — N independent services would each
/// re-solve the same canonical instances.  Sharding routes every request on
/// the *same equivalence class* (`InstanceHandle::key()`) to the same
/// worker, so the fleet's aggregate cache is the union of disjoint shards:
/// hit rate scales with the ring instead of being duplicated per process,
/// and a worker crash costs one arc of the key space, not the service.
///
/// Topology and flow:
///
///     batch file ──▶ ShardRouter ──ring──▶ worker 0 (Scheduler + cache)
///                        │                 worker 1 (Scheduler + cache)
///                        └──── socketpair per worker, wire.hpp frames ───┘
///
/// `run` mirrors `service::run_service`: it primes each named instance on
/// its ring owners (all `replication` of them), streams `solve` frames to
/// the primary owner with a bounded in-flight window per worker, and
/// matches `result` frames back into request order.  Results are
/// bit-identical to single-process serving — instance and result doubles
/// cross the wire as their raw IEEE-754 bits, and each result depends only
/// on its own (solver, instance) pair.
///
/// Transports: workers are reached through a net::Transport.  By default
/// each is forked over a socketpair (single-host).  With
/// `RouterOptions::tcp_workers` set, each is a `malsched_worker --listen`
/// process dialed over TCP (multi-host) — same frames, same handshake, same
/// failover; only how the fd is obtained differs.  Every new connection
/// starts with the versioned `hello` handshake; a peer that fails it is
/// rejected typed (ProtocolMismatch) and never joins the ring.
///
/// Failure semantics: a worker death (crash, kill -9, connection reset —
/// one shared dead-peer classifier regardless of transport) removes it from
/// the ring, and its work moves to the next alive replica owner when
/// `replication > 1` (the instance is already primed there).  Queued work
/// simply fails over; *in-flight* work is safely **retried** on the replica
/// under the same idempotency token — the dead worker may or may not have
/// solved it, but tokens are solved at most once per worker and results are
/// deduplicated router-side, so each request is solved effectively once.
/// With no alive replica, in-flight work fails with a typed
/// `SolverFailure`.  `restart` re-opens the worker and replants its ring
/// points — by the minimal-movement property only its own arcs move back,
/// so the other workers' caches stay warm.
///
/// Spawning (fork transport) uses fork() without exec: call the constructor
/// before creating any in-process Scheduler (or other threads), exactly
/// like the example CLI does — the forked child runs `run_worker` and
/// `_exit`s, never touching the parent's stdio.  The router itself is
/// single-threaded and not thread-safe.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

#include "malsched/net/shm.hpp"
#include "malsched/net/transport.hpp"
#include "malsched/service/service.hpp"
#include "malsched/service/solver_registry.hpp"
#include "malsched/shard/data_plane.hpp"
#include "malsched/shard/hash_ring.hpp"
#include "malsched/shard/journal.hpp"
#include "malsched/shard/worker.hpp"

namespace malsched::shard {

/// Which data plane forked workers get.  Auto tries shared memory and
/// falls back to the socketpair when setup fails (counted in
/// TransportStats::shm_fallbacks) — degrading gracefully beats refusing to
/// serve.  Socketpair never tries.  TCP workers always use their
/// connection; this knob is fork-transport only.
enum class DataPlaneMode { Auto, Socketpair };

struct RouterOptions {
  /// Worker processes to fork.  Each owns a disjoint arc of the canonical
  /// key space (and the cache shard for it).  Ignored when `tcp_workers`
  /// is set.
  std::size_t shards = 2;
  /// Multi-host fleet: dial these `malsched_worker --listen` endpoints over
  /// TCP instead of forking.  One shard per endpoint; `shards` is derived.
  std::vector<net::Endpoint> tcp_workers;
  /// TCP connect budget per worker (covers the worker-still-starting race:
  /// connection-refused retries within it).  Fork transport ignores it.
  std::chrono::milliseconds connect_timeout{5000};
  /// How long to wait for a peer's `hello` before rejecting it.
  std::chrono::milliseconds handshake_timeout{10000};
  /// Virtual nodes per worker on the hash ring (see hash_ring.hpp).
  std::size_t vnodes = 64;
  /// Distinct ring owners each instance is primed on.  1 = no failover;
  /// r > 1 lets queued work re-route and in-flight work retry (idempotency
  /// tokens) when their primary dies mid-run.
  std::size_t replication = 1;
  /// Scheduler/cache configuration of every worker process.  For TCP
  /// workers this is configured on the `malsched_worker` command line
  /// instead; this field only shapes the router-side window clamp.
  WorkerOptions worker;
  /// Max in-flight requests per worker (clamped to the worker's queue
  /// capacity so its reader thread never blocks on admission backpressure —
  /// the invariant that keeps the socket pair deadlock-free).
  std::size_t window = 64;
  /// Data plane of forked workers; see DataPlaneMode.
  DataPlaneMode data_plane = DataPlaneMode::Auto;
  /// Capacity of each shm ring (request and response, per worker), rounded
  /// down to a power of two, floor 4 KiB.  Frames bigger than a ring are
  /// diverted over the control fd, so this sizes the hot path, not a hard
  /// limit.
  std::size_t shm_ring_bytes = std::size_t{4} << 20;
  /// Hot standby to replicate to (standby.hpp): the router dials this
  /// endpoint, handshakes under the `standby` role, and streams journal
  /// records (journal.hpp) at every state change plus heartbeats.  A
  /// standby that dies mid-run is dropped silently — replication is
  /// best-effort for the primary, load-bearing only for the standby.
  std::optional<net::Endpoint> standby;
  /// Already-connected standby fd (tests); -1 = dial `standby` if set.
  /// The router owns and closes it.
  int standby_fd = -1;
  /// Journal heartbeat cadence while replicating.  The standby's
  /// heartbeat_timeout must comfortably exceed this.
  std::chrono::milliseconds heartbeat_interval{100};
};

/// Transport-layer counters of one router, for `--stats` and tests.
struct TransportStats {
  std::uint64_t handshakes = 0;          ///< hello exchanges accepted
  std::uint64_t handshake_failures = 0;  ///< peers rejected at hello
  std::uint64_t dead_peers = 0;          ///< workers observed dead
  std::uint64_t retries_replayed = 0;    ///< in-flight retries on replicas
  std::uint64_t duplicates_dropped = 0;  ///< results dropped by the dedup
  std::uint64_t shm_fallbacks = 0;       ///< workers degraded to socketpair
  std::uint64_t journal_records = 0;     ///< records replicated to the standby
  std::uint64_t heartbeats_sent = 0;     ///< journal heartbeats pulsed
};

struct RouterRunOptions {
  /// Rounds over the batch; results come from the last round, latencies
  /// accumulate (mirrors ServiceOptions::repeat).
  std::size_t repeat = 1;
  /// Takeover support (standby.hpp): requests with a result here are
  /// emitted verbatim and never reach a worker — completed work is not
  /// re-solved.  Empty, or sized to the batch.
  std::vector<std::optional<service::SolveResult>> pre_resolved;
  /// Takeover support: idempotency tokens to reuse per request on the
  /// final round (0 = mint fresh).  A surviving worker that already
  /// completed the token replays its memoised result instead of
  /// re-solving.  Empty, or sized to the batch.
  std::vector<std::uint64_t> preset_tokens;
  /// First token value minted for fresh work (0 = continue from the
  /// router's own counter).  Takeover sets this above every journaled
  /// token so fresh tokens cannot collide with replayed ones.
  std::uint64_t first_token = 0;
};

/// Fleet-wide cache view for `--stats`: the component totals plus the
/// worker counts a correct mean needs.  Dead workers report no stats, so
/// means divide by `alive`, never by `configured` — dividing by the
/// configured count silently understates per-worker load the moment one
/// worker dies.
struct FleetCacheSummary {
  service::CacheStats total;  ///< summed over alive workers only
  std::size_t alive = 0;      ///< workers that answered the stats probe
  std::size_t configured = 0; ///< fleet size the router was built with
};

class ShardRouter {
 public:
  /// Forks (or, with `tcp_workers`, dials) the worker fleet, performing the
  /// versioned handshake with each.  The registry must outlive the router;
  /// it is also the registry each *forked* worker serves with (TCP workers
  /// serve with whatever registry their process was started with).
  ShardRouter(const service::SolverRegistry& registry,
              RouterOptions options = {});
  /// Closes every worker socket (EOF = drain: admitted jobs finish) and
  /// reaps the children.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Streams every request of the batch through the worker fleet.  The
  /// returned report has the shape run_service produces: results in request
  /// order, router-observed latencies (send-to-result, wire included), and
  /// cache stats aggregated across workers.
  [[nodiscard]] service::ServiceReport run(
      const service::BatchSpec& batch, const RouterRunOptions& options = {});

  [[nodiscard]] std::size_t shard_count() const { return workers_.size(); }
  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] bool alive(std::size_t worker) const;

  /// Liveness probe: ping/pong round-trip.  Answered by the worker's reader
  /// thread, so it succeeds even while every scheduler thread is pinned by
  /// a long solve.  Marks the worker dead (and rebalances the ring) on
  /// timeout or a dead socket.  Call between runs, not during one.
  [[nodiscard]] bool ping(
      std::size_t worker,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(2000));

  /// Graceful drain: the worker finishes and delivers everything submitted
  /// so far and acknowledges; it stays alive and keeps serving.  False on
  /// timeout or a dead worker.
  [[nodiscard]] bool drain(
      std::size_t worker,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(60000));

  /// Per-worker cache statistics (hits/misses/evictions/TTL `expired`/...),
  /// fetched over a stats frame round-trip.  This is the per-shard view the
  /// aggregate in `run`'s report sums away — operational tooling uses it to
  /// spot one shard aging out its arc (expired climbing) while the fleet
  /// total looks healthy.  nullopt for a dead worker, a failed send (which
  /// marks it dead) or a timeout.  Call between runs, not during one.
  [[nodiscard]] std::optional<service::CacheStats> worker_cache_stats(
      std::size_t worker,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Sums worker_cache_stats over the fleet, counting only the workers
  /// that answered.  Means must use `summary.alive` as the divisor; see
  /// FleetCacheSummary.  Call between runs, not during one.
  [[nodiscard]] FleetCacheSummary fleet_cache_summary(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// True while the replication stream to the standby is up.  False when
  /// no standby was configured, its handshake failed, or it died mid-run
  /// (all tolerated; `standby_error` names the reason).
  [[nodiscard]] bool standby_attached() const { return standby_fd_ >= 0; }
  [[nodiscard]] const std::string& standby_error() const {
    return standby_error_;
  }

  /// Hard-kills the worker process (SIGKILL) and removes it from the ring.
  /// The operator's "shoot the wedged worker" button, and the fault the
  /// router tests inject.
  void kill(std::size_t worker);

  /// Respawns a (dead or alive) worker and replants its ring points; an
  /// alive worker is drained first (best effort).  Its cache restarts cold
  /// — only its own arcs of the key space re-warm, everyone else's entries
  /// are untouched (minimal movement).  False when the fork failed.
  [[nodiscard]] bool restart(std::size_t worker);

  /// Ring lookup for a canonical key (primary owner), exposed for tests and
  /// operational tooling.  Requires at least one alive worker.
  [[nodiscard]] std::uint32_t owner_of(std::uint64_t key) const {
    return ring_.owner(key);
  }
  [[nodiscard]] const HashRing& ring() const { return ring_; }

  /// Worker process id (-1 when dead or remote), for operational tooling
  /// and the fault-injection tests that SIGKILL a worker behind the
  /// router's back.  TCP workers are other hosts' processes: always -1.
  [[nodiscard]] pid_t pid_of(std::size_t worker) const {
    return worker < workers_.size() ? transport_->pid_of(worker) : -1;
  }

  /// Transport-layer counters: handshakes, dead peers, retries replayed.
  [[nodiscard]] const TransportStats& transport_stats() const {
    return transport_stats_;
  }

  /// Data-plane counters of one worker ("shm" ring depths/sleeps/wakes, or
  /// "socketpair" frame counts), for `--stats`.  nullopt for a dead worker.
  [[nodiscard]] std::optional<DataPlaneStats> data_plane_stats(
      std::size_t worker) const {
    if (worker >= workers_.size() || workers_[worker].plane == nullptr) {
      return std::nullopt;
    }
    return workers_[worker].plane->stats();
  }

 private:
  struct Worker {
    int fd = -1;
    bool alive = false;
    /// How data frames reach this worker; the control plane stays on fd.
    std::unique_ptr<DataPlane> plane;
  };

  bool spawn(std::size_t index);
  void mark_dead(std::size_t index);
  /// Connects + handshakes the replication stream (ctor helper).
  void attach_standby();
  /// Replicates one record to the standby; a write failure detaches the
  /// standby (best-effort) without touching the serving path.
  void journal(const JournalRecord& record);
  /// Emits a journal heartbeat when heartbeat_interval has elapsed.
  void maybe_heartbeat();
  /// Reads one frame with an absolute deadline spanning poll *and* the
  /// frame bytes, so a dribbling peer cannot stretch the budget; false on
  /// timeout/death.
  bool read_frame_from(std::size_t index, std::string* payload,
                       std::chrono::milliseconds timeout);

  const service::SolverRegistry& registry_;
  RouterOptions options_;
  HashRing ring_;
  /// Per-worker shm channels and the doorbell their response rings share,
  /// created before the transport so every fork inherits the mappings.
  /// A null channel slot means that worker fell back to the socketpair.
  std::unique_ptr<net::ShmRegion> doorbell_region_;
  net::Doorbell* doorbell_ = nullptr;
  std::vector<std::unique_ptr<ShmChannel>> channels_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<Worker> workers_;
  /// Last handshake/connect failure per worker slot; empty = none.  Lets
  /// requests that end up ownerless because a peer was *rejected* (rather
  /// than dead) fail typed as ProtocolMismatch.
  std::vector<std::string> handshake_errors_;
  TransportStats transport_stats_;
  std::uint64_t next_wire_id_ = 0;
  std::uint64_t next_token_ = 0;
  /// Replication stream to the hot standby; -1 = none/detached.
  int standby_fd_ = -1;
  std::string standby_error_;
  std::uint64_t heartbeat_seq_ = 0;
  std::chrono::steady_clock::time_point last_heartbeat_{};
};

}  // namespace malsched::shard
