#include "malsched/shard/router.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <utility>

#include "malsched/net/socket.hpp"
#include "malsched/service/canonical.hpp"
#include "malsched/shard/wire.hpp"
#include "malsched/support/faultpoint.hpp"

namespace malsched::shard {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// How long a data-plane send may wait on backpressure before the worker
/// is declared wedged.  The window <= worker-queue-capacity invariant
/// means a healthy worker always drains, so hitting this is a fault.
constexpr std::chrono::seconds kSendBudget{60};

/// Slice of the router's multiplexed doorbell wait; also the cadence of
/// its dead-peer checks while only shm results are pending.
constexpr std::chrono::milliseconds kDoorbellSlice{50};

}  // namespace

ShardRouter::ShardRouter(const service::SolverRegistry& registry,
                         RouterOptions options)
    : registry_(registry),
      options_(std::move(options)),
      ring_(options_.vnodes == 0 ? 64 : options_.vnodes) {
  if (!options_.tcp_workers.empty()) {
    options_.shards = options_.tcp_workers.size();
  }
  if (options_.shards == 0) {
    options_.shards = 1;
  }
  if (options_.replication == 0) {
    options_.replication = 1;
  }
  if (options_.worker.queue_capacity == 0) {
    options_.worker.queue_capacity = 1;
  }
  // The deadlock-freedom invariant: never more in flight than the worker's
  // admission queue holds, so its reader thread never blocks in submit()
  // while the router blocks in send().
  options_.window = std::clamp<std::size_t>(options_.window, 1,
                                            options_.worker.queue_capacity);
  if (!options_.tcp_workers.empty()) {
    transport_ = std::make_unique<net::TcpTransport>(options_.tcp_workers,
                                                     options_.connect_timeout);
  } else {
    // Shared-memory data plane, set up BEFORE the transport ever forks so
    // every child inherits the mappings (fork-without-exec: the channel
    // objects and every pointer into the shared pages are valid in the
    // child verbatim).  Any slot whose channel cannot be created — mmap
    // failure, or MALSCHED_SHM_DISABLE in the environment — falls back to
    // the socketpair data plane, counted, never fatal.
    channels_.resize(options_.shards);
    if (options_.data_plane != DataPlaneMode::Socketpair) {
      doorbell_region_ = net::ShmRegion::create(sizeof(net::Doorbell));
      if (doorbell_region_ != nullptr) {
        doorbell_ = new (doorbell_region_->data()) net::Doorbell();
      }
      for (std::size_t i = 0; i < channels_.size(); ++i) {
        if (doorbell_ != nullptr) {
          channels_[i] = ShmChannel::create(options_.shm_ring_bytes);
        }
        if (channels_[i] == nullptr) {
          ++transport_stats_.shm_fallbacks;
        } else {
          channels_[i]->set_doorbell(doorbell_);
        }
      }
    }
    // _exit inside the transport, not exit: the forked child shares this
    // process's stdio buffers and must not flush them a second time.
    transport_ = std::make_unique<net::ForkTransport>(
        options_.shards, [this](std::size_t index, int child_fd) {
          if (standby_fd_ >= 0) {
            // The child inherits the replication socket across fork; were it
            // left open, the standby would never see DeadPeer after the
            // primary's death — a live worker would hold the stream up.
            ::close(standby_fd_);
          }
          return run_worker(child_fd, registry_, options_.worker,
                            index < channels_.size() ? channels_[index].get()
                                                     : nullptr);
        });
  }
  // Replication attaches before any worker exists so the standby's mirror
  // starts empty and sees every membership change, spawn included.
  attach_standby();
  workers_.resize(options_.shards);
  handshake_errors_.resize(options_.shards);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    (void)spawn(i);
  }
}

ShardRouter::~ShardRouter() {
  // EOF is the drain signal: each worker finishes its admitted jobs, joins
  // its writer and exits.  Close every fd first so the drains overlap, then
  // let the transport reap its processes (no-op for TCP and dead workers).
  for (Worker& worker : workers_) {
    if (worker.fd >= 0) {
      ::close(worker.fd);
      worker.fd = -1;
    }
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    transport_->disconnect(i, -1);
  }
  if (standby_fd_ >= 0) {
    ::close(standby_fd_);
    standby_fd_ = -1;
  }
}

void ShardRouter::attach_standby() {
  int fd = options_.standby_fd;
  if (fd < 0) {
    if (!options_.standby) {
      return;
    }
    std::string error;
    fd = net::tcp_connect(*options_.standby, options_.connect_timeout, &error);
    if (fd < 0) {
      standby_error_ =
          "cannot reach standby " + options_.standby->to_string() + ": " +
          error;
      return;
    }
  }
  // Same versioned hello as every other connection; the standby announces
  // the `standby` role on its side.  A failed handshake only costs the
  // replication — the serving path never depends on the standby.
  std::string reason;
  if (!wire::handshake(fd, "router", options_.handshake_timeout, &reason)) {
    standby_error_ = "standby handshake failed: " + reason;
    ::close(fd);
    return;
  }
  standby_fd_ = fd;
  last_heartbeat_ = Clock::now();
}

void ShardRouter::journal(const JournalRecord& record) {
  if (standby_fd_ < 0) {
    return;
  }
  if (!wire::write_frame(standby_fd_, encode_journal(record))) {
    // A dead standby must not take the primary down with it: detach and
    // keep serving.  The operator sees it in standby_error/--stats.
    standby_error_ = "standby connection lost mid-run";
    ::close(standby_fd_);
    standby_fd_ = -1;
    return;
  }
  ++transport_stats_.journal_records;
}

void ShardRouter::maybe_heartbeat() {
  if (standby_fd_ < 0) {
    return;
  }
  const auto now = Clock::now();
  if (now - last_heartbeat_ < options_.heartbeat_interval) {
    return;
  }
  last_heartbeat_ = now;
  journal(JournalRecord::heartbeat(++heartbeat_seq_));
  ++transport_stats_.heartbeats_sent;
}

bool ShardRouter::spawn(std::size_t index) {
  // A respawned worker must not inherit the dead one's mid-stream ring
  // state; reset before open() forks, while no process is attached.
  if (index < channels_.size() && channels_[index] != nullptr) {
    channels_[index]->reset();
  }
  std::string error;
  const int fd = transport_->open(index, &error);
  if (fd < 0) {
    handshake_errors_[index] =
        "cannot reach " + transport_->describe(index) + ": " + error;
    return false;
  }
  // Versioned handshake before the worker joins the ring: a peer speaking
  // another protocol version (or no protocol at all — on TCP anything can
  // be listening there) is rejected typed, never sent frames.
  std::string reason;
  if (!wire::handshake(fd, "router", options_.handshake_timeout, &reason)) {
    ++transport_stats_.handshake_failures;
    handshake_errors_[index] = transport_->describe(index) + ": " + reason;
    transport_->terminate(index, fd);
    return false;
  }
  ++transport_stats_.handshakes;
  handshake_errors_[index].clear();
  Worker worker;
  worker.fd = fd;
  worker.alive = true;
  if (index < channels_.size() && channels_[index] != nullptr) {
    worker.plane = std::make_unique<ShmDataPlane>(
        *channels_[index], ShmDataPlane::Side::Router, fd);
  } else {
    worker.plane = std::make_unique<SocketpairDataPlane>(fd);
  }
  workers_[index] = std::move(worker);
  ring_.add_node(static_cast<std::uint32_t>(index));
  journal(JournalRecord::member(static_cast<std::uint32_t>(index), true));
  return true;
}

void ShardRouter::mark_dead(std::size_t index) {
  Worker& worker = workers_[index];
  if (!worker.alive) {
    return;
  }
  worker.alive = false;
  ++transport_stats_.dead_peers;
  // The socket said the worker is gone or unresponsive; the transport makes
  // that true (fork: SIGKILL + reap; TCP: close our end).
  transport_->terminate(index, worker.fd);
  worker.fd = -1;
  worker.plane.reset();
  ring_.remove_node(static_cast<std::uint32_t>(index));
  journal(JournalRecord::member(static_cast<std::uint32_t>(index), false));
}

std::size_t ShardRouter::alive_count() const {
  std::size_t count = 0;
  for (const Worker& worker : workers_) {
    count += worker.alive ? 1 : 0;
  }
  return count;
}

bool ShardRouter::alive(std::size_t worker) const {
  return worker < workers_.size() && workers_[worker].alive;
}

bool ShardRouter::read_frame_from(std::size_t index, std::string* payload,
                                  std::chrono::milliseconds timeout) {
  const Worker& worker = workers_[index];
  if (!worker.alive) {
    return false;
  }
  // One absolute deadline spans the wait-for-data poll AND the frame bytes
  // themselves: a peer that dribbles one byte per poll interval must run
  // out of the *total* budget, not re-arm it per chunk.
  const auto deadline = Clock::now() + timeout;
  struct pollfd pfd {
    worker.fd, POLLIN, 0
  };
  const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
    return false;
  }
  return wire::read_frame_deadline(worker.fd, payload, deadline);
}

bool ShardRouter::ping(std::size_t worker, std::chrono::milliseconds timeout) {
  if (!alive(worker)) {
    return false;
  }
  const std::string token = std::to_string(++next_wire_id_);
  if (!wire::write_frame(workers_[worker].fd, "ping " + token)) {
    mark_dead(worker);
    return false;
  }
  const auto deadline = Clock::now() + timeout;
  std::string payload;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0 || !read_frame_from(worker, &payload, left)) {
      mark_dead(worker);  // unresponsive counts as dead: rebalance the ring
      return false;
    }
    if (payload == "pong " + token) {
      return true;
    }
    // Any other frame is stale traffic from a previous exchange; skip it.
  }
}

bool ShardRouter::drain(std::size_t worker,
                        std::chrono::milliseconds timeout) {
  if (!alive(worker)) {
    return false;
  }
  if (!wire::write_frame(workers_[worker].fd, "drain")) {
    mark_dead(worker);
    return false;
  }
  const auto deadline = Clock::now() + timeout;
  std::string payload;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0 || !read_frame_from(worker, &payload, left)) {
      mark_dead(worker);
      return false;
    }
    if (wire::message_type(payload) == "drained") {
      return true;
    }
  }
}

void ShardRouter::kill(std::size_t worker) {
  if (worker < workers_.size()) {
    mark_dead(worker);  // SIGKILL + reap + ring removal
  }
}

bool ShardRouter::restart(std::size_t worker) {
  if (worker >= workers_.size()) {
    return false;
  }
  if (workers_[worker].alive) {
    (void)drain(worker);  // best effort; a wedged worker gets the SIGKILL
    mark_dead(worker);
  }
  return spawn(worker);
}

service::ServiceReport ShardRouter::run(const service::BatchSpec& batch,
                                        const RouterRunOptions& run_options) {
  service::ServiceReport report;
  report.results.resize(batch.requests.size());
  const auto run_start = Clock::now();
  if (run_options.first_token > 0 && next_token_ < run_options.first_token - 1) {
    // Takeover: mint fresh tokens strictly above every journaled one, so a
    // fresh token can never alias an in-flight token a surviving worker
    // still remembers.
    next_token_ = run_options.first_token - 1;
  }
  maybe_heartbeat();

  // --- Place and prime: each named instance goes to all its ring owners,
  // keyed by the canonical-form fingerprint (the same key every equivalent
  // instance hashes to, so equivalence classes share one worker's cache).
  struct Placed {
    std::vector<std::uint32_t> owners;  ///< primed replica set, primary first
  };
  std::map<std::string, Placed> placed;
  std::vector<char> primed_over_fd(workers_.size(), 0);
  for (const auto& [name, instance] : batch.instances) {
    if (ring_.node_count() == 0) {
      break;  // whole fleet is down; requests fail below
    }
    support::faultpoint("router.before_place");
    maybe_heartbeat();
    service::CanonicalOptions canonical_options;
    canonical_options.permute = true;
    const std::uint64_t key =
        service::canonicalize(instance, canonical_options).key;
    Placed place;
    place.owners = ring_.owners(key, options_.replication);
    // One encode, shared across owners and planes.
    const std::string frame = wire::encode_instance(name, instance);
    for (const std::uint32_t owner : place.owners) {
      Worker& worker = workers_[owner];
      if (!worker.alive) {
        continue;
      }
      auto status = worker.plane->send(frame, Clock::now() + kSendBudget);
      if (status == net::RingStatus::TooBig) {
        // An instance bigger than the shm ring is diverted over the
        // control fd; the worker's control thread interns it.  The ping
        // barrier below orders it before any solve.
        if (wire::write_frame(worker.fd, frame)) {
          primed_over_fd[owner] = 1;
          status = net::RingStatus::Ok;
        }
      }
      if (status != net::RingStatus::Ok) {
        mark_dead(owner);
      }
    }
    journal(JournalRecord::prime(name, place.owners));
    placed.emplace(name, std::move(place));
  }
  // Barrier for fd-diverted instances: solves ride the ring and would
  // otherwise race ahead of an instance still in the control plane.  The
  // worker's control thread answers ping in order, so a pong proves every
  // earlier instance frame was interned.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (primed_over_fd[w] != 0 && workers_[w].alive) {
      (void)ping(w);
    }
  }

  // A request can end up ownerless for two distinct reasons, and the error
  // type must say which: every peer died (SolverFailure) vs. a peer was
  // *rejected* at the versioned handshake (ProtocolMismatch — the operator
  // deployed mismatched builds, and no amount of retrying will fix it).
  const auto no_owner_failure = [&](const std::string& solver,
                                    const std::string& text) {
    for (const std::string& reason : handshake_errors_) {
      if (!reason.empty()) {
        return service::SolveResult::failure(
            solver, service::ErrorCode::ProtocolMismatch,
            text + " (" + reason + ")");
      }
    }
    return service::SolveResult::failure(
        solver, service::ErrorCode::SolverFailure, text);
  };

  // --- Resolve requests, mirroring run_service: unknown instances become
  // deterministic per-request ParseErrors (byte-identical to single-process
  // output); instances no alive worker owns fail as SolverFailure (or
  // ProtocolMismatch, see above).
  struct Routed {
    std::size_t index;  ///< into batch.requests
    const service::BatchSpec::Request* request;
    const Placed* place;
  };
  std::vector<Routed> routed;
  routed.reserve(batch.requests.size());
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const auto& request = batch.requests[i];
    if (i < run_options.pre_resolved.size() && run_options.pre_resolved[i]) {
      // Takeover: the journal already holds this request's final result;
      // emit it verbatim, never re-solve.
      report.results[i] = *run_options.pre_resolved[i];
      continue;
    }
    const auto it = placed.find(request.instance_name);
    if (it == placed.end()) {
      if (batch.instances.count(request.instance_name) != 0) {
        report.results[i] = no_owner_failure(
            request.solver, "no alive shard worker to own instance '" +
                                request.instance_name + "'");
      } else {
        report.results[i] = service::SolveResult::failure(
            request.solver, service::ErrorCode::ParseError,
            "unknown instance '" + request.instance_name + "' (line " +
                std::to_string(request.line) + ")");
      }
      continue;
    }
    routed.push_back(Routed{i, &request, &it->second});
  }

  // --- Stream the rounds.  Latency decimation mirrors run_service.
  constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 20;
  const std::size_t rounds = run_options.repeat == 0 ? 1 : run_options.repeat;
  const std::size_t total = rounds * routed.size();
  const std::size_t stride =
      total == 0 ? 1 : (total + kMaxLatencySamples - 1) / kMaxLatencySamples;
  std::size_t seen = 0;

  struct InFlight {
    std::size_t routed_index;
    Clock::time_point sent;
  };

  for (std::size_t round = 0; round < rounds; ++round) {
    const bool last_round = round + 1 == rounds;

    // Per-round dedup/replay table: the idempotency token of each routed
    // request (fresh per round — rounds deliberately re-solve) and whether
    // its result has already been resolved, so a duplicate result of a
    // retried request can never resolve twice.
    std::vector<std::uint64_t> tokens(routed.size(), 0);
    std::vector<char> resolved(routed.size(), 0);

    const auto resolve = [&](std::size_t ri, service::SolveResult result,
                             double latency_seconds) {
      if (resolved[ri]) {
        ++transport_stats_.duplicates_dropped;
        return;
      }
      resolved[ri] = 1;
      result.latency_seconds = latency_seconds;
      if (seen++ % stride == 0) {
        report.latencies.add(latency_seconds);
      }
      if (last_round) {
        // Journal the final result before it becomes client-visible: a
        // primary killed between the two faultpoints below proves the
        // standby emits journaled results verbatim instead of re-solving.
        support::faultpoint("router.before_journal");
        journal(JournalRecord::resolved(routed[ri].index, tokens[ri], result));
        support::faultpoint("router.after_journal");
        report.results[routed[ri].index] = std::move(result);
      }
    };

    // Request queue per worker: requests in file order, each on its first
    // alive primed owner.
    std::vector<std::deque<std::size_t>> queues(workers_.size());
    std::vector<std::map<std::uint64_t, InFlight>> in_flight(workers_.size());

    const auto route = [&](std::size_t ri) {
      for (const std::uint32_t owner : routed[ri].place->owners) {
        if (workers_[owner].alive) {
          queues[owner].push_back(ri);
          return true;
        }
      }
      return false;
    };
    for (std::size_t ri = 0; ri < routed.size(); ++ri) {
      if (!route(ri)) {
        resolve(ri,
                no_owner_failure(routed[ri].request->solver,
                                 "no alive shard worker owns instance '" +
                                     routed[ri].request->instance_name + "'"),
                0.0);
      }
    }

    // Feeds one data-plane payload through the result machinery: stale
    // control echoes are skipped, duplicates dropped, live results
    // resolved.  False only on protocol corruption (caller fails the
    // worker over).
    const auto process_result_payload = [&](std::size_t w,
                                            const std::string& frame) {
      if (wire::message_type(frame) != "result") {
        return true;  // stale pong/drained from an earlier exchange
      }
      const auto message = wire::decode_result(frame);
      if (!message) {
        return false;  // protocol corruption
      }
      const auto it = in_flight[w].find(message->id);
      if (it == in_flight[w].end()) {
        ++transport_stats_.duplicates_dropped;
        return true;  // duplicate/stale id; drop
      }
      const double latency = seconds_since(it->second.sent);
      const std::size_t ri = it->second.routed_index;
      in_flight[w].erase(it);
      resolve(ri, message->result, latency);
      return true;
    };

    // A dead worker's queued work fails over to the next alive replica
    // owner — already primed, that is what replication > 1 buys.  Its
    // *in-flight* work is retried there too, under the same idempotency
    // token: the dead worker may or may not have solved it, but a replica
    // solves each token at most once and `resolved` drops any duplicate
    // result, so the retry is safe (effectively-once), not blind.  With no
    // alive replica, in-flight work fails typed.
    const auto handle_death = [&](std::size_t w) {
      // Results the dying worker already published are real completions —
      // on the shm plane they sit in the response ring after the POLLHUP,
      // on the socketpair they sit in the kernel buffer.  Deliver them
      // before failing anything over.
      if (workers_[w].plane != nullptr) {
        std::string leftover;
        while (workers_[w].plane->recv(&leftover, Clock::time_point::min()) ==
               net::RingStatus::Ok) {
          if (!process_result_payload(w, leftover)) {
            break;  // corrupt tail of a dying stream: stop salvaging
          }
        }
      }
      mark_dead(w);
      for (const auto& [id, flight] : in_flight[w]) {
        const std::size_t ri = flight.routed_index;
        support::faultpoint("router.before_retry");
        if (route(ri)) {
          ++transport_stats_.retries_replayed;
          continue;  // queued on a replica; top_up re-sends it
        }
        resolve(ri,
                service::SolveResult::failure(
                    routed[ri].request->solver,
                    service::ErrorCode::SolverFailure,
                    "shard worker " + std::to_string(w) +
                        " died mid-solve; the request may or may not have "
                        "executed"),
                seconds_since(flight.sent));
      }
      in_flight[w].clear();
      const std::deque<std::size_t> orphans = std::move(queues[w]);
      queues[w].clear();
      for (const std::size_t ri : orphans) {
        if (!route(ri)) {
          resolve(ri,
                  service::SolveResult::failure(
                      routed[ri].request->solver,
                      service::ErrorCode::SolverFailure,
                      "shard worker " + std::to_string(w) +
                          " died with the request queued and no alive "
                          "replica owns instance '" +
                          routed[ri].request->instance_name + "'"),
                  0.0);
        }
      }
    };

    const auto top_up = [&](std::size_t w) {
      while (workers_[w].alive && !queues[w].empty() &&
             in_flight[w].size() < options_.window) {
        const std::size_t ri = queues[w].front();
        wire::SolveMessage message;
        message.id = ++next_wire_id_;
        if (tokens[ri] == 0) {
          const std::size_t bi = routed[ri].index;
          if (last_round && bi < run_options.preset_tokens.size() &&
              run_options.preset_tokens[bi] != 0) {
            // Takeover replay: reuse the token the primary put in flight,
            // so a surviving worker that completed it answers from its
            // memo instead of re-solving.
            tokens[ri] = run_options.preset_tokens[bi];
          } else {
            tokens[ri] = ++next_token_;  // first send; retries reuse it
          }
          if (last_round) {
            // Only final-round work enters the standby's in-flight table:
            // earlier rounds exist to warm caches and their results are
            // never client-visible, so replaying them buys nothing.
            journal(JournalRecord::flight(tokens[ri], bi));
          }
        }
        message.token = tokens[ri];
        message.priority_weight = routed[ri].request->priority_weight;
        message.deadline_seconds = routed[ri].request->deadline_seconds;
        message.solver = routed[ri].request->solver;
        message.instance_name = routed[ri].request->instance_name;
        const std::string solve_frame = wire::encode_solve(message);
        const bool duplicate_send =
            support::faultpoint("router.before_forward") ==
            support::FaultAction::Dup;
        auto status = workers_[w].plane->send(solve_frame,
                                              Clock::now() + kSendBudget);
        if (duplicate_send && status == net::RingStatus::Ok) {
          // Inject the duplicate-delivery fault: the same solve frame twice
          // under one wire id.  The worker's token memo and the router's
          // dedup must make this invisible to the client.
          status = workers_[w].plane->send(solve_frame,
                                           Clock::now() + kSendBudget);
        }
        support::faultpoint("router.after_forward");
        if (status == net::RingStatus::TooBig) {
          // A solve frame that cannot ever fit the ring (absurd solver or
          // instance name): fail the request typed, keep the worker.
          queues[w].pop_front();
          resolve(ri,
                  service::SolveResult::failure(
                      routed[ri].request->solver,
                      service::ErrorCode::SolverFailure,
                      "request exceeds the shm data-plane ring capacity"),
                  0.0);
          continue;
        }
        if (status != net::RingStatus::Ok) {
          handle_death(w);
          return;
        }
        queues[w].pop_front();
        in_flight[w].emplace(message.id, InFlight{ri, Clock::now()});
      }
    };

    const auto any_in_flight = [&] {
      for (const auto& flights : in_flight) {
        if (!flights.empty()) {
          return true;
        }
      }
      return false;
    };
    const auto any_queued = [&] {
      for (const auto& queue : queues) {
        if (!queue.empty()) {
          return true;
        }
      }
      return false;
    };

    std::string payload;
    for (;;) {
      // The replication heartbeat rides this loop: it cycles at least every
      // doorbell slice / poll timeout even while every worker is pinned by
      // a long solve, so a slow fleet never looks dead to the standby.
      maybe_heartbeat();
      // Top up at the head of every pass so work re-routed by handle_death
      // (possibly onto a worker that was already idle) is always sent —
      // the failover contract must not depend on something else being in
      // flight at the moment a worker died.
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        top_up(w);
      }
      if (!any_in_flight()) {
        if (!any_queued()) {
          break;  // round complete (or every remaining request resolved)
        }
        // A death during top-up re-routed queued work; send it next pass.
        // Queues only ever hold work for alive workers (handle_death
        // drains a dead worker's queue), so each pass makes progress.
        continue;
      }
      // --- wait: sleep only when no worker's plane has a frame ready.
      bool ready = false;
      bool shm_pending = false;
      for (std::size_t w = 0; w < workers_.size() && !ready; ++w) {
        if (!workers_[w].alive || in_flight[w].empty()) {
          continue;
        }
        ready = workers_[w].plane->recv_ready();
        shm_pending = shm_pending ||
                      (w < channels_.size() && channels_[w] != nullptr);
      }
      if (!ready) {
        if (shm_pending && doorbell_ != nullptr) {
          // Multiplexed futex wait over every response ring: announce the
          // wait, re-check each plane (a push between the check above and
          // here bumps the doorbell, making the wait return immediately),
          // then sleep one bounded slice.  The slice also paces dead-peer
          // checks — a SIGKILLed worker never rings.
          const std::uint32_t seen = net::doorbell_begin_wait(*doorbell_);
          bool rang = false;
          for (std::size_t w = 0; w < workers_.size() && !rang; ++w) {
            rang = workers_[w].alive && !in_flight[w].empty() &&
                   workers_[w].plane->recv_ready();
          }
          if (!rang) {
            net::doorbell_wait(*doorbell_, seen,
                               standby_fd_ >= 0
                                   ? std::min(kDoorbellSlice,
                                              options_.heartbeat_interval)
                                   : kDoorbellSlice);
          }
          net::doorbell_end_wait(*doorbell_);
        } else {
          std::vector<struct pollfd> pfds;
          for (std::size_t w = 0; w < workers_.size(); ++w) {
            if (workers_[w].alive && !in_flight[w].empty()) {
              pfds.push_back({workers_[w].fd, POLLIN, 0});
            }
          }
          if (pfds.empty()) {
            continue;  // unreachable belt-and-braces: in-flight implies alive
          }
          // Finite timeout only so a forgotten-wakeup bug cannot hang
          // forever; results normally wake the poll directly.  With a
          // standby attached, the slice is additionally bounded by the
          // heartbeat interval: a fleet pinned by long solves must still
          // pulse the replication stream on schedule, or a slow primary
          // becomes indistinguishable from a dead one.
          const int slice =
              standby_fd_ >= 0
                  ? static_cast<int>(std::min<std::int64_t>(
                        500, options_.heartbeat_interval.count()))
                  : 500;
          (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), slice);
        }
      }

      // --- drain: pull everything each plane has, plane-blind.  A recv of
      // Timeout means "nothing more right now"; Closed/DeadPeer is death
      // (the shm plane's try-recv doubles as the POLLHUP check its ring
      // cannot perform).
      for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (!workers_[w].alive || in_flight[w].empty()) {
          continue;
        }
        for (;;) {
          const auto status =
              workers_[w].plane->recv(&payload, Clock::time_point::min());
          if (status == net::RingStatus::Ok) {
            if (!process_result_payload(w, payload)) {
              handle_death(w);  // protocol corruption: fail over
              break;
            }
            continue;
          }
          if (status == net::RingStatus::Timeout) {
            break;  // drained dry for this pass
          }
          handle_death(w);  // Closed or DeadPeer
          break;
        }
      }
    }
  }

  // The run is complete and every result journaled: tell the standby to
  // stand down instead of letting it take over on the post-run silence.
  journal(JournalRecord::done());

  // --- Aggregate worker cache stats: the fleet's cache is the disjoint
  // union of the shards, so sums are the right aggregation.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const auto stats = worker_cache_stats(w);
    if (!stats) {
      continue;
    }
    report.cache.hits += stats->hits;
    report.cache.misses += stats->misses;
    report.cache.evictions += stats->evictions;
    report.cache.expired += stats->expired;
    report.cache.admitted += stats->admitted;
    report.cache.rejected += stats->rejected;
    report.cache.entries += stats->entries;
    report.cache.weight += stats->weight;
    report.cache.capacity += stats->capacity;
  }

  report.total_solves = seen;
  report.wall_seconds = seconds_since(run_start);
  return report;
}

std::optional<service::CacheStats> ShardRouter::worker_cache_stats(
    std::size_t worker, std::chrono::milliseconds timeout) {
  if (worker >= workers_.size() || !workers_[worker].alive) {
    return std::nullopt;
  }
  if (!wire::write_frame(workers_[worker].fd, "stats")) {
    mark_dead(worker);
    return std::nullopt;
  }
  // Absolute deadline across the whole exchange: each stale frame consumes
  // budget instead of re-arming it, so a peer streaming junk cannot pin
  // the router here indefinitely.
  const auto deadline = Clock::now() + timeout;
  std::string payload;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0 || !read_frame_from(worker, &payload, left)) {
      return std::nullopt;
    }
    const auto stats = wire::decode_stats(payload);
    if (!stats) {
      continue;  // stale pong/drained from an earlier exchange
    }
    return stats;
  }
}

FleetCacheSummary ShardRouter::fleet_cache_summary(
    std::chrono::milliseconds timeout) {
  FleetCacheSummary summary;
  summary.configured = workers_.size();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const auto stats = worker_cache_stats(w, timeout);
    if (!stats) {
      continue;  // dead or unresponsive: it must not dilute the means
    }
    ++summary.alive;
    summary.total.hits += stats->hits;
    summary.total.misses += stats->misses;
    summary.total.evictions += stats->evictions;
    summary.total.expired += stats->expired;
    summary.total.admitted += stats->admitted;
    summary.total.rejected += stats->rejected;
    summary.total.entries += stats->entries;
    summary.total.weight += stats->weight;
    summary.total.capacity += stats->capacity;
  }
  return summary;
}

}  // namespace malsched::shard
