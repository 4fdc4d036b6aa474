#include "malsched/shard/worker.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "malsched/service/scheduler.hpp"
#include "malsched/shard/data_plane.hpp"
#include "malsched/shard/wire.hpp"
#include "malsched/support/faultpoint.hpp"

namespace malsched::shard {

namespace {

/// One submitted request awaiting resolution, in submission order.
struct Pending {
  std::uint64_t id = 0;
  std::uint64_t token = 0;
  service::Ticket ticket;
};

/// Completed idempotency tokens the worker can replay without re-solving.
/// Bounded FIFO: old memos age out, which is safe — the router only retries
/// while a request is unresolved, so a replayed token is always recent.
constexpr std::size_t kMaxCompletedTokens = 65536;

/// How long a result push may wait on a full response ring before the
/// worker concludes the router stopped consuming.  Far beyond any real
/// stall: the router drains responses continuously while anything is in
/// flight.
constexpr std::chrono::seconds kResultPushBudget{60};

/// Idle slice of the shm request-ring loop: long enough that an idle
/// worker sleeps (futex) instead of spinning, short enough that a drain
/// barrier requested over the control plane is honored promptly.
constexpr std::chrono::milliseconds kRingIdleSlice{250};

}  // namespace

int run_worker(int fd, const service::SolverRegistry& registry,
               const WorkerOptions& options, ShmChannel* channel) {
  // Versioned handshake before anything else: a mismatched or impostor
  // router is rejected here, and the scheduler is never even constructed.
  // Both sides write-then-read, so the exchange cannot deadlock.
  if (!wire::handshake(fd, "worker", std::chrono::milliseconds(10000))) {
    return 2;
  }

  // The single shared ServiceOptions -> Scheduler::Options mapping: sharded
  // workers must serve exactly like run_service would.
  auto scheduler_options = service::make_scheduler_options(options);
  if (scheduler_options.threads == 0) {
    scheduler_options.threads = 1;  // hardware concurrency is the router's
                                    // host, not a per-shard default
  }
  service::Scheduler scheduler(registry, scheduler_options);

  // Writer thread: resolves tickets in submission order and frames results
  // back.  A long solve at the queue head delays later *responses*, never
  // later *solves* — the Scheduler keeps streaming behind it — and the
  // router does not depend on response order (results carry ids).
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<Pending> pending;
  bool closed = false;
  bool writing = false;  ///< writer is between pop and delivery
  std::uint64_t delivered = 0;

  // Idempotency state (guarded by queue_mutex).  A token is in exactly one
  // stage: `in_progress` (submitted, result not yet delivered; duplicate
  // solves park their wire id in `aliases` instead of re-solving) or
  // `completed` (memoized result, replayed verbatim — latency included, so
  // a replay is observably the original solve).  Token 0 opts out.
  std::map<std::uint64_t, service::SolveResult> completed;
  std::deque<std::uint64_t> completed_order;  ///< FIFO eviction of memos
  std::map<std::uint64_t, std::vector<std::uint64_t>> aliases;
  std::set<std::uint64_t> in_progress;

  // Multiple threads write frames to the fd (results from the writer,
  // pong/stats/drained from the reader/control thread); serialize so
  // frames never interleave mid-payload.
  std::mutex write_mutex;
  bool peer_gone = false;
  // Set once the control plane hits EOF/error — the router is gone.  The
  // response-ring push probes it so a worker never sleeps forever pushing
  // results nobody will read.
  std::atomic<bool> router_gone{false};
  const auto send_frame = [&](const std::string& payload) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (!peer_gone && !wire::write_frame(fd, payload)) {
      peer_gone = true;  // router died: keep draining, stop writing
    }
  };

  // Emits one encoded result.  Shm mode pushes it to the response ring
  // (writer thread and reader thread both land here — the mutex makes the
  // ring's single-producer contract hold); a frame the ring could never
  // hold is diverted to the control fd, where the router's plane picks it
  // up transparently.  Socketpair mode is just the fd.
  std::mutex emit_mutex;
  const auto emit_payload = [&](const std::string& payload) {
    if (channel != nullptr) {
      const std::lock_guard<std::mutex> lock(emit_mutex);
      const auto status = channel->response_ring().push(
          payload, std::chrono::steady_clock::now() + kResultPushBudget,
          [&] { return !router_gone.load(std::memory_order_relaxed); });
      if (status != net::RingStatus::TooBig) {
        return;  // Ok, or the router is gone — either way, done here
      }
    }
    send_frame(payload);
  };
  const auto emit_result = [&](std::uint64_t id, std::uint64_t token,
                               const service::SolveResult& result) {
    const std::string payload = wire::encode_result(id, token, result);
    // A kill here is the nastiest worker death: the solve completed but the
    // reply never left, so the router must retry the token on a replica.
    // Dup emits the same payload twice — the router's id dedup absorbs it.
    if (support::faultpoint("worker.before_reply") ==
        support::FaultAction::Dup) {
      emit_payload(payload);
    }
    emit_payload(payload);
  };

  // Delivers a result, promotes its token in_progress -> completed, and
  // flushes any duplicate solves that parked on the token meanwhile (their
  // replay is byte-identical to the original, latency included).
  const auto finish = [&](std::uint64_t id, std::uint64_t token,
                          const service::SolveResult& result) {
    emit_result(id, token, result);
    if (token == 0) {
      return;
    }
    std::vector<std::uint64_t> replay_ids;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      in_progress.erase(token);
      if (const auto parked = aliases.find(token); parked != aliases.end()) {
        replay_ids = std::move(parked->second);
        aliases.erase(parked);
      }
      if (completed.emplace(token, result).second) {
        completed_order.push_back(token);
        if (completed_order.size() > kMaxCompletedTokens) {
          completed.erase(completed_order.front());
          completed_order.pop_front();
        }
      }
    }
    for (const std::uint64_t replay_id : replay_ids) {
      emit_result(replay_id, token, result);
    }
  };

  std::thread writer([&] {
    for (;;) {
      Pending next;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return closed || !pending.empty(); });
        if (pending.empty()) {
          return;
        }
        next = std::move(pending.front());
        pending.pop_front();
        writing = true;
      }
      finish(next.id, next.token, next.ticket.get());
      {
        const std::lock_guard<std::mutex> lock(queue_mutex);
        writing = false;
        ++delivered;
      }
      queue_cv.notify_all();
    }
  });

  const auto shutdown_worker = [&](int code) {
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      closed = true;
    }
    queue_cv.notify_all();
    writer.join();
    return code;
  };

  // Interned instances by router-assigned name.  In shm mode two threads
  // touch the map (the ring loop and the control thread's oversize-
  // instance path); the mutex is uncontended in socketpair mode.
  std::map<std::string, service::InstanceHandle> handles;
  std::mutex handles_mutex;

  // --- frame handlers shared by both data planes ---

  const auto handle_instance = [&](const std::string& payload) {
    auto message = wire::decode_instance(payload);
    if (!message || !message->instance) {
      return false;  // protocol error: the router serialized this itself
    }
    const std::lock_guard<std::mutex> lock(handles_mutex);
    handles.insert_or_assign(message->name,
                             service::intern(std::move(*message->instance)));
    return true;
  };

  const auto handle_solve = [&](const std::string& payload) {
    const auto message = wire::decode_solve(payload);
    if (!message) {
      return false;
    }
    // Idempotency gate: a token this worker has already completed is
    // replayed from the memo; one still in flight parks this wire id on
    // the original solve.  Either way the solver runs at most once per
    // token, which is what makes the router's retry-on-replica safe.
    if (message->token != 0) {
      std::optional<service::SolveResult> memo;
      bool parked = false;
      {
        const std::lock_guard<std::mutex> lock(queue_mutex);
        if (const auto done = completed.find(message->token);
            done != completed.end()) {
          memo = done->second;
        } else if (in_progress.count(message->token) != 0) {
          aliases[message->token].push_back(message->id);
          parked = true;
        } else {
          in_progress.insert(message->token);
        }
      }
      if (memo) {
        emit_result(message->id, message->token, *memo);
        return true;
      }
      if (parked) {
        return true;
      }
    }
    // Copy the handle out under the lock, submit outside it: submit() may
    // block on admission backpressure and must never hold up the control
    // thread's oversize-instance path.
    std::optional<service::InstanceHandle> handle;
    {
      const std::lock_guard<std::mutex> lock(handles_mutex);
      const auto it = handles.find(message->instance_name);
      if (it != handles.end()) {
        handle = it->second;
      }
    }
    service::Ticket ticket;
    if (handle) {
      service::SubmitOptions submit_options;
      submit_options.priority_weight = message->priority_weight;
      if (message->deadline_seconds) {
        submit_options.deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    std::min(*message->deadline_seconds,
                             service::kMaxDeadlineBudgetSeconds)));
      }
      ticket = scheduler.submit(message->solver, *handle, submit_options);
    }
    if (!ticket.valid()) {
      // The router primes before solving, so this is a routing bug; answer
      // it per-request (typed ParseError) instead of dying.
      finish(message->id, message->token,
             service::SolveResult::failure(
                 message->solver, service::ErrorCode::ParseError,
                 "worker does not hold instance '" + message->instance_name +
                     "' (routing bug?)"));
      return true;
    }
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      pending.push_back(
          Pending{message->id, message->token, std::move(ticket)});
    }
    queue_cv.notify_all();
    return true;
  };

  // Drain barrier: everything admitted so far finishes and is delivered.
  const auto drain_barrier = [&] {
    std::unique_lock<std::mutex> lock(queue_mutex);
    queue_cv.wait(lock, [&] { return pending.empty() && !writing; });
    const std::uint64_t count = delivered;
    lock.unlock();
    send_frame("drained " + std::to_string(count));
  };

  // --- socketpair mode: one reader loop, data and control on the fd ---

  if (channel == nullptr) {
    std::string payload;
    int exit_code = 0;
    while (wire::read_frame(fd, &payload)) {
      const std::string type = wire::message_type(payload);
      if (type == "instance") {
        if (!handle_instance(payload)) {
          exit_code = 1;
          break;
        }
      } else if (type == "solve") {
        if (!handle_solve(payload)) {
          exit_code = 1;
          break;
        }
      } else if (type == "ping") {
        // Answered inline by the reader so liveness is observable even
        // while every scheduler thread is busy with a long solve.
        std::string reply = payload;
        reply.replace(0, 4, "pong");
        send_frame(reply);
      } else if (type == "stats") {
        send_frame(wire::encode_stats(scheduler.cache_stats()));
      } else if (type == "drain") {
        // Finish everything submitted so far, then acknowledge.  The
        // router sends nothing after drain; the next read sees EOF and
        // exits.
        drain_barrier();
      } else {
        exit_code = 1;
        break;
      }
    }
    return shutdown_worker(exit_code);
  }

  // --- shm mode: requests ride the ring, control rides the fd ---
  //
  // The control thread owns the fd: ping/stats answered inline (liveness
  // stays observable during long solves, exactly as before), oversize
  // instances the router diverted here are interned, and EOF — the
  // router's drain-and-exit signal — closes the rings so the main loop
  // unblocks and winds down.  `drain` is only *flagged* here; the ring
  // loop completes it once the request ring is empty, because only the
  // ring consumer can know it holds no half-admitted request.
  std::atomic<bool> drain_requested{false};
  std::atomic<int> control_exit{0};
  std::thread control([&] {
    std::string payload;
    while (wire::read_frame(fd, &payload)) {
      const std::string type = wire::message_type(payload);
      if (type == "ping") {
        std::string reply = payload;
        reply.replace(0, 4, "pong");
        send_frame(reply);
      } else if (type == "stats") {
        send_frame(wire::encode_stats(scheduler.cache_stats()));
      } else if (type == "instance") {
        if (!handle_instance(payload)) {
          control_exit.store(1, std::memory_order_relaxed);
          break;
        }
      } else if (type == "drain") {
        drain_requested.store(true, std::memory_order_relaxed);
      } else {
        control_exit.store(1, std::memory_order_relaxed);
        break;
      }
    }
    router_gone.store(true, std::memory_order_relaxed);
    // Close both rings: wakes the ring loop (drains what was published,
    // then exits) and any result push still parked on a full ring.
    channel->request_ring().close();
    channel->response_ring().close();
  });

  std::string payload;
  int exit_code = 0;
  for (;;) {
    const auto status = channel->request_ring().pop(
        &payload, std::chrono::steady_clock::now() + kRingIdleSlice);
    if (status == net::RingStatus::Ok) {
      const std::string type = wire::message_type(payload);
      const bool ok = type == "instance" ? handle_instance(payload)
                      : type == "solve"  ? handle_solve(payload)
                                         : false;
      if (!ok) {
        exit_code = 1;
        break;
      }
      continue;
    }
    if (status == net::RingStatus::Closed) {
      break;  // EOF propagated through the ring: drain-and-exit
    }
    // Timeout: the ring is idle, so nothing is half-admitted — the only
    // state a drain barrier could miss — and the barrier may run now.
    if (drain_requested.exchange(false, std::memory_order_relaxed)) {
      drain_barrier();
    }
  }

  // Wind down: close the rings (idempotent; unblocks the peer if it is
  // parked on one) and kick the control thread off its blocking read.
  channel->request_ring().close();
  channel->response_ring().close();
  ::shutdown(fd, SHUT_RDWR);
  control.join();
  if (exit_code == 0) {
    exit_code = control_exit.load(std::memory_order_relaxed);
  }
  return shutdown_worker(exit_code);
}

}  // namespace malsched::shard
