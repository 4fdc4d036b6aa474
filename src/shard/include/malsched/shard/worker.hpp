#pragma once

/// \file worker.hpp
/// The worker side of sharded serving: one process, one Scheduler, one
/// cache shard.
///
/// A worker owns the arc of the canonical key space the router's hash ring
/// assigned it.  It speaks the wire protocol (wire.hpp) over a single
/// socket fd: the router primes it with `instance` definitions for the
/// names it owns, then streams `solve` requests; the worker submits each
/// one to its in-process service::Scheduler (so priority admission,
/// cancellation/deadline handling and the canonicalization cache all work
/// exactly as in single-process mode) and streams `result` frames back as
/// solves finish.
///
/// Threading: the reader (calling) thread parses frames and submits;
/// a single writer thread resolves tickets in submission order and writes
/// results.  `ping` and `stats` are answered by the reader thread directly,
/// so health checks succeed even while every Scheduler worker is pinned by
/// a long exact solve.  The router's per-worker in-flight window is at most
/// the Scheduler queue capacity, so submit() never blocks the reader on
/// backpressure and the socket never deadlocks.
///
/// Connections begin with the versioned `hello` handshake (wire.hpp): the
/// worker greets, validates the router's greeting under a deadline, and
/// exits with code 2 on a mismatched or silent peer — essential once the fd
/// may be a TCP connection from anywhere rather than a trusted socketpair.
///
/// Idempotent solves: `solve` frames carry an idempotency token, and the
/// worker guarantees each token is solved at most once — a duplicate of a
/// completed token replays the memoized result verbatim (latency included),
/// a duplicate of an in-flight token parks until the original finishes.
/// This is the worker half of the router's retry-on-replica failover.
///
/// Data planes: with a ShmChannel (created by the router before fork and
/// inherited through it), `solve`/`instance` frames arrive on the shared-
/// memory request ring and results leave on the response ring, while the
/// fd carries only control traffic — ping/stats answered by a dedicated
/// control thread, oversize instances the router diverted past the ring,
/// `drain`, and EOF (which closes the rings).  Without a channel the fd
/// carries everything.  Data frames are binary on either plane (wire.hpp),
/// so a malformed one — truncated, or a pre-v4 text `solve` — is a
/// protocol error: the worker stops serving and returns 1.
///
/// Lifetime: the worker exits cleanly on `drain` + EOF or bare EOF (router
/// gone).  It never touches stdout/stderr — it is forked from the router's
/// process and shares its stdio buffers.

#include "malsched/service/service.hpp"
#include "malsched/service/solver_registry.hpp"

namespace malsched::shard {

class ShmChannel;

/// Per-worker Scheduler/cache configuration IS the batch-level
/// ServiceOptions — the worker serves through the same
/// `make_scheduler_options` mapping as run_service, so single-process and
/// sharded serving cannot drift apart option by option.  `repeat` is
/// ignored here: rounds are driven by the router.
using WorkerOptions = service::ServiceOptions;

/// Serves the wire protocol on `fd` until EOF; returns the process exit
/// code (0 on a clean drain, 1 on a protocol error, 2 on a failed
/// handshake).  Blocks the calling thread for the worker's whole life —
/// call it from a freshly forked child and pass the result to _exit(), or
/// from a `malsched_worker` accept loop with a freshly dialed fd.
[[nodiscard]] int run_worker(int fd, const service::SolverRegistry& registry,
                             const WorkerOptions& options,
                             ShmChannel* channel = nullptr);

}  // namespace malsched::shard
