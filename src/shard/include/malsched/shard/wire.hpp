#pragma once

/// \file wire.hpp
/// Length-prefixed wire protocol between the ShardRouter and its worker
/// processes.
///
/// Frame layout (everything on the wire is a frame):
///
///     ┌────────────────────┬──────────────────────────┐
///     │ length: u32 LE     │ payload: `length` bytes  │
///     └────────────────────┴──────────────────────────┘
///
/// Data messages (`instance`, `solve`, `result`) are binary, on every path
/// that carries them: shm rings, the socketpair, TCP, the control-fd divert
/// of frames too big for a ring, and the standby journal.  A payload opens
/// with a tag byte >= 0x80 (no text message starts with one); integers are
/// fixed-width little-endian, strings are a u32 length plus raw bytes, and
/// doubles travel as their raw IEEE-754 bits through a u64:
///
///   router → worker
///     instance  0x81 name:str P:f64 n:u32 n×(V:f64 δ:f64 w:f64)
///     solve     0x82 id:u64 token:u64 priority-weight:f64
///                    has_deadline:u8 [deadline-seconds:f64]
///                    solver:str instance-name:str
///
///   worker → router
///     result    0x83 id:u64 token:u64 solver:str latency:f64 status:u8
///                    status 1: objective:f64 makespan:f64 cache_hit:u8
///                              n:u32 n×completion:f64
///                    status 0: code:u8 detail:str
///
/// "The bits are the value" makes the sharded-vs-single byte-identical
/// output contract hold by construction — NaN payloads, -0.0 and
/// subnormals included, with no formatter in the loop.  Length-prefixed
/// strings need no quoting, so solver names and error details cross
/// verbatim whatever bytes they hold.  `SolveError` codes travel as their
/// index in `service::kAllErrorCodes`, so Cancelled / DeadlineExceeded and
/// friends mean the same thing on both sides of the pipe.
///
/// Control messages are one line of text:
///
///   both directions, first frame of every new connection
///     hello malsched-wire <version> <role>
///
///   router → worker
///     ping <seq>
///     stats
///     drain
///
///   worker → router
///     pong <seq>
///     stats hits=.. misses=.. evictions=.. expired=.. admitted=..
///           rejected=.. entries=.. weight=.. capacity=..
///     drained <results-delivered>
///
/// The `hello` frame is the versioned handshake: both sides send theirs
/// immediately on connect (write-then-read, so neither blocks on the other)
/// and validate the peer's before any other frame.  A garbage greeting, a
/// wrong magic or a different protocol version rejects the connection with
/// a typed `ProtocolMismatch` instead of mis-parsing frames — on a
/// multi-host fleet the peer is dialed over TCP and may be anything from an
/// old binary to a port scanner.
///
/// `solve` carries two identifiers on purpose: `id` names the wire exchange
/// (unique per frame, echoed by the matching result) while `token` names
/// the *request* and is stable across retries.  When a worker dies mid-solve
/// and the router replays the request on a primed replica, the retry is a
/// new exchange (`id` changes) for the same request (`token` does not) —
/// workers dedup on token so a request is solved effectively once, and the
/// router drops whichever duplicate result loses the race.
///
/// Decoders are fail-closed: a payload that is truncated, carries trailing
/// bytes, holds an out-of-range flag or code byte, declares more elements
/// than its remaining bytes can hold, or (for `instance`) breaks the
/// core::Instance preconditions decodes to std::nullopt, never to a
/// partial message, a giant allocation or a contract abort.  The frame reader
/// enforces a maximum payload size so a corrupted length prefix fails the
/// connection instead of a 4 GiB allocation.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "malsched/core/instance.hpp"
#include "malsched/net/frame.hpp"
#include "malsched/service/cache.hpp"
#include "malsched/service/solver_registry.hpp"

namespace malsched::shard::wire {

/// Frame transport (length prefix, dead-peer classification, deadline
/// reads) lives in malsched/net/frame.hpp; re-exported here so the wire
/// messages and their framing stay one API for callers.
using net::FrameError;
using net::frame_error_name;
using net::is_dead_peer_errno;
using net::kMaxFrameBytes;
using net::read_frame;
using net::read_frame_deadline;
using net::write_frame;

/// --- versioned handshake ---

/// Magic token of the hello frame.  A peer that is not a malsched process
/// (wrong port, port scanner, load balancer health check) fails here.
inline constexpr const char* kWireMagic = "malsched-wire";

/// Protocol version, bumped on every incompatible wire change.  History:
///   1 — instance/solve/result/ping/stats/drain over socketpairs.
///   2 — the hello handshake itself, idempotency token in solve (new
///       positional field) and result (token= field).
///   3 — stats frames carry the admission counters (admitted=,
///       rejected=) — decode requires them, so a v2 stats frame no longer
///       parses.
///   4 — instance/solve/result are binary on every transport; the
///       hexfloat text encoding of those messages is gone, so a v3 peer
///       is turned away at hello rather than on its first data frame.
inline constexpr std::uint32_t kWireProtocolVersion = 4;

struct HelloMessage {
  std::uint32_t version = kWireProtocolVersion;
  /// "router" or "worker"; diagnostic only (either end accepts either role,
  /// so tooling like a health prober can speak the protocol too).
  std::string role;
};
[[nodiscard]] std::string encode_hello(const HelloMessage& message);
[[nodiscard]] std::optional<HelloMessage> decode_hello(
    const std::string& payload);

/// Validates a peer's greeting frame.  Returns std::nullopt when the peer
/// speaks this protocol version (filling *peer when non-null); otherwise a
/// human-readable reason — garbage greeting, wrong magic, or a version
/// mismatch — destined for a ProtocolMismatch error.
[[nodiscard]] std::optional<std::string> validate_hello(
    const std::string& payload, HelloMessage* peer = nullptr);

/// Performs the full handshake on a fresh connection: writes this side's
/// hello, then reads and validates the peer's under `timeout` (the read is
/// deadline-bounded so a silent or hostile peer cannot hang the caller).
/// Both sides write first, so neither blocks on the other.  False on
/// failure with *reason set (when non-null) to the mismatch/garbage/timeout
/// explanation.  Used by the router on every transport open and by
/// run_worker before its first real frame.
[[nodiscard]] bool handshake(int fd, const std::string& role,
                             std::chrono::milliseconds timeout,
                             std::string* reason = nullptr);

/// --- message encoding (pure string builders / parsers) ---

/// The one data encoding.  Kept as a single-value enum behind an unnamed
/// trailing parameter of the encoders so callers that spell
/// `Dialect::Binary` keep compiling; it selects nothing.
enum class Dialect { Binary };

/// First payload byte of each data message; >= 0x80 so no text control
/// message (which starts with a lowercase ASCII keyword) can collide.
inline constexpr unsigned char kBinaryInstanceTag = 0x81;
inline constexpr unsigned char kBinarySolveTag = 0x82;
inline constexpr unsigned char kBinaryResultTag = 0x83;

/// `instance` message: name plus the instance's raw-bit serialization.
[[nodiscard]] std::string encode_instance(const std::string& name,
                                          const core::Instance& instance,
                                          Dialect = Dialect::Binary);
struct InstanceMessage {
  std::string name;
  std::optional<core::Instance> instance;
};
[[nodiscard]] std::optional<InstanceMessage> decode_instance(
    const std::string& payload);

struct SolveMessage {
  /// Wire-exchange id: unique per frame, echoed by the matching result.
  std::uint64_t id = 0;
  /// Idempotency token: stable across retries of the same request.  A
  /// worker that has already solved (or is solving) this token must not
  /// solve it again — it replays/aliases instead.
  std::uint64_t token = 0;
  double priority_weight = 1.0;
  /// Latency budget in seconds from worker-side admission; unset = none.
  /// decode_solve rejects a negative, NaN or infinite budget.
  std::optional<double> deadline_seconds;
  std::string solver;
  std::string instance_name;
};
[[nodiscard]] std::string encode_solve(const SolveMessage& message,
                                       Dialect = Dialect::Binary);
[[nodiscard]] std::optional<SolveMessage> decode_solve(
    const std::string& payload);

/// `result` message: the full SolveResult, bit-exact, echoing the solve's
/// exchange id and idempotency token.
[[nodiscard]] std::string encode_result(std::uint64_t id, std::uint64_t token,
                                        const service::SolveResult& result,
                                        Dialect = Dialect::Binary);
struct ResultMessage {
  std::uint64_t id = 0;
  std::uint64_t token = 0;
  service::SolveResult result;
};
[[nodiscard]] std::optional<ResultMessage> decode_result(
    const std::string& payload);

/// Aggregate-able cache statistics.
[[nodiscard]] std::string encode_stats(const service::CacheStats& stats);
[[nodiscard]] std::optional<service::CacheStats> decode_stats(
    const std::string& payload);

/// The message type of a payload: "instance"/"solve"/"result" for a data
/// tag byte, otherwise the first whitespace-delimited token of a control
/// line ("hello", "ping", "pong", "stats", "drain", "drained").
[[nodiscard]] std::string message_type(const std::string& payload);

}  // namespace malsched::shard::wire
