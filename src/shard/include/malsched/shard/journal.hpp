#pragma once

/// \file journal.hpp
/// The router-replication journal: the record stream a primary ShardRouter
/// feeds its hot standby, and the standby-side state it replays into.
///
/// The stream mirrors exactly the state a takeover needs — nothing more:
///
///   * ring membership     (`jmember`)   which worker slots are alive
///   * the primed set      (`jprime`)    instance name -> ring owners
///   * the in-flight table (`jflight`)   idempotency token -> request
///   * resolved results    (`jresolved`) final-round results, bit-exact
///   * liveness            (`jheartbeat`) the primary's pulse
///   * completion          (`jdone`)     the run finished; stand down
///
/// Records ride the net/ frame layer (length-prefixed, dead-peer
/// classified) over the replication connection, which opens with the
/// versioned `hello` handshake carrying the `standby` role.  Records are
/// one text line each, except that `jresolved` appends the binary `result`
/// payload (wire.hpp) verbatim after its header line, so results survive
/// replication bit-exactly for the same reason they survive the worker
/// wire: raw IEEE-754 bits, no formatter in the loop.
///
/// Replay is a pure fold: StandbyState::apply consumes records in stream
/// order and any prefix of the stream yields a consistent state — the
/// property the takeover correctness argument rests on, and the one the
/// journal fuzz test hammers.  Decoding is fail-closed: truncated or
/// garbage payloads reject typed (nullopt + reason), never crash, never
/// partially apply.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "malsched/service/solver_registry.hpp"

namespace malsched::shard {

struct JournalRecord {
  enum class Type { Member, Prime, Flight, Resolved, Heartbeat, Done };

  Type type = Type::Heartbeat;
  std::uint32_t worker = 0;           ///< Member: worker slot
  bool alive = false;                 ///< Member: joined (true) or died
  std::string name;                   ///< Prime: instance name (one token)
  std::vector<std::uint32_t> owners;  ///< Prime: primed ring owners
  std::uint64_t token = 0;            ///< Flight/Resolved: idempotency token
  std::uint64_t request_index = 0;    ///< Flight/Resolved: batch request
  service::SolveResult result;        ///< Resolved: the bit-exact result
  std::uint64_t seq = 0;              ///< Heartbeat: monotone pulse counter

  [[nodiscard]] static JournalRecord member(std::uint32_t worker, bool alive);
  [[nodiscard]] static JournalRecord prime(std::string name,
                                           std::vector<std::uint32_t> owners);
  [[nodiscard]] static JournalRecord flight(std::uint64_t token,
                                            std::uint64_t request_index);
  [[nodiscard]] static JournalRecord resolved(std::uint64_t request_index,
                                              std::uint64_t token,
                                              service::SolveResult result);
  [[nodiscard]] static JournalRecord heartbeat(std::uint64_t seq);
  [[nodiscard]] static JournalRecord done();
};

/// Encodes one record as a frame payload (the caller frames it with
/// wire::write_frame).  Instance names are single tokens by the batch
/// grammar; encode does not re-validate.
[[nodiscard]] std::string encode_journal(const JournalRecord& record);

/// Decodes one frame payload.  nullopt on any malformed input — unknown
/// tag, missing or non-numeric fields, an embedded result that does not
/// parse — with *error (when non-null) naming the reason.  Never throws,
/// never returns a half-filled record.
[[nodiscard]] std::optional<JournalRecord> decode_journal(
    const std::string& payload, std::string* error = nullptr);

/// The standby's mirror of the primary, folded from the record stream.
/// Any prefix of a valid stream is a consistent state: takeover after N
/// records acts only on what those N records say.
struct StandbyState {
  /// worker slot -> alive, grown on demand (slots are dense and small).
  std::vector<char> members;
  /// instance name -> ring owners the primary primed it on.
  std::map<std::string, std::vector<std::uint32_t>> primed;
  /// idempotency token -> request index, for every request the primary put
  /// in flight whose result has not been journaled — exactly the set a
  /// takeover must replay under existing tokens.
  std::map<std::uint64_t, std::uint64_t> in_flight;
  /// request index -> bit-exact final result; a takeover emits these
  /// verbatim and never re-solves them.
  std::map<std::uint64_t, service::SolveResult> resolved;
  std::uint64_t heartbeats = 0;  ///< pulses seen (liveness telemetry)
  std::uint64_t records = 0;     ///< records applied in total
  std::uint64_t max_token = 0;   ///< highest token seen; fresh tokens go above
  bool done = false;             ///< primary declared the run complete

  /// Folds one record in.  Resolved retires its token from the in-flight
  /// table: the request completed, so a takeover must not replay it.
  void apply(const JournalRecord& record);

  [[nodiscard]] std::size_t alive_members() const {
    std::size_t count = 0;
    for (const char alive : members) {
      count += alive != 0 ? 1 : 0;
    }
    return count;
  }
};

}  // namespace malsched::shard
