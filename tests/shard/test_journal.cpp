// Property tests of the router-replication journal codec (journal.hpp):
// arbitrary record interleavings must round-trip encode/decode exactly and
// replay to the same standby state, and truncated/garbage payloads must
// reject typed — nullopt plus a reason — and never crash.  The takeover
// correctness argument rests on replay being a pure fold of the stream,
// so the fuzz here is deliberately heavy on hostile inputs.

#include "malsched/shard/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "malsched/service/solver_registry.hpp"
#include "malsched/shard/wire.hpp"

namespace msvc = malsched::service;
namespace mshard = malsched::shard;

namespace {

/// Bit-exact result comparison via the wire's own canonical encoding —
/// SolveResult has no operator== and the raw-bit form IS the equality the
/// replication contract promises.
std::string fingerprint(const msvc::SolveResult& result) {
  return mshard::wire::encode_result(0, 0, result);
}

msvc::SolveResult sample_success(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> value(0.0, 1e6);
  msvc::SolveOutput output;
  output.objective = value(rng) * 0.1;  // awkward decimals
  output.makespan = value(rng) * 1e-7;
  const std::size_t n = 1 + rng() % 5;
  for (std::size_t i = 0; i < n; ++i) {
    output.completions.push_back(value(rng) / 3.0);
  }
  return msvc::SolveResult::success("wdeq", std::move(output));
}

msvc::SolveResult sample_failure(std::mt19937_64& rng) {
  static const msvc::ErrorCode codes[] = {
      msvc::ErrorCode::ParseError, msvc::ErrorCode::SolverFailure,
      msvc::ErrorCode::DeadlineExceeded, msvc::ErrorCode::ProtocolMismatch};
  return msvc::SolveResult::failure(
      "optimal", codes[rng() % 4],
      "detail with spaces, \"quotes\" and a\nnewline #" +
          std::to_string(rng() % 1000));
}

mshard::JournalRecord sample_record(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0:
      return mshard::JournalRecord::member(
          static_cast<std::uint32_t>(rng() % 8), rng() % 2 == 0);
    case 1: {
      std::vector<std::uint32_t> owners;
      const std::size_t n = 1 + rng() % 3;
      for (std::size_t i = 0; i < n; ++i) {
        owners.push_back(static_cast<std::uint32_t>(rng() % 8));
      }
      return mshard::JournalRecord::prime(
          "inst-" + std::to_string(rng() % 16), std::move(owners));
    }
    case 2:
      return mshard::JournalRecord::flight(1 + rng() % 64, rng() % 32);
    case 3:
      return mshard::JournalRecord::resolved(
          rng() % 32, 1 + rng() % 64,
          rng() % 2 == 0 ? sample_success(rng) : sample_failure(rng));
    case 4:
      return mshard::JournalRecord::heartbeat(rng());
    default:
      return mshard::JournalRecord::done();
  }
}

void expect_equal(const mshard::JournalRecord& a,
                  const mshard::JournalRecord& b) {
  ASSERT_EQ(a.type, b.type);
  EXPECT_EQ(a.worker, b.worker);
  EXPECT_EQ(a.alive, b.alive);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.owners, b.owners);
  EXPECT_EQ(a.token, b.token);
  EXPECT_EQ(a.request_index, b.request_index);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(fingerprint(a.result), fingerprint(b.result));
}

void expect_equal_state(const mshard::StandbyState& a,
                        const mshard::StandbyState& b) {
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.primed, b.primed);
  EXPECT_EQ(a.in_flight, b.in_flight);
  ASSERT_EQ(a.resolved.size(), b.resolved.size());
  for (const auto& [index, result] : a.resolved) {
    const auto it = b.resolved.find(index);
    ASSERT_NE(it, b.resolved.end()) << "request " << index;
    EXPECT_EQ(fingerprint(result), fingerprint(it->second));
  }
  EXPECT_EQ(a.heartbeats, b.heartbeats);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.max_token, b.max_token);
  EXPECT_EQ(a.done, b.done);
}

}  // namespace

TEST(Journal, EveryRecordTypeRoundTripsExactly) {
  std::vector<mshard::JournalRecord> records = {
      mshard::JournalRecord::member(0, true),
      mshard::JournalRecord::member(4294967295u, false),
      mshard::JournalRecord::prime("small", {0}),
      mshard::JournalRecord::prime("heavy-tail", {3, 1, 2}),
      mshard::JournalRecord::flight(1, 0),
      mshard::JournalRecord::flight(18446744073709551615ull, 99),
      mshard::JournalRecord::resolved(
          7, 12,
          msvc::SolveResult::success("wdeq",
                                     msvc::SolveOutput{3.25, 1.125, {1.0, 0.5}})),
      mshard::JournalRecord::resolved(
          8, 13,
          msvc::SolveResult::failure("optimal", msvc::ErrorCode::SolverFailure,
                                     "worker died mid-solve")),
      mshard::JournalRecord::heartbeat(0),
      mshard::JournalRecord::heartbeat(987654321),
      mshard::JournalRecord::done(),
  };
  for (const auto& record : records) {
    const std::string payload = mshard::encode_journal(record);
    std::string error;
    const auto decoded = mshard::decode_journal(payload, &error);
    ASSERT_TRUE(decoded.has_value()) << payload << ": " << error;
    expect_equal(record, *decoded);
  }
}

TEST(Journal, RandomInterleavingsRoundTripAndReplayToTheSameState) {
  // The fuzz property: for any record sequence, decode(encode(r)) == r per
  // record, and folding the decoded stream yields exactly the state the
  // original stream yields.  Several seeds, long streams.
  for (const std::uint64_t seed : {1ull, 42ull, 20260808ull}) {
    std::mt19937_64 rng(seed);
    mshard::StandbyState original_state;
    mshard::StandbyState decoded_state;
    for (int i = 0; i < 500; ++i) {
      const auto record = sample_record(rng);
      std::string error;
      const auto decoded =
          mshard::decode_journal(mshard::encode_journal(record), &error);
      ASSERT_TRUE(decoded.has_value()) << "seed " << seed << ": " << error;
      expect_equal(record, *decoded);
      original_state.apply(record);
      decoded_state.apply(*decoded);
    }
    expect_equal_state(original_state, decoded_state);
  }
}

TEST(Journal, ResolvedRetiresItsTokenFromTheInFlightTable) {
  mshard::StandbyState state;
  state.apply(mshard::JournalRecord::flight(5, 2));
  state.apply(mshard::JournalRecord::flight(6, 3));
  ASSERT_EQ(state.in_flight.size(), 2u);
  EXPECT_EQ(state.max_token, 6u);

  state.apply(mshard::JournalRecord::resolved(
      2, 5, msvc::SolveResult::failure("wdeq", msvc::ErrorCode::ParseError,
                                       "x")));
  EXPECT_EQ(state.in_flight.count(5), 0u)
      << "a resolved request must never be replayed";
  EXPECT_EQ(state.in_flight.count(6), 1u);
  EXPECT_EQ(state.resolved.count(2), 1u);
}

TEST(Journal, AnyPrefixOfAStreamIsAConsistentState) {
  // Takeover can happen after any record; the folded prefix must satisfy
  // the invariant that resolved requests hold no in-flight token.
  std::mt19937_64 rng(7);
  std::vector<mshard::JournalRecord> stream;
  for (int i = 0; i < 200; ++i) {
    stream.push_back(sample_record(rng));
  }
  mshard::StandbyState state;
  for (const auto& record : stream) {
    state.apply(record);
    for (const auto& [token, index] : state.in_flight) {
      EXPECT_LE(token, state.max_token);
    }
    if (record.type == mshard::JournalRecord::Type::Resolved) {
      EXPECT_EQ(state.in_flight.count(record.token), 0u);
    }
  }
  EXPECT_EQ(state.records, stream.size());
}

TEST(Journal, TruncationsNeverCrashAndRejectTyped) {
  std::mt19937_64 rng(99);
  for (int i = 0; i < 50; ++i) {
    const std::string payload = mshard::encode_journal(sample_record(rng));
    // Every proper prefix: decode must return a value or a typed reason —
    // some truncations of numeric tails still parse as valid shorter
    // records (e.g. "jheartbeat 12" -> "jheartbeat 1"), which is fine;
    // crashing or rejecting reasonless is not.
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      std::string error;
      const auto decoded =
          mshard::decode_journal(payload.substr(0, cut), &error);
      if (!decoded) {
        EXPECT_FALSE(error.empty()) << "rejects must carry a reason";
      }
    }
  }
}

TEST(Journal, GarbageRejectsTypedNeverCrashes) {
  const char* hostile[] = {
      "",
      "jmember",
      "jmember 1",
      "jmember 1 2",           // alive must be 0/1
      "jmember -1 1",          // no signs
      "jmember 4294967296 1",  // worker slot overflows u32
      "jmember 1 1 extra",
      "jmember 1 1\n",         // trailing newline is not grammar
      "jprime",
      "jprime lonely",                    // owners required
      "jprime name 1 notanumber",
      "jprime name 99999999999999999999", // owner overflows
      "jflight",
      "jflight 0 5",                      // token 0 opts out of idempotency
      "jflight 1",
      "jflight 1 2 3",
      "jflight 99999999999999999999 1",   // u64 overflow
      "jresolved",
      "jresolved 3",                      // no embedded result
      "jresolved 3\n",
      "jresolved 3\nnot a result frame",
      "jresolved 3\nresult id=0",         // embedded result unparseable
      "jresolved notanumber\nresult",
      "jheartbeat",
      "jheartbeat x",
      "jheartbeat 1 2",
      "jdone extra",
      "jdone\ntrailer",
      "unknown-tag 1 2",
      "result id=0 token=0",              // a wire result is not a journal
      "\n\n\n",
      "jmember \xff\xfe 1",
  };
  for (const char* payload : hostile) {
    std::string error;
    const auto decoded = mshard::decode_journal(payload, &error);
    EXPECT_FALSE(decoded.has_value()) << "accepted: '" << payload << "'";
    EXPECT_FALSE(error.empty());
  }
}

TEST(Journal, RandomByteGarbageNeverCrashes) {
  std::mt19937_64 rng(123);
  for (int i = 0; i < 2000; ++i) {
    std::string payload;
    const std::size_t n = rng() % 64;
    for (std::size_t j = 0; j < n; ++j) {
      payload.push_back(static_cast<char>(rng() % 256));
    }
    std::string error;
    const auto decoded = mshard::decode_journal(payload, &error);
    if (!decoded) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(Journal, ResolvedResultSurvivesReplicationBitExactly) {
  // The bit-exact contract end to end: encode a result with awkward doubles
  // through the journal and back; the wire fingerprint must not move.
  msvc::SolveOutput output;
  output.objective = 0.1 + 0.2;  // 0.30000000000000004: decimal would lie
  output.makespan = 1e-300;
  output.completions = {3.141592653589793, 2.220446049250313e-16};
  const auto original =
      msvc::SolveResult::success("water-fill-smith", std::move(output));
  const auto decoded = mshard::decode_journal(
      mshard::encode_journal(mshard::JournalRecord::resolved(0, 1, original)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(fingerprint(original), fingerprint(decoded->result));
  EXPECT_DOUBLE_EQ(decoded->result.objective(), 0.1 + 0.2);
}
