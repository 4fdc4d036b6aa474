#include "malsched/shard/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

namespace msvc = malsched::service;
namespace wire = malsched::shard::wire;
using malsched::core::Instance;
using malsched::core::Task;

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
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

double from_bits(std::uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

// Overwrites bytes of a valid binary payload in place, so each hostile
// case below differs from a decodable message in exactly one field.
void patch_u8(std::string& payload, std::size_t at, std::uint8_t value) {
  payload[at] = static_cast<char>(value);
}

void patch_u32(std::string& payload, std::size_t at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    payload[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

void patch_f64(std::string& payload, std::size_t at, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    payload[at + i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
}

// Byte offsets inside the payloads the hostile-input tests corrupt (see
// the layouts in wire.hpp).  Instance named "x": tag, name length, name.
constexpr std::size_t kInstanceProcessors = 1 + 4 + 1;
constexpr std::size_t kInstanceCount = kInstanceProcessors + 8;
constexpr std::size_t kInstanceFirstTask = kInstanceCount + 4;
// Solve: tag, id, token, priority weight.
constexpr std::size_t kSolveHasDeadline = 1 + 8 + 8 + 8;
// Result from solver "wdeq": tag, id, token, solver string, latency.
constexpr std::size_t kResultStatus = 1 + 8 + 8 + 4 + 4 + 8;
constexpr std::size_t kResultCacheHit = kResultStatus + 1 + 8 + 8;
constexpr std::size_t kResultCount = kResultCacheHit + 1;
constexpr std::size_t kResultErrorCode = kResultStatus + 1;

std::string valid_instance_payload() {
  return wire::encode_instance(
      "x", Instance(4.0, {{1.0, 1.0, 1.0}, {2.0, 0.5, 3.0}}));
}

std::string valid_ok_result_payload() {
  msvc::SolveOutput output;
  output.objective = 1.5;
  output.makespan = 2.0;
  output.completions = {1.0, 2.0};
  return wire::encode_result(1, 2, msvc::SolveResult::success("wdeq", output));
}

/// The doubles that break everything except raw-bit transport: NaNs with
/// distinct payloads (quiet and signaling patterns), both infinities,
/// negative zero, and subnormals down to the very smallest.
const std::vector<double> hostile_doubles() {
  return {
      from_bits(0x7FF8DEADBEEFCAFEull),  // quiet NaN, distinctive payload
      from_bits(0xFFF8000000000001ull),  // negative quiet NaN
      from_bits(0x7FF0000000000001ull),  // signaling-NaN bit pattern
      from_bits(0x7FF0000000000000ull),  // +inf
      from_bits(0xFFF0000000000000ull),  // -inf
      from_bits(0x8000000000000000ull),  // -0.0
      from_bits(0x0000000000000001ull),  // smallest subnormal
      from_bits(0x000FFFFFFFFFFFFFull),  // largest subnormal
      2.2250738585072009e-308,           // subnormal/normal boundary
  };
}

}  // namespace

TEST(Wire, FrameRoundTripIncludingEmptyAndBinary) {
  SocketPair channel;
  const std::vector<std::string> payloads = {
      "", "x", "solve 1 0x1p+0 - wdeq small",
      std::string("\x00\x01\xff binary\n\n", 10), std::string(70000, 'a')};
  for (const auto& sent : payloads) {
    ASSERT_TRUE(wire::write_frame(channel.fds[0], sent));
  }
  for (const auto& sent : payloads) {
    std::string received;
    ASSERT_TRUE(wire::read_frame(channel.fds[1], &received));
    EXPECT_EQ(received, sent);
  }
}

TEST(Wire, ReadFrameFailsOnEofAndOnCorruptLengthPrefix) {
  {
    SocketPair channel;
    ::close(channel.fds[0]);
    channel.fds[0] = -1;
    std::string payload;
    EXPECT_FALSE(wire::read_frame(channel.fds[1], &payload));
  }
  {
    // A corrupted length prefix (4 GiB) must fail the read, not allocate.
    SocketPair channel;
    const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    ASSERT_EQ(::send(channel.fds[0], huge, 4, 0), 4);
    std::string payload;
    EXPECT_FALSE(wire::read_frame(channel.fds[1], &payload));
  }
}

TEST(Wire, WriteFrameReportsDeadPeerInsteadOfSigpipe) {
  SocketPair channel;
  ::close(channel.fds[1]);
  channel.fds[1] = -1;
  // Without MSG_NOSIGNAL this would raise SIGPIPE and kill the test.
  EXPECT_FALSE(wire::write_frame(channel.fds[0], std::string(1 << 16, 'x')));
}

TEST(Wire, InstanceRoundTripIsBitExact) {
  // Values chosen to break any decimal intermediary: non-terminating binary
  // fractions, denormal-adjacent magnitudes, and ulp-separated neighbours.
  const std::vector<Task> tasks = {
      {1.0 / 3.0, 2.0, 0.1},
      {1e-300, 0.7, 3.0000000000000004},
      {123456789.123456789, 3.141592653589793, 2.2250738585072014e-308},
      {0.0, 1e308, 0.0}};
  const Instance instance(6.02214076e23, tasks);
  const auto message =
      wire::decode_instance(wire::encode_instance("tricky", instance));
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->name, "tricky");
  ASSERT_TRUE(message->instance.has_value());
  const Instance& decoded = *message->instance;
  ASSERT_EQ(decoded.size(), tasks.size());
  EXPECT_TRUE(bits_equal(decoded.processors(), instance.processors()));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_TRUE(bits_equal(decoded.task(i).volume, tasks[i].volume));
    EXPECT_TRUE(bits_equal(decoded.task(i).width, tasks[i].width));
    EXPECT_TRUE(bits_equal(decoded.task(i).weight, tasks[i].weight));
  }
}

TEST(Wire, InstanceDecodeRejectsGarbage) {
  const std::string valid = valid_instance_payload();
  ASSERT_TRUE(wire::decode_instance(valid).has_value());

  // Another message's tag, and a task list cut short mid-task.
  wire::SolveMessage solve;
  solve.solver = "wdeq";
  solve.instance_name = "x";
  EXPECT_FALSE(wire::decode_instance(wire::encode_solve(solve)).has_value());
  EXPECT_FALSE(
      wire::decode_instance(valid.substr(0, valid.size() - 4)).has_value());

  // One out-of-range field each: P <= 0, negative volume, zero width,
  // negative weight, and NaN in every field — the instance preconditions,
  // checked at the wire instead of aborting in the Instance constructor.
  const double nan = from_bits(0x7FF8000000000000ull);
  for (const double processors : {0.0, -4.0, nan}) {
    std::string payload = valid;
    patch_f64(payload, kInstanceProcessors, processors);
    EXPECT_FALSE(wire::decode_instance(payload).has_value()) << processors;
  }
  const struct {
    std::size_t field;  ///< offset within the first task
    double value;
  } bad_tasks[] = {{0, -1.0}, {8, 0.0}, {16, -1.0},  // volume, width, weight
                   {0, nan},  {8, nan}, {16, nan}};
  for (const auto& bad : bad_tasks) {
    std::string payload = valid;
    patch_f64(payload, kInstanceFirstTask + bad.field, bad.value);
    EXPECT_FALSE(wire::decode_instance(payload).has_value())
        << "field +" << bad.field << " = " << bad.value;
  }
}

TEST(Wire, SolveRoundTripWithAndWithoutDeadline) {
  wire::SolveMessage message;
  message.id = 0xFFFFFFFFFFFFFFFFull;
  message.token = 0xDEADBEEFCAFEF00Dull;
  message.priority_weight = 1.0 / 7.0;
  message.deadline_seconds = 0.25;
  message.solver = "order-lp-smith";
  message.instance_name = "big-42";
  const auto decoded = wire::decode_solve(wire::encode_solve(message));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, message.id);
  EXPECT_EQ(decoded->token, message.token);
  EXPECT_TRUE(bits_equal(decoded->priority_weight, message.priority_weight));
  ASSERT_TRUE(decoded->deadline_seconds.has_value());
  EXPECT_TRUE(bits_equal(*decoded->deadline_seconds, 0.25));
  EXPECT_EQ(decoded->solver, message.solver);
  EXPECT_EQ(decoded->instance_name, message.instance_name);

  message.deadline_seconds.reset();
  const auto no_deadline = wire::decode_solve(wire::encode_solve(message));
  ASSERT_TRUE(no_deadline.has_value());
  EXPECT_FALSE(no_deadline->deadline_seconds.has_value());
}

TEST(Wire, OkResultRoundTripIsBitExact) {
  msvc::SolveOutput output;
  output.objective = 1.0 / 3.0;
  output.makespan = 2.0000000000000004;
  output.completions = {0.1, 0.2, 1e-17, 123.456};
  msvc::SolveResult result = msvc::SolveResult::success("wdeq", output);
  result.cache_hit = true;
  result.latency_seconds = 3.25e-4;

  const auto decoded =
      wire::decode_result(wire::encode_result(77, 4242, result));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 77u);
  EXPECT_EQ(decoded->token, 4242u);
  ASSERT_TRUE(decoded->result.ok());
  EXPECT_EQ(decoded->result.solver, "wdeq");
  EXPECT_TRUE(decoded->result.cache_hit);
  EXPECT_TRUE(bits_equal(decoded->result.latency_seconds, 3.25e-4));
  EXPECT_TRUE(bits_equal(decoded->result.objective(), output.objective));
  EXPECT_TRUE(bits_equal(decoded->result.makespan(), output.makespan));
  ASSERT_EQ(decoded->result.completions().size(), output.completions.size());
  for (std::size_t i = 0; i < output.completions.size(); ++i) {
    EXPECT_TRUE(bits_equal(decoded->result.completions()[i],
                           output.completions[i]));
  }
}

TEST(Wire, EveryErrorCodeRoundTripsWithHostileMessages) {
  // The cross-process contract of the typed error model: Cancelled,
  // DeadlineExceeded and friends must mean the same thing on both sides of
  // the pipe, message text included.
  const std::vector<std::string> messages = {
      "plain detail",
      "quotes \"inside\" and trailing backslash \\",
      "newline\nand\rcarriage",
      "",
      "spaces   and = signs a=b"};
  std::size_t message_index = 0;
  for (const msvc::ErrorCode code : msvc::kAllErrorCodes) {
    const std::string& detail = messages[message_index++ % messages.size()];
    const msvc::SolveResult sent =
        msvc::SolveResult::failure("optimal", code, detail);
    const auto decoded =
        wire::decode_result(wire::encode_result(9, 1, sent));
    ASSERT_TRUE(decoded.has_value())
        << "code " << msvc::error_code_name(code);
    ASSERT_FALSE(decoded->result.ok());
    EXPECT_EQ(decoded->result.error().code, code);
    EXPECT_EQ(decoded->result.error().detail, detail)
        << "code " << msvc::error_code_name(code);
    EXPECT_EQ(decoded->result.solver, "optimal");
  }
}

TEST(Wire, QuotesInSolverNamesDoNotDesynchronizeTheHeader) {
  // Regression: solver names are arbitrary whitespace-free tokens, quotes
  // included (`solve a"b x` is a legal batch line).  The solver field is
  // length-prefixed on the wire, so such a name cannot swallow the fields
  // after it.
  const msvc::SolveResult sent = msvc::SolveResult::failure(
      "a\"b", msvc::ErrorCode::UnknownSolver, "unknown solver 'a\"b'");
  const auto decoded = wire::decode_result(wire::encode_result(4, 1, sent));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_FALSE(decoded->result.ok());
  EXPECT_EQ(decoded->result.solver, "a\"b");
  EXPECT_EQ(decoded->result.error().code, msvc::ErrorCode::UnknownSolver);
  EXPECT_EQ(decoded->result.error().detail, "unknown solver 'a\"b'");
}

TEST(Wire, FieldLookupIsNotShadowedByKeysInsideQuotedMessages) {
  // Regression: solver exception text becomes the error detail verbatim; a
  // detail that spells other fields (" latency=", "status=ok", "code=")
  // must decode as text, never as the fields it names.
  const msvc::SolveResult sent = msvc::SolveResult::failure(
      "custom", msvc::ErrorCode::SolverFailure,
      "bad latency=0.5 in config, also status=ok and code=cancelled");
  const auto decoded = wire::decode_result(wire::encode_result(3, 1, sent));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_FALSE(decoded->result.ok());
  EXPECT_EQ(decoded->result.error().code, msvc::ErrorCode::SolverFailure);
  EXPECT_EQ(decoded->result.error().detail,
            "bad latency=0.5 in config, also status=ok and code=cancelled");
  EXPECT_TRUE(bits_equal(decoded->result.latency_seconds, 0.0));
}

TEST(Wire, InstanceDecodeRejectsHugeTaskCountHeader) {
  // Regression: a corrupted count field must be rejected before reserve()
  // turns it into a ~100 GB allocation attempt.  One task more than the
  // remaining bytes hold is rejected the same way.
  std::string payload = valid_instance_payload();
  patch_u32(payload, kInstanceCount, 0xFFFFFFFFu);
  EXPECT_FALSE(wire::decode_instance(payload).has_value());
  patch_u32(payload, kInstanceCount, 3);  // the payload holds 2 tasks
  EXPECT_FALSE(wire::decode_instance(payload).has_value());
}

TEST(Wire, ResultDecodeRejectsUnknownStatusAndCode) {
  const std::string ok = valid_ok_result_payload();
  ASSERT_TRUE(wire::decode_result(ok).has_value());
  std::string payload = ok;
  patch_u8(payload, kResultStatus, 2);  // neither error (0) nor ok (1)
  EXPECT_FALSE(wire::decode_result(payload).has_value());
  payload = ok;
  patch_u8(payload, kResultCacheHit, 2);  // a flag byte is 0 or 1
  EXPECT_FALSE(wire::decode_result(payload).has_value());

  const std::string error = wire::encode_result(
      1, 2,
      msvc::SolveResult::failure("wdeq", msvc::ErrorCode::Cancelled, "m"));
  ASSERT_TRUE(wire::decode_result(error).has_value());
  payload = error;
  patch_u8(payload, kResultErrorCode,
           static_cast<std::uint8_t>(std::size(msvc::kAllErrorCodes)));
  EXPECT_FALSE(wire::decode_result(payload).has_value());
  payload = error;
  patch_u8(payload, kResultErrorCode, 0xFF);
  EXPECT_FALSE(wire::decode_result(payload).has_value());
}

TEST(Wire, StatsRoundTrip) {
  msvc::CacheStats stats;
  stats.hits = 123456789012ull;
  stats.misses = 42;
  stats.evictions = 7;
  stats.expired = 3;
  stats.admitted = 555;
  stats.rejected = 66;
  stats.entries = 1000;
  stats.weight = 65536;
  stats.capacity = 1 << 20;
  const auto decoded = wire::decode_stats(wire::encode_stats(stats));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->hits, stats.hits);
  EXPECT_EQ(decoded->misses, stats.misses);
  EXPECT_EQ(decoded->evictions, stats.evictions);
  EXPECT_EQ(decoded->expired, stats.expired);
  EXPECT_EQ(decoded->admitted, stats.admitted);
  EXPECT_EQ(decoded->rejected, stats.rejected);
  EXPECT_EQ(decoded->entries, stats.entries);
  EXPECT_EQ(decoded->weight, stats.weight);
  EXPECT_EQ(decoded->capacity, stats.capacity);
}

TEST(Wire, MessageTypeExtraction) {
  EXPECT_EQ(wire::message_type("ping 7"), "ping");
  EXPECT_EQ(wire::message_type("stats hits=1 misses=2"), "stats");
  EXPECT_EQ(wire::message_type("drained 12"), "drained");
  EXPECT_EQ(wire::message_type("drain"), "drain");
  EXPECT_EQ(wire::message_type("hello malsched-wire 4 router"), "hello");
  EXPECT_EQ(wire::message_type(""), "");
}

TEST(Wire, HelloRoundTripCarriesVersionAndRole) {
  wire::HelloMessage hello;
  hello.role = "router";
  const auto decoded = wire::decode_hello(wire::encode_hello(hello));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, wire::kWireProtocolVersion);
  EXPECT_EQ(decoded->role, "router");

  wire::HelloMessage peer;
  EXPECT_FALSE(
      wire::validate_hello(wire::encode_hello(hello), &peer).has_value());
  EXPECT_EQ(peer.role, "router");
  EXPECT_EQ(peer.version, wire::kWireProtocolVersion);
}

TEST(Wire, ValidateHelloNamesBothVersionsOnAMismatch) {
  // Version 1 predates hello itself; version 3 is the last protocol whose
  // data frames were hexfloat text, so a v3 peer must be turned away here,
  // before it sends a data frame this build no longer parses.
  EXPECT_EQ(wire::kWireProtocolVersion, 4u);
  for (const std::uint32_t old_version : {1u, 3u}) {
    wire::HelloMessage old_peer;
    old_peer.version = old_version;
    old_peer.role = "worker";
    const auto reason = wire::validate_hello(wire::encode_hello(old_peer));
    ASSERT_TRUE(reason.has_value());
    EXPECT_NE(reason->find("version " + std::to_string(old_version)),
              std::string::npos)
        << *reason;
    EXPECT_NE(reason->find("speaks " +
                           std::to_string(wire::kWireProtocolVersion)),
              std::string::npos)
        << *reason;
  }
}

TEST(Wire, ValidateHelloQuotesASanitizedPreviewOfGarbage) {
  // The greeting is attacker-controlled: whatever dialed the port.  The
  // rejection must carry a bounded, printable excerpt — never raw bytes,
  // never more than the preview window.
  const auto http = wire::validate_hello("HTTP/1.1 400 Bad Request");
  ASSERT_TRUE(http.has_value());
  EXPECT_NE(http->find("HTTP/1.1 400"), std::string::npos) << *http;

  const std::string hostile =
      std::string("\1\2", 2) + "evil\r\n\x7f" + std::string(500, 'A');
  const auto reason = wire::validate_hello(hostile);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("..evil"), std::string::npos)
      << "control bytes must be masked: " << *reason;
  EXPECT_LT(reason->size(), 200u) << "preview must be bounded";

  // Structurally plausible but wrong-magic greetings also fail closed.
  EXPECT_FALSE(wire::decode_hello("hello other-protocol 2 router"));
  EXPECT_FALSE(wire::decode_hello("hello malsched-wire nan router"));
  EXPECT_FALSE(wire::decode_hello("hello malsched-wire 99999999999 x"));
  EXPECT_FALSE(wire::decode_hello(""));
}

TEST(Wire, HandshakeSucceedsBetweenTwoHonestPeers) {
  SocketPair channel;
  bool worker_ok = false;
  std::thread worker_side([&] {
    worker_ok =
        wire::handshake(channel.fds[1], "worker", std::chrono::seconds(10));
  });
  std::string reason;
  EXPECT_TRUE(wire::handshake(channel.fds[0], "router",
                              std::chrono::seconds(10), &reason))
      << reason;
  worker_side.join();
  EXPECT_TRUE(worker_ok);
}

TEST(Wire, HandshakeRejectsAHostileGreetingWithAReason) {
  // The peer "greets" with an HTTP response — the port-scanner scenario.
  // Single-threaded on purpose: the garbage frame is buffered before the
  // handshake runs, proving the exchange cannot deadlock on write order.
  SocketPair channel;
  ASSERT_TRUE(wire::write_frame(channel.fds[1], "HTTP/1.1 200 OK"));
  std::string reason;
  EXPECT_FALSE(wire::handshake(channel.fds[0], "router",
                               std::chrono::seconds(5), &reason));
  EXPECT_NE(reason.find("HTTP/1.1 200 OK"), std::string::npos) << reason;
}

TEST(Wire, HandshakeTimesOutTypedOnASilentPeer) {
  SocketPair channel;
  const auto start = std::chrono::steady_clock::now();
  std::string reason;
  EXPECT_FALSE(wire::handshake(channel.fds[0], "router",
                               std::chrono::milliseconds(200), &reason));
  EXPECT_NE(reason.find("timeout"), std::string::npos) << reason;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 5.0);
}

// --- binary data frames: the one encoding on every transport ---
//
// The contract under test: data messages carry doubles as their raw
// IEEE-754 bits, so payload-carrying NaNs, infinities, negative zero and
// subnormals all round-trip bit-identically, and every malformed payload
// decodes to nullopt.

TEST(WireBinary, InstanceRoundTripPreservesEveryHostileBitPattern) {
  // Instance preconditions (volume >= 0, width > 0, weight >= 0) exclude
  // NaN, so this exercises every hostile double an instance can legally
  // hold: negative zero, infinities where signs allow, and subnormals at
  // both ends.  NaN transport is covered by the solve/result tests, whose
  // fields are not range-checked.
  const double neg_zero = from_bits(0x8000000000000000ull);
  const double pos_inf = from_bits(0x7FF0000000000000ull);
  const double min_sub = from_bits(0x0000000000000001ull);
  const double max_sub = from_bits(0x000FFFFFFFFFFFFFull);
  const std::vector<Task> tasks = {
      {neg_zero, min_sub, neg_zero},
      {min_sub, pos_inf, max_sub},
      {pos_inf, max_sub, pos_inf},
      {max_sub, 2.2250738585072009e-308, min_sub}};
  const Instance instance(min_sub, tasks);
  const auto message = wire::decode_instance(
      wire::encode_instance("hostile", instance, wire::Dialect::Binary));
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->name, "hostile");
  ASSERT_TRUE(message->instance.has_value());
  ASSERT_EQ(message->instance->size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_TRUE(bits_equal(message->instance->task(i).volume, tasks[i].volume))
        << "task " << i;
    EXPECT_TRUE(bits_equal(message->instance->task(i).width, tasks[i].width))
        << "task " << i;
    EXPECT_TRUE(bits_equal(message->instance->task(i).weight, tasks[i].weight))
        << "task " << i;
  }
}

TEST(WireBinary, SolveRoundTripPreservesHostileDoubles) {
  wire::SolveMessage message;
  message.id = 0xFFFFFFFFFFFFFFFFull;
  message.token = 1;
  message.priority_weight = from_bits(0x8000000000000000ull);  // -0.0
  message.deadline_seconds = from_bits(0x0000000000000001ull);  // min subnormal
  message.solver = "wdeq";
  message.instance_name = "n";
  auto decoded = wire::decode_solve(
      wire::encode_solve(message, wire::Dialect::Binary));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, message.id);
  EXPECT_TRUE(bits_equal(decoded->priority_weight, message.priority_weight));
  ASSERT_TRUE(decoded->deadline_seconds.has_value());
  EXPECT_TRUE(bits_equal(*decoded->deadline_seconds,
                         *message.deadline_seconds));

  message.deadline_seconds.reset();
  decoded = wire::decode_solve(
      wire::encode_solve(message, wire::Dialect::Binary));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->deadline_seconds.has_value());
}

TEST(WireBinary, OkResultRoundTripPreservesHostileCompletions) {
  msvc::SolveOutput output;
  output.objective = from_bits(0x8000000000000000ull);  // -0.0
  output.makespan = from_bits(0x7FF0000000000000ull);   // +inf
  output.completions = hostile_doubles();
  msvc::SolveResult result = msvc::SolveResult::success("wdeq", output);
  result.latency_seconds = from_bits(0x000FFFFFFFFFFFFFull);

  const auto decoded = wire::decode_result(
      wire::encode_result(7, 9, result, wire::Dialect::Binary));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->result.ok());
  EXPECT_TRUE(bits_equal(decoded->result.objective(), output.objective));
  EXPECT_TRUE(bits_equal(decoded->result.makespan(), output.makespan));
  EXPECT_TRUE(
      bits_equal(decoded->result.latency_seconds, result.latency_seconds));
  ASSERT_EQ(decoded->result.completions().size(), output.completions.size());
  for (std::size_t i = 0; i < output.completions.size(); ++i) {
    EXPECT_TRUE(
        bits_equal(decoded->result.completions()[i], output.completions[i]))
        << "completion " << i;
  }
}

TEST(WireBinary, EveryErrorCodeRoundTripsWithBinaryHostileDetails) {
  // Length-prefixed strings need no escaping, so details cross verbatim
  // whatever bytes they hold — embedded NULs included.
  const std::vector<std::string> details = {
      std::string("nul \0 inside", 13),
      "quotes \"and\" backslash \\",
      "line\nbreaks\rinside",
      std::string(4096, '\xff'),
      ""};
  std::size_t detail_index = 0;
  for (const msvc::ErrorCode code : msvc::kAllErrorCodes) {
    const std::string& detail = details[detail_index++ % details.size()];
    const msvc::SolveResult sent =
        msvc::SolveResult::failure("optimal", code, detail);
    const auto decoded = wire::decode_result(
        wire::encode_result(9, 1, sent, wire::Dialect::Binary));
    ASSERT_TRUE(decoded.has_value()) << msvc::error_code_name(code);
    ASSERT_FALSE(decoded->result.ok());
    EXPECT_EQ(decoded->result.error().code, code)
        << msvc::error_code_name(code);
    EXPECT_EQ(decoded->result.error().detail, detail)
        << msvc::error_code_name(code);
  }
}

TEST(WireBinary, MessageTypeNamesBinaryTagsLikeText) {
  const Instance instance(2.0, {{1.0, 1.0, 1.0}});
  EXPECT_EQ(wire::message_type(
                wire::encode_instance("x", instance, wire::Dialect::Binary)),
            "instance");
  wire::SolveMessage solve;
  solve.solver = "wdeq";
  solve.instance_name = "x";
  EXPECT_EQ(
      wire::message_type(wire::encode_solve(solve, wire::Dialect::Binary)),
      "solve");
  const msvc::SolveResult result = msvc::SolveResult::failure(
      "wdeq", msvc::ErrorCode::Cancelled, "shutting down");
  EXPECT_EQ(wire::message_type(
                wire::encode_result(1, 1, result, wire::Dialect::Binary)),
            "result");
}

TEST(WireBinary, DecodeRejectsTruncationAtEveryPrefixAndTrailingGarbage) {
  // Every strict prefix of a valid binary message is corruption (all
  // fields are mandatory and length-prefixed), and so is every suffix
  // beyond the last field — the reader must consume the payload exactly.
  const Instance instance(4.0, {{1.0 / 3.0, 1.0, 2.0}, {2.0, 0.5, 1.0}});
  const std::string inst_payload =
      wire::encode_instance("t", instance, wire::Dialect::Binary);
  wire::SolveMessage solve;
  solve.id = 3;
  solve.token = 4;
  solve.deadline_seconds = 0.5;
  solve.solver = "wdeq";
  solve.instance_name = "t";
  const std::string solve_payload =
      wire::encode_solve(solve, wire::Dialect::Binary);
  msvc::SolveOutput output;
  output.completions = {0.25, 0.5};
  const std::string result_payload = wire::encode_result(
      5, 6, msvc::SolveResult::success("wdeq", output), wire::Dialect::Binary);

  for (std::size_t cut = 1; cut < inst_payload.size(); ++cut) {
    EXPECT_FALSE(wire::decode_instance(inst_payload.substr(0, cut)))
        << "instance prefix " << cut;
  }
  for (std::size_t cut = 1; cut < solve_payload.size(); ++cut) {
    EXPECT_FALSE(wire::decode_solve(solve_payload.substr(0, cut)))
        << "solve prefix " << cut;
  }
  for (std::size_t cut = 1; cut < result_payload.size(); ++cut) {
    EXPECT_FALSE(wire::decode_result(result_payload.substr(0, cut)))
        << "result prefix " << cut;
  }
  EXPECT_FALSE(wire::decode_instance(inst_payload + std::string(1, '\0')));
  EXPECT_FALSE(wire::decode_solve(solve_payload + "junk"));
  EXPECT_FALSE(wire::decode_result(result_payload + std::string(1, '\x83')));
  // A tag byte with nothing behind it is truncation, not an empty message.
  EXPECT_FALSE(wire::decode_instance(std::string(1, '\x81')));
  EXPECT_FALSE(wire::decode_solve(std::string(1, '\x82')));
  EXPECT_FALSE(wire::decode_result(std::string(1, '\x83')));
}

TEST(WireBinary, SolveDecodeRejectsAnOutOfRangeDeadlineFlag) {
  wire::SolveMessage solve;
  solve.id = 1;
  solve.token = 2;
  solve.solver = "wdeq";
  solve.instance_name = "x";
  std::string payload = wire::encode_solve(solve);
  ASSERT_TRUE(wire::decode_solve(payload).has_value());
  patch_u8(payload, kSolveHasDeadline, 2);  // a flag byte is 0 or 1
  EXPECT_FALSE(wire::decode_solve(payload).has_value());
}

TEST(WireBinary, SolveDecodeRejectsNonFiniteDeadlines) {
  // The worker turns a deadline into a steady_clock duration; a NaN or an
  // infinite budget from a TCP peer must stop at the decoder instead.
  wire::SolveMessage solve;
  solve.id = 1;
  solve.token = 2;
  solve.deadline_seconds = 0.5;
  solve.solver = "wdeq";
  solve.instance_name = "x";
  std::string payload = wire::encode_solve(solve);
  ASSERT_TRUE(wire::decode_solve(payload).has_value());
  for (const std::uint64_t bits :
       {0x7FF8000000000000ull,    // quiet NaN
        0x7FF8000000000099ull,    // quiet NaN with a payload
        0xFFF8000000000001ull,    // negative quiet NaN
        0x7FF0000000000001ull,    // signaling-NaN bit pattern
        0x7FF0000000000000ull,    // +inf
        0xFFF0000000000000ull}) {  // -inf
    patch_f64(payload, kSolveHasDeadline + 1, from_bits(bits));
    EXPECT_FALSE(wire::decode_solve(payload).has_value())
        << std::hex << bits;
  }
}

TEST(WireBinary, ResultDecodeRejectsHugeCompletionCount) {
  // Same allocation guard as the instance task count: a completion count
  // the remaining bytes cannot hold is rejected before reserve().
  std::string payload = valid_ok_result_payload();
  patch_u32(payload, kResultCount, 0xFFFFFFFFu);
  EXPECT_FALSE(wire::decode_result(payload).has_value());
  patch_u32(payload, kResultCount, 3);  // the payload holds 2 completions
  EXPECT_FALSE(wire::decode_result(payload).has_value());
}

TEST(WireBinary, DecodersRejectVersion3TextPayloads) {
  // The hexfloat text forms of the data messages are gone; a payload in
  // that form is garbage to every decoder, never a partial message.
  EXPECT_FALSE(wire::decode_instance("instance x\n0x1p+2 1\n0x1p+0 0x1p+0 "
                                     "0x1p+0\n")
                   .has_value());
  EXPECT_FALSE(wire::decode_solve("solve 1 7 0x1p+0 - wdeq x").has_value());
  EXPECT_FALSE(wire::decode_result("result 1 token=7 solver=\"wdeq\" "
                                   "status=ok objective=0x1p+0 "
                                   "makespan=0x1p+0 cache_hit=0 "
                                   "latency=0x0p+0\n0x1p+0")
                   .has_value());
}
