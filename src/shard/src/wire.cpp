#include "malsched/shard/wire.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

namespace malsched::shard::wire {

namespace {

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

// key=value field of a space-separated control line (`stats hits=...`);
// empty when absent.  Control values are integers, never quoted.
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const auto at = line.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  const auto begin = at + needle.size();
  const auto end = line.find(' ', begin);
  return line.substr(begin, end == std::string::npos ? std::string::npos
                                                     : end - begin);
}

// --- data-message primitives ---
//
// Fixed-width little-endian integers; doubles travel as their raw IEEE-754
// bit pattern through a u64.  memcpy (not a reinterpret_cast) keeps both
// directions free of aliasing/alignment traps, and "the bits are the
// value" is what makes the encoding bit-identical by construction — NaN
// payloads, -0.0 and subnormals included, with no formatter in the loop.

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_f64(std::string& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::string& out, const std::string& text) {
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  out += text;
}

// Bounds-checked cursor over a binary payload.  Every get_* fails sticky
// (ok_ = false) on underrun, so decoders read the whole message and check
// once — a truncated or corrupted frame decodes to nullopt, never UB.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& payload) : payload_(payload) {}

  std::uint8_t get_u8() {
    if (!take(1)) {
      return 0;
    }
    return static_cast<std::uint8_t>(payload_[at_ - 1]);
  }

  std::uint32_t get_u32() {
    if (!take(4)) {
      return 0;
    }
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(payload_[at_ - 4 + i]))
               << (8 * i);
    }
    return value;
  }

  std::uint64_t get_u64() {
    if (!take(8)) {
      return 0;
    }
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(payload_[at_ - 8 + i]))
               << (8 * i);
    }
    return value;
  }

  double get_f64() {
    const std::uint64_t bits = get_u64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    return value;
  }

  std::string get_string() {
    const std::uint32_t length = get_u32();
    if (!take(length)) {
      return "";
    }
    return payload_.substr(at_ - length, length);
  }

  [[nodiscard]] std::size_t remaining() const { return payload_.size() - at_; }
  /// True iff no read ran past the end AND the payload was consumed
  /// exactly — trailing garbage is corruption, same as truncation.
  [[nodiscard]] bool done() const { return ok_ && at_ == payload_.size(); }

 private:
  bool take(std::size_t bytes) {
    if (!ok_ || payload_.size() - at_ < bytes) {
      ok_ = false;
      return false;
    }
    at_ += bytes;
    return true;
  }

  const std::string& payload_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string encode_hello(const HelloMessage& message) {
  return std::string("hello ") + kWireMagic + " " +
         std::to_string(message.version) + " " +
         (message.role.empty() ? "peer" : message.role);
}

std::optional<HelloMessage> decode_hello(const std::string& payload) {
  std::istringstream in(payload);
  std::string keyword, magic, version_text;
  HelloMessage message;
  if (!(in >> keyword >> magic >> version_text >> message.role) ||
      keyword != "hello" || magic != kWireMagic) {
    return std::nullopt;
  }
  std::uint64_t version = 0;
  if (!parse_u64(version_text, &version) || version > 0xFFFFFFFFull) {
    return std::nullopt;
  }
  message.version = static_cast<std::uint32_t>(version);
  return message;
}

std::optional<std::string> validate_hello(const std::string& payload,
                                          HelloMessage* peer) {
  const auto hello = decode_hello(payload);
  if (!hello) {
    // Quote a bounded prefix: the greeting is attacker-controlled bytes.
    std::string preview = payload.substr(0, 48);
    for (char& c : preview) {
      if (c < 0x20 || c > 0x7E) {
        c = '.';
      }
    }
    return "peer did not greet with '" + std::string(kWireMagic) +
           "' (got \"" + preview + "\")";
  }
  if (hello->version != kWireProtocolVersion) {
    return "peer speaks " + std::string(kWireMagic) + " version " +
           std::to_string(hello->version) + ", this build speaks " +
           std::to_string(kWireProtocolVersion);
  }
  if (peer != nullptr) {
    *peer = *hello;
  }
  return std::nullopt;
}

bool handshake(int fd, const std::string& role,
               std::chrono::milliseconds timeout, std::string* reason) {
  HelloMessage mine;
  mine.role = role;
  if (!write_frame(fd, encode_hello(mine))) {
    if (reason != nullptr) {
      *reason = "peer closed the connection before the handshake";
    }
    return false;
  }
  std::string greeting;
  FrameError frame_error = FrameError::None;
  if (!read_frame_deadline(fd, &greeting,
                           std::chrono::steady_clock::now() + timeout,
                           &frame_error)) {
    if (reason != nullptr) {
      *reason = std::string("no greeting from peer (") +
                frame_error_name(frame_error) + ")";
    }
    return false;
  }
  const auto mismatch = validate_hello(greeting);
  if (mismatch) {
    if (reason != nullptr) {
      *reason = *mismatch;
    }
    return false;
  }
  return true;
}

std::string message_type(const std::string& payload) {
  if (!payload.empty()) {
    switch (static_cast<unsigned char>(payload[0])) {
      case kBinaryInstanceTag:
        return "instance";
      case kBinarySolveTag:
        return "solve";
      case kBinaryResultTag:
        return "result";
      default:
        break;
    }
  }
  std::size_t begin = 0;
  while (begin < payload.size() && payload[begin] == ' ') {
    ++begin;
  }
  std::size_t end = begin;
  while (end < payload.size() && payload[end] != ' ' &&
         payload[end] != '\n') {
    ++end;
  }
  return payload.substr(begin, end - begin);
}

std::string encode_instance(const std::string& name,
                            const core::Instance& instance, Dialect) {
  std::string payload;
  payload.reserve(1 + 4 + name.size() + 8 + 4 + 24 * instance.size());
  put_u8(payload, kBinaryInstanceTag);
  put_string(payload, name);
  put_f64(payload, instance.processors());
  put_u32(payload, static_cast<std::uint32_t>(instance.size()));
  for (const core::Task& task : instance.tasks()) {
    put_f64(payload, task.volume);
    put_f64(payload, task.width);
    put_f64(payload, task.weight);
  }
  return payload;
}

std::optional<InstanceMessage> decode_instance(const std::string& payload) {
  BinaryReader in(payload);
  if (in.get_u8() != kBinaryInstanceTag) {
    return std::nullopt;
  }
  InstanceMessage message;
  message.name = in.get_string();
  const double processors = in.get_f64();
  const std::uint32_t count = in.get_u32();
  // Every task is exactly 24 bytes, so a count the remaining bytes cannot
  // hold is a corrupted header — rejected before reserve() turns it into a
  // giant allocation (the same class of fault kMaxFrameBytes guards
  // against at the frame layer).
  if (count > in.remaining() / 24) {
    return std::nullopt;
  }
  // The core::Instance preconditions, negated so a NaN fails them too: a
  // decoded payload must never reach the constructor's contract abort.
  if (!(processors > 0.0)) {
    return std::nullopt;
  }
  std::vector<core::Task> tasks;
  tasks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    core::Task task;
    task.volume = in.get_f64();
    task.width = in.get_f64();
    task.weight = in.get_f64();
    if (!(task.volume >= 0.0) || !(task.width > 0.0) ||
        !(task.weight >= 0.0)) {
      return std::nullopt;
    }
    tasks.push_back(task);
  }
  if (!in.done()) {
    return std::nullopt;
  }
  message.instance.emplace(processors, std::move(tasks));
  return message;
}

std::string encode_solve(const SolveMessage& message, Dialect) {
  std::string payload;
  payload.reserve(1 + 8 + 8 + 8 + 1 + 8 + 8 + message.solver.size() +
                  message.instance_name.size());
  put_u8(payload, kBinarySolveTag);
  put_u64(payload, message.id);
  put_u64(payload, message.token);
  put_f64(payload, message.priority_weight);
  put_u8(payload, message.deadline_seconds ? 1 : 0);
  if (message.deadline_seconds) {
    put_f64(payload, *message.deadline_seconds);
  }
  put_string(payload, message.solver);
  put_string(payload, message.instance_name);
  return payload;
}

std::optional<SolveMessage> decode_solve(const std::string& payload) {
  BinaryReader in(payload);
  if (in.get_u8() != kBinarySolveTag) {
    return std::nullopt;
  }
  SolveMessage message;
  message.id = in.get_u64();
  message.token = in.get_u64();
  message.priority_weight = in.get_f64();
  const std::uint8_t has_deadline = in.get_u8();
  if (has_deadline > 1) {
    return std::nullopt;
  }
  if (has_deadline == 1) {
    // A NaN or infinite budget would reach the worker's duration_cast.
    const double seconds = in.get_f64();
    if (!std::isfinite(seconds) || seconds < 0.0) {
      return std::nullopt;
    }
    message.deadline_seconds = seconds;
  }
  message.solver = in.get_string();
  message.instance_name = in.get_string();
  if (!in.done()) {
    return std::nullopt;
  }
  return message;
}

std::string encode_result(std::uint64_t id, std::uint64_t token,
                          const service::SolveResult& result, Dialect) {
  std::string payload;
  put_u8(payload, kBinaryResultTag);
  put_u64(payload, id);
  put_u64(payload, token);
  put_string(payload, result.solver);
  put_f64(payload, result.latency_seconds);
  if (result.ok()) {
    put_u8(payload, 1);
    put_f64(payload, result.objective());
    put_f64(payload, result.makespan());
    put_u8(payload, result.cache_hit ? 1 : 0);
    const auto& completions = result.completions();
    put_u32(payload, static_cast<std::uint32_t>(completions.size()));
    for (const double completion : completions) {
      put_f64(payload, completion);
    }
  } else {
    put_u8(payload, 0);
    put_u8(payload, static_cast<std::uint8_t>(result.error().code));
    put_string(payload, result.error().detail);
  }
  return payload;
}

std::optional<ResultMessage> decode_result(const std::string& payload) {
  BinaryReader in(payload);
  if (in.get_u8() != kBinaryResultTag) {
    return std::nullopt;
  }
  ResultMessage message;
  message.id = in.get_u64();
  message.token = in.get_u64();
  const std::string solver = in.get_string();
  const double latency = in.get_f64();
  const std::uint8_t status = in.get_u8();
  if (status == 1) {
    service::SolveOutput output;
    output.objective = in.get_f64();
    output.makespan = in.get_f64();
    const std::uint8_t cache_hit = in.get_u8();
    if (cache_hit > 1) {
      return std::nullopt;
    }
    const std::uint32_t count = in.get_u32();
    if (count > in.remaining() / 8) {  // corrupted-count allocation guard
      return std::nullopt;
    }
    output.completions.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      output.completions.push_back(in.get_f64());
    }
    message.result = service::SolveResult::success(solver, std::move(output));
    message.result.cache_hit = cache_hit == 1;
  } else if (status == 0) {
    // The code travels as a u8 and is validated against the enumeration:
    // an out-of-range byte is corruption.
    const std::uint8_t code = in.get_u8();
    if (code >= std::size(service::kAllErrorCodes)) {
      return std::nullopt;
    }
    const std::string detail = in.get_string();
    message.result = service::SolveResult::failure(
        solver, static_cast<service::ErrorCode>(code), detail);
  } else {
    return std::nullopt;
  }
  if (!in.done()) {
    return std::nullopt;
  }
  message.result.latency_seconds = latency;
  return message;
}

std::string encode_stats(const service::CacheStats& stats) {
  std::string payload = "stats";
  payload += " hits=" + std::to_string(stats.hits);
  payload += " misses=" + std::to_string(stats.misses);
  payload += " evictions=" + std::to_string(stats.evictions);
  payload += " expired=" + std::to_string(stats.expired);
  payload += " admitted=" + std::to_string(stats.admitted);
  payload += " rejected=" + std::to_string(stats.rejected);
  payload += " entries=" + std::to_string(stats.entries);
  payload += " weight=" + std::to_string(stats.weight);
  payload += " capacity=" + std::to_string(stats.capacity);
  return payload;
}

std::optional<service::CacheStats> decode_stats(const std::string& payload) {
  if (message_type(payload) != "stats") {
    return std::nullopt;
  }
  service::CacheStats stats;
  std::uint64_t entries = 0, weight = 0, capacity = 0;
  if (!parse_u64(field(payload, "hits"), &stats.hits) ||
      !parse_u64(field(payload, "misses"), &stats.misses) ||
      !parse_u64(field(payload, "evictions"), &stats.evictions) ||
      !parse_u64(field(payload, "expired"), &stats.expired) ||
      !parse_u64(field(payload, "admitted"), &stats.admitted) ||
      !parse_u64(field(payload, "rejected"), &stats.rejected) ||
      !parse_u64(field(payload, "entries"), &entries) ||
      !parse_u64(field(payload, "weight"), &weight) ||
      !parse_u64(field(payload, "capacity"), &capacity)) {
    return std::nullopt;
  }
  stats.entries = entries;
  stats.weight = weight;
  stats.capacity = capacity;
  return stats;
}

}  // namespace malsched::shard::wire
