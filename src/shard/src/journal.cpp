#include "malsched/shard/journal.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "malsched/shard/wire.hpp"

namespace malsched::shard {

namespace {

/// Strict u64 token parse: the whole token must be digits, no sign, no
/// trailing junk.  strtoull's silent negative-wraparound and partial
/// parses are exactly the lenience a fail-closed codec must not have.
bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() ||
      !std::all_of(text.begin(), text.end(),
                   [](unsigned char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

std::optional<JournalRecord> reject(std::string* error, const char* reason) {
  if (error != nullptr) {
    *error = reason;
  }
  return std::nullopt;
}

}  // namespace

JournalRecord JournalRecord::member(std::uint32_t worker, bool alive) {
  JournalRecord record;
  record.type = Type::Member;
  record.worker = worker;
  record.alive = alive;
  return record;
}

JournalRecord JournalRecord::prime(std::string name,
                                   std::vector<std::uint32_t> owners) {
  JournalRecord record;
  record.type = Type::Prime;
  record.name = std::move(name);
  record.owners = std::move(owners);
  return record;
}

JournalRecord JournalRecord::flight(std::uint64_t token,
                                    std::uint64_t request_index) {
  JournalRecord record;
  record.type = Type::Flight;
  record.token = token;
  record.request_index = request_index;
  return record;
}

JournalRecord JournalRecord::resolved(std::uint64_t request_index,
                                      std::uint64_t token,
                                      service::SolveResult result) {
  JournalRecord record;
  record.type = Type::Resolved;
  record.request_index = request_index;
  record.token = token;
  record.result = std::move(result);
  return record;
}

JournalRecord JournalRecord::heartbeat(std::uint64_t seq) {
  JournalRecord record;
  record.type = Type::Heartbeat;
  record.seq = seq;
  return record;
}

JournalRecord JournalRecord::done() {
  JournalRecord record;
  record.type = Type::Done;
  return record;
}

std::string encode_journal(const JournalRecord& record) {
  std::ostringstream out;
  switch (record.type) {
    case JournalRecord::Type::Member:
      out << "jmember " << record.worker << ' ' << (record.alive ? 1 : 0);
      break;
    case JournalRecord::Type::Prime:
      out << "jprime " << record.name;
      for (const std::uint32_t owner : record.owners) {
        out << ' ' << owner;
      }
      break;
    case JournalRecord::Type::Flight:
      out << "jflight " << record.token << ' ' << record.request_index;
      break;
    case JournalRecord::Type::Resolved:
      // The embedded payload is the wire's own binary `result` message,
      // verbatim: replication preserves results bit-exactly because the
      // worker wire already had to.
      out << "jresolved " << record.request_index << '\n'
          << wire::encode_result(0, record.token, record.result);
      break;
    case JournalRecord::Type::Heartbeat:
      out << "jheartbeat " << record.seq;
      break;
    case JournalRecord::Type::Done:
      out << "jdone";
      break;
  }
  return out.str();
}

std::optional<JournalRecord> decode_journal(const std::string& payload,
                                            std::string* error) {
  // First line carries the tag and the fixed fields; jresolved appends the
  // embedded result payload after the newline.
  const auto newline = payload.find('\n');
  const std::string head =
      newline == std::string::npos ? payload : payload.substr(0, newline);
  std::istringstream in(head);
  std::string tag;
  in >> tag;

  const auto read_u64 = [&in](std::uint64_t* out) {
    std::string text;
    in >> text;
    return parse_u64(text, out);
  };
  const auto at_end = [&in] {
    std::string rest;
    in >> rest;
    return rest.empty();
  };

  if (tag == "jmember") {
    std::uint64_t worker = 0;
    std::uint64_t alive = 0;
    if (!read_u64(&worker) || worker > 0xffffffffULL || !read_u64(&alive) ||
        alive > 1 || !at_end() || newline != std::string::npos) {
      return reject(error, "malformed jmember record");
    }
    return JournalRecord::member(static_cast<std::uint32_t>(worker),
                                 alive == 1);
  }
  if (tag == "jprime") {
    std::string name;
    in >> name;
    if (name.empty()) {
      return reject(error, "jprime without an instance name");
    }
    std::vector<std::uint32_t> owners;
    std::string text;
    while (in >> text) {
      std::uint64_t owner = 0;
      if (!parse_u64(text, &owner) || owner > 0xffffffffULL) {
        return reject(error, "jprime with a non-numeric owner");
      }
      owners.push_back(static_cast<std::uint32_t>(owner));
    }
    if (owners.empty() || newline != std::string::npos) {
      return reject(error, "jprime without owners");
    }
    return JournalRecord::prime(std::move(name), std::move(owners));
  }
  if (tag == "jflight") {
    std::uint64_t token = 0;
    std::uint64_t request_index = 0;
    if (!read_u64(&token) || token == 0 || !read_u64(&request_index) ||
        !at_end() || newline != std::string::npos) {
      return reject(error, "malformed jflight record");
    }
    return JournalRecord::flight(token, request_index);
  }
  if (tag == "jresolved") {
    std::uint64_t request_index = 0;
    if (!read_u64(&request_index) || !at_end()) {
      return reject(error, "malformed jresolved header");
    }
    if (newline == std::string::npos || newline + 1 >= payload.size()) {
      return reject(error, "jresolved without an embedded result");
    }
    const auto embedded = wire::decode_result(payload.substr(newline + 1));
    if (!embedded) {
      return reject(error, "jresolved embeds an unparseable result");
    }
    return JournalRecord::resolved(request_index, embedded->token,
                                   embedded->result);
  }
  if (tag == "jheartbeat") {
    std::uint64_t seq = 0;
    if (!read_u64(&seq) || !at_end() || newline != std::string::npos) {
      return reject(error, "malformed jheartbeat record");
    }
    return JournalRecord::heartbeat(seq);
  }
  if (tag == "jdone") {
    if (!at_end() || newline != std::string::npos) {
      return reject(error, "jdone with trailing fields");
    }
    return JournalRecord::done();
  }
  return reject(error, "unknown journal record tag");
}

void StandbyState::apply(const JournalRecord& record) {
  ++records;
  switch (record.type) {
    case JournalRecord::Type::Member:
      if (record.worker >= members.size()) {
        members.resize(record.worker + 1, 0);
      }
      members[record.worker] = record.alive ? 1 : 0;
      break;
    case JournalRecord::Type::Prime:
      primed[record.name] = record.owners;
      break;
    case JournalRecord::Type::Flight:
      in_flight[record.token] = record.request_index;
      max_token = std::max(max_token, record.token);
      break;
    case JournalRecord::Type::Resolved:
      resolved[record.request_index] = record.result;
      // The token completed; a takeover must emit the journaled result,
      // not replay the solve.
      in_flight.erase(record.token);
      max_token = std::max(max_token, record.token);
      break;
    case JournalRecord::Type::Heartbeat:
      ++heartbeats;
      break;
    case JournalRecord::Type::Done:
      done = true;
      break;
  }
}

}  // namespace malsched::shard
