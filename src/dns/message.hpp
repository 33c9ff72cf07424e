// Full DNS message codec: header, question, answer/authority/additional
// sections, encode to wire and decode from wire.
//
// Encoding supports the raw tier (records whose owner name is a LabelSeq),
// which is how the fake server emits responses that no spec-abiding
// resolver would ever produce. Decoding is strict — it is used by the
// benign client and upstream-server paths, and by tests asserting that
// crafted packets are indeed ill-formed by RFC standards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/dns/record.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::dns {

inline constexpr std::size_t kHeaderSize = 12;

enum class Opcode : std::uint8_t { kQuery = 0, kIQuery = 1, kStatus = 2 };
enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNXDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;
  bool tc = false;
  bool rd = true;
  bool ra = false;
  Rcode rcode = Rcode::kNoError;
  // Section counts are derived from the vectors on encode and reported
  // verbatim from the wire on decode.
  std::uint16_t qdcount = 0;
  std::uint16_t ancount = 0;
  std::uint16_t nscount = 0;
  std::uint16_t arcount = 0;

  bool operator==(const Header&) const = default;
};

struct Question {
  std::string name;
  Type type = Type::kA;
  Class klass = Class::kIN;

  bool operator==(const Question&) const = default;
};

struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  /// A standard recursive-desired query for one A/AAAA name.
  static Message Query(std::uint16_t id, std::string name, Type type = Type::kA);
  /// A response skeleton echoing `query`'s id and question.
  static Message ResponseFor(const Message& query);

  /// Decode(Encode(m)) == m for every message Decode accepts.
  bool operator==(const Message&) const = default;
};

/// Serialises `msg`; section counts are computed from the vectors.
util::Result<util::Bytes> Encode(const Message& msg);

/// Parses a wire message. Record owner names are decoded (compression
/// followed); rdata is kept opaque.
util::Result<Message> Decode(util::ByteSpan wire);

/// One-line rendering for logs: "id=0x1234 QUERY q=example.com/A".
std::string Summary(const Message& msg);

}  // namespace connlab::dns
