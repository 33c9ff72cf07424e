// DNS record model: RR types/classes and the ResourceRecord structure used
// in messages. Records carry either a well-formed dotted owner name or a
// raw LabelSeq (the malicious tier — used by the fake server to smuggle
// oversized names past a spec-unaware parser).
#pragma once

#include <cstdint>
#include <string>

#include "src/dns/name.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::dns {

enum class Type : std::uint16_t {
  kA = 1,
  kNS = 2,
  kCNAME = 5,
  kSOA = 6,
  kPTR = 12,
  kMX = 15,
  kTXT = 16,
  kAAAA = 28,
  kAny = 255,
};

enum class Class : std::uint16_t {
  kIN = 1,
  kAny = 255,
};

std::string TypeName(Type type);

struct ResourceRecord {
  std::string name;     // dotted owner name (used when raw_name is empty)
  LabelSeq raw_name;    // raw labels override `name` on encode if non-empty
  Type type = Type::kA;
  Class klass = Class::kIN;
  std::uint32_t ttl = 300;
  util::Bytes rdata;

  [[nodiscard]] bool uses_raw_name() const noexcept { return !raw_name.empty(); }
  bool operator==(const ResourceRecord&) const = default;
};

/// A-record helpers: 4-byte IPv4 rdata.
ResourceRecord MakeA(std::string name, const std::string& dotted_quad,
                     std::uint32_t ttl = 300);
ResourceRecord MakeAAAA(std::string name, std::uint32_t ttl = 300);
ResourceRecord MakeTXT(std::string name, std::string_view text,
                       std::uint32_t ttl = 300);

/// Parses "a.b.c.d" into 4 rdata bytes.
util::Result<util::Bytes> ParseIPv4(const std::string& dotted_quad);
/// Renders 4 rdata bytes as "a.b.c.d".
util::Result<std::string> FormatIPv4(util::ByteSpan rdata);

}  // namespace connlab::dns
