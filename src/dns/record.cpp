#include "src/dns/record.hpp"

#include <cstdio>

namespace connlab::dns {

std::string TypeName(Type type) {
  switch (type) {
    case Type::kA: return "A";
    case Type::kNS: return "NS";
    case Type::kCNAME: return "CNAME";
    case Type::kSOA: return "SOA";
    case Type::kPTR: return "PTR";
    case Type::kMX: return "MX";
    case Type::kTXT: return "TXT";
    case Type::kAAAA: return "AAAA";
    case Type::kAny: return "ANY";
  }
  return "TYPE" + std::to_string(static_cast<std::uint16_t>(type));
}

util::Result<util::Bytes> ParseIPv4(const std::string& dotted_quad) {
  util::Bytes out;
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  char extra = 0;
  const int matched = std::sscanf(dotted_quad.c_str(), "%u.%u.%u.%u%c",
                                  &a, &b, &c, &d, &extra);
  if (matched != 4 || a > 255 || b > 255 || c > 255 || d > 255) {
    return util::InvalidArgument("bad IPv4 literal: " + dotted_quad);
  }
  out = {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
         static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d)};
  return out;
}

util::Result<std::string> FormatIPv4(util::ByteSpan rdata) {
  if (rdata.size() != 4) return util::Malformed("A rdata is not 4 bytes");
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", rdata[0], rdata[1], rdata[2],
                rdata[3]);
  return std::string(buf);
}

ResourceRecord MakeA(std::string name, const std::string& dotted_quad,
                     std::uint32_t ttl) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = Type::kA;
  rr.ttl = ttl;
  auto addr = ParseIPv4(dotted_quad);
  rr.rdata = addr.ok() ? addr.value() : util::Bytes{0, 0, 0, 0};
  return rr;
}

ResourceRecord MakeAAAA(std::string name, std::uint32_t ttl) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = Type::kAAAA;
  rr.ttl = ttl;
  rr.rdata.assign(16, 0);
  rr.rdata[15] = 1;  // ::1 placeholder
  return rr;
}

ResourceRecord MakeTXT(std::string name, std::string_view text,
                       std::uint32_t ttl) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = Type::kTXT;
  rr.ttl = ttl;
  rr.rdata.push_back(static_cast<std::uint8_t>(text.size() & 0xFF));
  rr.rdata.insert(rr.rdata.end(), text.begin(), text.end());
  return rr;
}

}  // namespace connlab::dns
