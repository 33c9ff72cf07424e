// DNS name encoding/decoding: dotted presentation form <-> wire label
// sequences, including RFC 1035 compression pointers on decode.
//
// Two tiers of API:
//  * the well-formed tier (EncodeName / DecodeName), which enforces the
//    spec limits (63-byte labels, 255-byte names) — used by the benign
//    client/server paths;
//  * the raw tier (LabelSeq / EncodeLabels), which encodes arbitrary label
//    sequences with NO limits — this is the malicious-crafting surface the
//    fake DNS server uses, because CVE-2017-12865 is triggered precisely by
//    a name whose *expansion* exceeds what the spec-abiding world produces.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::dns {

inline constexpr std::size_t kMaxLabelLen = 63;
inline constexpr std::size_t kMaxNameLen = 255;
/// Compression-pointer marker bits in a length byte.
inline constexpr std::uint8_t kCompressionFlags = 0xC0;

/// A raw sequence of labels (each 1..63 bytes when well-formed; the raw
/// tier permits 1..63 only — longer is unencodable — but contents are
/// arbitrary bytes, including NULs).
using LabelSeq = std::vector<util::Bytes>;

/// Splits "www.example.com" into labels. Rejects empty labels (consecutive
/// dots), oversized labels and oversized names. "" and "." mean the root.
/// Reads back every escape ToDotted writes — \DDD (decimal, at most 255),
/// plus the \. and \\ shorthands — as the one byte it stands for; any
/// other backslash is an error. Label and name limits count those bytes.
util::Result<LabelSeq> ParseDotted(std::string_view dotted);

/// Joins labels back into dotted form (non-printable bytes, `.` and `\`
/// are escaped as \DDD, RFC 1035 master-file style), so that
/// ParseDotted(ToDotted(labels)) == labels.
std::string ToDotted(const LabelSeq& labels);

/// Encodes a well-formed dotted name (with terminating root label).
util::Status EncodeName(util::ByteWriter& w, std::string_view dotted);

/// Encodes raw labels verbatim; `terminate` appends the root label. Fails
/// only if some label is empty or longer than 63 (unencodable in the wire
/// format — the length byte has 6 usable bits).
util::Status EncodeLabels(util::ByteWriter& w, const LabelSeq& labels,
                          bool terminate = true);

struct DecodedName {
  std::string dotted;       // presentation form
  LabelSeq labels;          // raw labels
  std::size_t wire_len = 0; // bytes consumed at the original offset
};

/// The wire length of the uncompressed name at packet[offset], root label
/// included, checked like DecodeName (label types, the 255-byte limit, the
/// packet's end) without building it. A compression pointer is an error:
/// the caller wants the name's own bytes.
util::Result<std::size_t> FlatNameLength(util::ByteSpan packet,
                                         std::size_t offset);

/// Decodes the name starting at packet[offset], following compression
/// pointers (bounded by `max_hops` to defuse pointer loops) and enforcing
/// the 255-byte name limit. This is the *correct* decoder — the vulnerable
/// guest get_name in src/connman deliberately does not use it.
util::Result<DecodedName> DecodeName(util::ByteSpan packet, std::size_t offset,
                                     int max_hops = 16);

}  // namespace connlab::dns
