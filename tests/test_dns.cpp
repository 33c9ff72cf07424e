// DNS codec tests: names (incl. compression), records, messages, and the
// malicious-crafting tier (PayloadImage label cutter).
#include <gtest/gtest.h>

#include <initializer_list>
#include <string_view>

#include "src/dns/craft.hpp"
#include "src/dns/message.hpp"
#include "src/dns/name.hpp"
#include "src/dns/record.hpp"

namespace connlab::dns {
namespace {

using util::Bytes;
using util::BytesOf;
using util::ByteWriter;

TEST(Name, ParseDottedBasics) {
  auto labels = ParseDotted("www.example.com");
  ASSERT_TRUE(labels.ok());
  ASSERT_EQ(labels.value().size(), 3u);
  EXPECT_EQ(labels.value()[0], BytesOf("www"));
  EXPECT_EQ(labels.value()[2], BytesOf("com"));
  EXPECT_TRUE(ParseDotted("").value().empty());
  EXPECT_TRUE(ParseDotted(".").value().empty());
  EXPECT_EQ(ParseDotted("trailing.dot.").value().size(), 2u);
}

TEST(Name, ParseDottedRejectsMalformed) {
  EXPECT_FALSE(ParseDotted("a..b").ok());
  EXPECT_FALSE(ParseDotted(std::string(64, 'x') + ".com").ok());
  // 255-byte total limit.
  std::string big;
  for (int i = 0; i < 50; ++i) big += "abcde.";
  big += "com";
  EXPECT_FALSE(ParseDotted(big).ok());
}

TEST(Name, EncodeDecodeRoundTrip) {
  ByteWriter w;
  ASSERT_TRUE(EncodeName(w, "mail.example.org").ok());
  auto decoded = DecodeName(w.bytes(), 0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().dotted, "mail.example.org");
  EXPECT_EQ(decoded.value().wire_len, w.bytes().size());
}

TEST(Name, DecodeFollowsCompressionPointer) {
  // Packet: [name "example.com" at 0][pointer-to-0 at 13 prefixed by "www"]
  ByteWriter w;
  ASSERT_TRUE(EncodeName(w, "example.com").ok());  // 13 bytes at offset 0
  const std::size_t second = w.size();
  w.WriteU8(3);
  w.WriteString("www");
  w.WriteU8(0xC0);
  w.WriteU8(0x00);
  auto decoded = DecodeName(w.bytes(), second);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().dotted, "www.example.com");
  EXPECT_EQ(decoded.value().wire_len, 6u);  // 1+3+2
}

TEST(Name, DecodeRejectsPointerLoop) {
  Bytes wire{0xC0, 0x00};  // points at itself
  EXPECT_FALSE(DecodeName(wire, 0).ok());
}

TEST(Name, DecodeRejectsTruncation) {
  EXPECT_FALSE(DecodeName(Bytes{5, 'a', 'b'}, 0).ok());
  EXPECT_FALSE(DecodeName(Bytes{0xC0}, 0).ok());
  EXPECT_FALSE(DecodeName(Bytes{}, 0).ok());
}

TEST(Name, DecodeEnforces255Limit) {
  // Five 62-byte labels > 255 decoded length.
  ByteWriter w;
  for (int i = 0; i < 5; ++i) {
    w.WriteU8(62);
    for (int j = 0; j < 62; ++j) w.WriteU8('a');
  }
  w.WriteU8(0);
  EXPECT_FALSE(DecodeName(w.bytes(), 0).ok());
}

TEST(Name, EncodeLabelsRawTierAllowsArbitraryBytes) {
  LabelSeq labels{{0x00, 0xFF, 0x3F}, {0x90, 0x90}};
  ByteWriter w;
  ASSERT_TRUE(EncodeLabels(w, labels).ok());
  EXPECT_EQ(w.bytes(), (Bytes{3, 0x00, 0xFF, 0x3F, 2, 0x90, 0x90, 0}));
  // But still cannot encode >63 (length byte has 6 bits).
  LabelSeq toolong{Bytes(64, 'x')};
  ByteWriter w2;
  EXPECT_FALSE(EncodeLabels(w2, toolong).ok());
}

TEST(Name, ToDottedEscapesNonPrintable) {
  LabelSeq labels{{0x01, 'a'}, {'b'}};
  EXPECT_EQ(ToDotted(labels), "\\001a.b");
}

// ---------------------------------------------------- parser edge cases ----
// The boundaries where the hardened decoder (DecodeName) and the vulnerable
// guest get_name diverge: the strict parser refuses exactly the shapes the
// fuzzer leans on (pointer loops, pointer chains, flag-bit label lengths,
// truncation), while the expansion algorithm walks into them.

TEST(NameEdge, PointerToPointerChainResolves) {
  // name at 0, pointer at A -> 0, pointer at B -> A: two hops, legal.
  ByteWriter w;
  ASSERT_TRUE(EncodeName(w, "example.com").ok());
  const std::size_t first_ptr = w.size();
  w.WriteU8(0xC0);
  w.WriteU8(0x00);
  const std::size_t second_ptr = w.size();
  w.WriteU8(0xC0);
  w.WriteU8(static_cast<std::uint8_t>(first_ptr));
  auto decoded = DecodeName(w.bytes(), second_ptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().dotted, "example.com");
  EXPECT_EQ(decoded.value().wire_len, 2u);
}

TEST(NameEdge, PointerChainBudgetIsEnforced) {
  // ptr[i] -> ptr[i-1] -> ... -> ptr[0] -> real name: hops = chain length.
  ByteWriter w;
  ASSERT_TRUE(EncodeName(w, "deep.example").ok());
  std::vector<std::size_t> ptr_at;
  std::size_t prev = 0;
  for (int i = 0; i < 6; ++i) {
    ptr_at.push_back(w.size());
    w.WriteU8(0xC0);
    w.WriteU8(static_cast<std::uint8_t>(prev));
    prev = ptr_at.back();
  }
  // 6 pointer hops: fine with budget 6, rejected with budget 5.
  EXPECT_TRUE(DecodeName(w.bytes(), ptr_at.back(), /*max_hops=*/6).ok());
  EXPECT_FALSE(DecodeName(w.bytes(), ptr_at.back(), /*max_hops=*/5).ok());
}

TEST(NameEdge, TwoPointerCycleRejected) {
  // A -> B and B -> A: never terminates, only the hop budget saves us.
  Bytes wire{0xC0, 0x02, 0xC0, 0x00};
  EXPECT_FALSE(DecodeName(wire, 0).ok());
  EXPECT_FALSE(DecodeName(wire, 2).ok());
}

TEST(NameEdge, SelfPointerAfterLabelsRejected) {
  // The compression-bomb shape: labels then a pointer back to their start.
  // The strict parser sees >255 bytes after a few hops and refuses; the
  // vulnerable get_name re-expands the run once per hop (test_connman).
  ByteWriter w;
  w.WriteU8(4);
  w.WriteString("bomb");
  w.WriteU8(0xC0);
  w.WriteU8(0x00);
  EXPECT_FALSE(DecodeName(w.bytes(), 0).ok());
}

TEST(NameEdge, LabelLengthBoundary) {
  // 63 (0x3F) is the largest encodable label; 64 and 128 set the reserved
  // flag bits and must not be treated as plain lengths.
  ByteWriter ok;
  ok.WriteU8(63);
  for (int i = 0; i < 63; ++i) ok.WriteU8('a');
  ok.WriteU8(0);
  auto decoded = DecodeName(ok.bytes(), 0);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().labels.size(), 1u);
  EXPECT_EQ(decoded.value().labels[0].size(), 63u);

  for (const std::uint8_t bad_len : {0x40, 0x80}) {
    Bytes wire(70, 'a');
    wire[0] = bad_len;
    EXPECT_FALSE(DecodeName(wire, 0).ok()) << unsigned(bad_len);
  }
}

TEST(NameEdge, PointerIntoTruncatedRegionRejected) {
  // Pointer target exists but the name there runs off the packet.
  Bytes wire{0xC0, 0x02, 5, 'a', 'b'};
  EXPECT_FALSE(DecodeName(wire, 0).ok());
}

TEST(NameEdge, OffsetAtOrPastEndRejected) {
  ByteWriter w;
  ASSERT_TRUE(EncodeName(w, "x.y").ok());
  EXPECT_FALSE(DecodeName(w.bytes(), w.size()).ok());
  EXPECT_FALSE(DecodeName(w.bytes(), w.size() + 10).ok());
}

TEST(MessageEdge, TruncatedHeaderLengths) {
  // Every length short of the 12-byte header must be rejected cleanly.
  for (std::size_t len = 0; len < kHeaderSize; ++len) {
    EXPECT_FALSE(Decode(Bytes(len, 0)).ok()) << len;
  }
}

TEST(MessageEdge, TruncatedMidRecordRejected) {
  Message msg = Message::Query(3, "trunc.example");
  msg.header.qr = true;
  msg.answers.push_back(MakeA("trunc.example", "10.1.2.3", 99));
  auto wire = Encode(msg);
  ASSERT_TRUE(wire.ok());
  // Chop the packet anywhere inside the answer section: always malformed,
  // never a crash or an accept.
  const std::size_t full = wire.value().size();
  for (std::size_t keep = kHeaderSize + 1; keep < full; ++keep) {
    Bytes cut(wire.value().begin(),
              wire.value().begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(Decode(cut).ok()) << keep;
  }
}

TEST(NameEdge, StrictDecoderRefusesWhatExpansionAccepts) {
  // A raw 300-byte name: encodable by the raw tier, expandable by the
  // vulnerable algorithm (301 bytes incl. terminator), rejected by the
  // hardened parser — the exact disagreement CVE-2017-12865 lives in.
  auto labels = JunkLabels(300);
  ASSERT_TRUE(labels.ok());
  ByteWriter w;
  ASSERT_TRUE(EncodeLabels(w, labels.value()).ok());
  EXPECT_EQ(ExpandLabels(labels.value()).size(), 301u);
  EXPECT_FALSE(DecodeName(w.bytes(), 0).ok());
}

TEST(Record, IPv4RoundTrip) {
  auto bytes = ParseIPv4("192.168.1.42");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), (Bytes{192, 168, 1, 42}));
  EXPECT_EQ(FormatIPv4(bytes.value()).value(), "192.168.1.42");
  EXPECT_FALSE(ParseIPv4("300.1.1.1").ok());
  EXPECT_FALSE(ParseIPv4("1.2.3").ok());
  EXPECT_FALSE(ParseIPv4("1.2.3.4.5").ok());
  EXPECT_FALSE(FormatIPv4(Bytes{1, 2}).ok());
}

TEST(Record, Makers) {
  auto a = MakeA("h.example", "10.0.0.1");
  EXPECT_EQ(a.type, Type::kA);
  EXPECT_EQ(a.rdata.size(), 4u);
  auto aaaa = MakeAAAA("h.example");
  EXPECT_EQ(aaaa.type, Type::kAAAA);
  EXPECT_EQ(aaaa.rdata.size(), 16u);
  auto txt = MakeTXT("h.example", "hi");
  EXPECT_EQ(txt.rdata, (Bytes{2, 'h', 'i'}));
  EXPECT_EQ(TypeName(Type::kAAAA), "AAAA");
}

TEST(Record, TypeNameCoversEveryRrType) {
  EXPECT_EQ(TypeName(Type::kA), "A");
  EXPECT_EQ(TypeName(Type::kNS), "NS");
  EXPECT_EQ(TypeName(Type::kCNAME), "CNAME");
  EXPECT_EQ(TypeName(Type::kSOA), "SOA");
  EXPECT_EQ(TypeName(Type::kPTR), "PTR");
  EXPECT_EQ(TypeName(Type::kMX), "MX");
  EXPECT_EQ(TypeName(Type::kTXT), "TXT");
  EXPECT_EQ(TypeName(Type::kAny), "ANY");
  EXPECT_EQ(TypeName(static_cast<Type>(99)), "TYPE99");
}

/// A record whose rdata holds `names` in uncompressed wire form, after
/// `head` and before `tail` (the NS, CNAME, PTR, MX and SOA rdata shapes).
ResourceRecord NameShaped(std::string owner, Type type, const Bytes& head,
                          std::initializer_list<std::string_view> names,
                          const Bytes& tail = {}) {
  ByteWriter w;
  w.WriteBytes(head);
  for (std::string_view name : names) {
    EXPECT_TRUE(EncodeName(w, name).ok()) << name;
  }
  w.WriteBytes(tail);
  ResourceRecord rr;
  rr.name = std::move(owner);
  rr.type = type;
  rr.rdata = std::move(w).Take();
  return rr;
}

TEST(Record, TxtRoundTripIncludingMultiChunk) {
  // Two character-strings in one TXT rdata: the decoder keeps the rdata
  // bytes as they were, chunk lengths included.
  ResourceRecord txt = MakeTXT("h.example", "ab");
  txt.rdata.insert(txt.rdata.end(), {2, 'c', 'd'});
  Message msg = Message::ResponseFor(Message::Query(0x7474, "h.example"));
  msg.answers.push_back(txt);
  auto decoded = Decode(Encode(msg).value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().answers.size(), 1u);
  EXPECT_EQ(decoded.value().answers[0], txt);
  EXPECT_EQ(decoded.value().answers[0].rdata,
            (Bytes{2, 'a', 'b', 2, 'c', 'd'}));
}

TEST(Record, TypedRecordsSurviveMessageEncodeDecode) {
  // Name-valued rdata is carried as bytes: Decode neither expands nor
  // rewrites the names inside it.
  Message response =
      Message::ResponseFor(Message::Query(0x5151, "zone.example", Type::kSOA));
  response.answers.push_back(
      NameShaped("zone.example", Type::kSOA, {},
                 {"ns1.zone.example", "admin.zone.example"}, Bytes(20, 0)));
  response.answers.push_back(
      NameShaped("zone.example", Type::kMX, {0, 5}, {"mx.zone.example"}));
  response.answers.push_back(
      NameShaped("www.zone.example", Type::kCNAME, {}, {"zone.example"}));
  response.authorities.push_back(
      NameShaped("zone.example", Type::kNS, {}, {"ns2.zone.example"}));
  response.additionals.push_back(NameShaped(
      "8.0.0.10.in-addr.arpa", Type::kPTR, {}, {"cam.zone.example"}));

  auto wire = Encode(response);
  ASSERT_TRUE(wire.ok());
  auto decoded = Decode(wire.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().answers, response.answers);
  EXPECT_EQ(decoded.value().authorities, response.authorities);
  EXPECT_EQ(decoded.value().additionals, response.additionals);
}

TEST(Message, QueryResponseRoundTrip) {
  Message query = Message::Query(0x1234, "device.local", Type::kA);
  Message response = Message::ResponseFor(query);
  response.answers.push_back(MakeA("device.local", "10.0.0.9", 60));

  auto wire = Encode(response);
  ASSERT_TRUE(wire.ok());
  auto decoded = Decode(wire.value());
  ASSERT_TRUE(decoded.ok());
  const Message& m = decoded.value();
  EXPECT_EQ(m.header.id, 0x1234);
  EXPECT_TRUE(m.header.qr);
  EXPECT_TRUE(m.header.ra);
  ASSERT_EQ(m.questions.size(), 1u);
  EXPECT_EQ(m.questions[0].name, "device.local");
  ASSERT_EQ(m.answers.size(), 1u);
  EXPECT_EQ(m.answers[0].type, Type::kA);
  EXPECT_EQ(FormatIPv4(m.answers[0].rdata).value(), "10.0.0.9");
  EXPECT_EQ(m.answers[0].ttl, 60u);
}

TEST(Message, HeaderFlagBits) {
  Message msg = Message::Query(7, "x.y");
  msg.header.aa = true;
  msg.header.tc = true;
  msg.header.rcode = Rcode::kNXDomain;
  auto wire = Encode(msg);
  ASSERT_TRUE(wire.ok());
  auto decoded = Decode(wire.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().header.aa);
  EXPECT_TRUE(decoded.value().header.tc);
  EXPECT_TRUE(decoded.value().header.rd);
  EXPECT_EQ(decoded.value().header.rcode, Rcode::kNXDomain);
}

TEST(Message, AllSectionsRoundTrip) {
  Message msg = Message::Query(9, "multi.example");
  msg.header.qr = true;
  msg.answers.push_back(MakeA("multi.example", "1.1.1.1"));
  msg.answers.push_back(MakeAAAA("multi.example"));
  msg.authorities.push_back(MakeTXT("ns.example", "auth"));
  msg.additionals.push_back(MakeA("glue.example", "2.2.2.2"));
  auto wire = Encode(msg);
  ASSERT_TRUE(wire.ok());
  auto decoded = Decode(wire.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers.size(), 2u);
  EXPECT_EQ(decoded.value().authorities.size(), 1u);
  EXPECT_EQ(decoded.value().additionals.size(), 1u);
}

TEST(Message, DecodeRejectsTruncatedHeader) {
  EXPECT_FALSE(Decode(Bytes{1, 2, 3}).ok());
}

TEST(Message, DecodeRejectsCountMismatch) {
  Message msg = Message::Query(1, "a.b");
  auto wire = Encode(msg);
  ASSERT_TRUE(wire.ok());
  Bytes bad = wire.value();
  bad[5] = 2;  // qdcount = 2, but only one question present
  EXPECT_FALSE(Decode(bad).ok());
}

TEST(Message, SummaryMentionsQuestion) {
  Message msg = Message::Query(0xBEEF, "iot.dev", Type::kAAAA);
  const std::string s = Summary(msg);
  EXPECT_NE(s.find("0xbeef"), std::string::npos);
  EXPECT_NE(s.find("iot.dev/AAAA"), std::string::npos);
  EXPECT_NE(s.find("QUERY"), std::string::npos);
}

// ------------------------------------------------------------- crafting ----

TEST(Craft, ExpandLabelsMatchesVulnerableAlgorithm) {
  LabelSeq labels{{'a', 'b'}, {'c'}};
  EXPECT_EQ(ExpandLabels(labels), (Bytes{2, 'a', 'b', 1, 'c', 0}));
}

TEST(Craft, JunkLabelsHitExactLength) {
  for (std::size_t len : {2u, 64u, 100u, 1024u, 1500u, 4000u}) {
    auto labels = JunkLabels(len);
    ASSERT_TRUE(labels.ok()) << len;
    EXPECT_EQ(ExpandLabels(labels.value()).size(), len + 1) << len;
  }
}

TEST(Craft, CutterPlacesRequiredBytesExactly) {
  PayloadImage image(300);
  ASSERT_TRUE(image.SetWord(100, 0xDEADBEEF).ok());
  ASSERT_TRUE(image.SetBytes(200, BytesOf("PAYLOAD")).ok());
  auto labels = CutIntoLabels(image);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  const Bytes expanded = ExpandLabels(labels.value());
  ASSERT_GE(expanded.size(), 301u);
  EXPECT_EQ(expanded[100], 0xEF);
  EXPECT_EQ(expanded[101], 0xBE);
  EXPECT_EQ(expanded[102], 0xAD);
  EXPECT_EQ(expanded[103], 0xDE);
  EXPECT_EQ(Bytes(expanded.begin() + 200, expanded.begin() + 207),
            BytesOf("PAYLOAD"));
  EXPECT_EQ(expanded[300], 0u);  // terminator
}

TEST(Craft, CutterHonoursLongRequiredRuns) {
  // A 63-byte contiguous required run is the maximum a single label holds.
  PayloadImage image(200);
  Bytes sled(63, 0x90);
  ASSERT_TRUE(image.SetBytes(80, sled).ok());
  auto labels = CutIntoLabels(image);
  ASSERT_TRUE(labels.ok());
  const Bytes expanded = ExpandLabels(labels.value());
  for (std::size_t i = 80; i < 143; ++i) EXPECT_EQ(expanded[i], 0x90) << i;
}

TEST(Craft, CutterFailsWhenRequiredTooDense) {
  // 64 required bytes leave no cut position in the window.
  PayloadImage image(200);
  ASSERT_TRUE(image.SetBytes(50, Bytes(64, image.filler())).ok());
  EXPECT_FALSE(CutIntoLabels(image).ok());
}

TEST(Craft, CutterFailsWhenByteZeroRequired) {
  PayloadImage image(100);
  ASSERT_TRUE(image.SetBytes(0, BytesOf("X")).ok());
  EXPECT_FALSE(CutIntoLabels(image).ok());
}

TEST(Craft, EveryLabelBoundaryIsOnDontCareByte) {
  PayloadImage image(500);
  for (std::size_t off = 20; off < 480; off += 40) {
    ASSERT_TRUE(image.SetWord(off, 0x11223344).ok());
  }
  auto labels = CutIntoLabels(image);
  ASSERT_TRUE(labels.ok());
  std::size_t pos = 0;
  for (const auto& label : labels.value()) {
    EXPECT_FALSE(image.required(pos)) << "cut at required byte " << pos;
    pos += 1 + label.size();
  }
  EXPECT_EQ(pos, image.size());
}

TEST(Craft, MaliciousResponseLooksLegitimateToHeaderChecks) {
  Message query = Message::Query(0xABCD, "victim.example");
  auto labels = JunkLabels(1500);
  ASSERT_TRUE(labels.ok());
  Message evil = MaliciousAResponse(query, labels.value());
  EXPECT_EQ(evil.header.id, query.header.id);
  EXPECT_TRUE(evil.header.qr);
  ASSERT_EQ(evil.questions.size(), 1u);
  EXPECT_EQ(evil.questions[0].name, "victim.example");
  ASSERT_EQ(evil.answers.size(), 1u);
  EXPECT_TRUE(evil.answers[0].uses_raw_name());
  // It encodes fine on the wire...
  auto wire = Encode(evil);
  ASSERT_TRUE(wire.ok());
  // ...but a *strict* decoder rejects it (name > 255 bytes): the packet is
  // ill-formed by RFC standards and only a sloppy parser walks into it.
  EXPECT_FALSE(Decode(wire.value()).ok());
}

TEST(Craft, PayloadImageBoundsChecked) {
  PayloadImage image(10);
  EXPECT_FALSE(image.SetWord(8, 1).ok());
  EXPECT_FALSE(image.SetBytes(10, BytesOf("x")).ok());
  EXPECT_TRUE(image.SetWord(6, 1).ok());
}

}  // namespace
}  // namespace connlab::dns
