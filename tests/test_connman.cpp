// DnsProxy tests: the benign proxy path, header sanity checks, the DoS
// crash on 1.34, and the 1.35 patch — on both architectures.
#include <gtest/gtest.h>

#include "src/connman/cache.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/dns/craft.hpp"
#include "src/loader/boot.hpp"

namespace connlab::connman {
namespace {

using dns::Message;
using isa::Arch;
using loader::Boot;
using loader::ProtectionConfig;
using Kind = ProxyOutcome::Kind;

struct Target {
  std::unique_ptr<loader::System> sys;
  std::unique_ptr<DnsProxy> proxy;
};

Target MakeTarget(Arch arch, Version version,
                  ProtectionConfig prot = ProtectionConfig::None(),
                  std::uint64_t seed = 1) {
  Target t;
  auto sys = Boot(arch, prot, seed);
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  t.sys = std::move(sys).value();
  t.proxy = std::make_unique<DnsProxy>(*t.sys, version);
  return t;
}

util::Bytes QueryWire(std::uint16_t id, const std::string& name) {
  return dns::Encode(Message::Query(id, name)).value();
}

// Sends a query through the proxy then delivers `response`.
ProxyOutcome RoundTrip(Target& t, const Message& query, const Message& response) {
  auto fwd = t.proxy->AcceptClientQuery(dns::Encode(query).value());
  EXPECT_TRUE(fwd.ok()) << fwd.status().ToString();
  return t.proxy->HandleServerResponse(dns::Encode(response).value());
}

// ------------------------------------------------------------------ cache --

TEST(Cache, InsertLookupExpiry) {
  Cache cache;
  cache.Insert("host.a", {1, 2, 3, 4}, false, 60, 1000);
  EXPECT_EQ(cache.Lookup("host.a", 1030).size(), 1u);
  EXPECT_TRUE(cache.Lookup("host.a", 1061).empty());  // expired
  EXPECT_TRUE(cache.Lookup("host.b", 1030).empty());
}

TEST(Cache, RefreshInsteadOfDuplicate) {
  Cache cache;
  cache.Insert("h", {1, 1, 1, 1}, false, 10, 0);
  cache.Insert("h", {1, 1, 1, 1}, false, 100, 50);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup("h", 100).size(), 1u);
  EXPECT_EQ(cache.Lookup("h", 100)[0].expires_at, 150u);
}

TEST(Cache, DistinctRecordsCoexist) {
  Cache cache;
  cache.Insert("h", {1, 1, 1, 1}, false, 60, 0);
  cache.Insert("h", {2, 2, 2, 2}, false, 60, 0);
  util::Bytes v6(16, 0);
  cache.Insert("h", v6, true, 60, 0);
  EXPECT_EQ(cache.Lookup("h", 10).size(), 3u);
}

TEST(Cache, CapacityEvictsSoonestExpiry) {
  Cache cache(2);
  cache.Insert("a", {1, 0, 0, 1}, false, 10, 0);   // expires 10
  cache.Insert("b", {1, 0, 0, 2}, false, 100, 0);  // expires 100
  cache.Insert("c", {1, 0, 0, 3}, false, 50, 0);   // evicts "a"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup("a", 5).empty());
  EXPECT_FALSE(cache.Lookup("b", 5).empty());
}

// ------------------------------------------------------------- frame model --

TEST(Frame, OffsetsMatchDocumentedGeometry) {
  FrameLayout x86 = FrameFor(ProtectionConfig::None(), Arch::kVX86);
  EXPECT_EQ(x86.locals_offset(), 1024u);
  EXPECT_EQ(x86.saved_regs_offset(), 1040u);
  EXPECT_EQ(x86.ret_offset(), 1056u);
  EXPECT_EQ(x86.frame_size(), 1060u);

  FrameLayout arm = FrameFor(ProtectionConfig::None(), Arch::kVARM);
  EXPECT_EQ(arm.saved_regs_size(), 32u);
  EXPECT_EQ(arm.ret_offset(), 1072u);
  EXPECT_EQ(arm.chain_offset(), 1076u);
  EXPECT_EQ(arm.null_slot0(), 1028u);
  EXPECT_EQ(arm.null_slot1(), 1032u);
}

TEST(Frame, CanaryShiftsEverythingByFour) {
  FrameLayout plain = FrameFor(ProtectionConfig::None(), Arch::kVX86);
  FrameLayout guarded = FrameFor(ProtectionConfig::All(), Arch::kVX86);
  EXPECT_EQ(guarded.ret_offset(), plain.ret_offset() + 4);
  EXPECT_EQ(guarded.canary_offset(), kNameBufSize);
}

// ------------------------------------------------------------- proxy paths --

class ProxyTest : public ::testing::TestWithParam<Arch> {};

TEST_P(ProxyTest, BenignResponseIsCachedAndForwarded) {
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x42, "iot.example.com");
  Message response = Message::ResponseFor(query);
  response.answers.push_back(dns::MakeA("iot.example.com", "93.184.216.34", 300));

  ProxyOutcome outcome = RoundTrip(t, query, response);
  EXPECT_EQ(outcome.kind, Kind::kParsedOk) << outcome.ToString();
  EXPECT_FALSE(outcome.overflowed);
  ASSERT_EQ(outcome.cached.size(), 1u);
  EXPECT_EQ(outcome.cached[0].hostname, "iot.example.com");
  EXPECT_FALSE(outcome.reply_to_client.empty());
  auto hits = t.proxy->cache().Lookup("iot.example.com", t.proxy->now() + 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(dns::FormatIPv4(hits[0].rdata).value(), "93.184.216.34");
}

TEST_P(ProxyTest, BenignAAAAIsCached) {
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x43, "v6.example.com", dns::Type::kAAAA);
  Message response = Message::ResponseFor(query);
  response.answers.push_back(dns::MakeAAAA("v6.example.com", 60));
  ProxyOutcome outcome = RoundTrip(t, query, response);
  EXPECT_EQ(outcome.kind, Kind::kParsedOk) << outcome.ToString();
  ASSERT_EQ(outcome.cached.size(), 1u);
  EXPECT_TRUE(outcome.cached[0].ipv6);
}

TEST_P(ProxyTest, ResponseWithWrongIdIsDumped) {
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x42, "a.example");
  auto fwd = t.proxy->AcceptClientQuery(dns::Encode(query).value());
  ASSERT_TRUE(fwd.ok());
  Message response = Message::ResponseFor(query);
  response.header.id = 0x999;  // mismatched transaction id
  response.answers.push_back(dns::MakeA("a.example", "1.2.3.4"));
  auto outcome = t.proxy->HandleServerResponse(dns::Encode(response).value());
  EXPECT_EQ(outcome.kind, Kind::kDroppedInvalid);
}

TEST_P(ProxyTest, QueryFlagPacketIsDumped) {
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x42, "a.example");
  auto fwd = t.proxy->AcceptClientQuery(dns::Encode(query).value());
  ASSERT_TRUE(fwd.ok());
  // Deliver the *query* itself as a response (QR=0).
  auto outcome = t.proxy->HandleServerResponse(dns::Encode(query).value());
  EXPECT_EQ(outcome.kind, Kind::kDroppedInvalid);
}

TEST_P(ProxyTest, QuestionEchoMismatchIsDumped) {
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x42, "a.example");
  auto fwd = t.proxy->AcceptClientQuery(dns::Encode(query).value());
  ASSERT_TRUE(fwd.ok());
  Message bogus = Message::Query(0x42, "b.example");  // different question
  bogus.header.qr = true;
  auto outcome = t.proxy->HandleServerResponse(dns::Encode(bogus).value());
  EXPECT_EQ(outcome.kind, Kind::kDroppedInvalid);
}

TEST_P(ProxyTest, ShortAndUnsolicitedPacketsAreDumped) {
  Target t = MakeTarget(GetParam(), Version::k134);
  EXPECT_EQ(t.proxy->HandleServerResponse(util::Bytes{1, 2, 3}).kind,
            Kind::kDroppedInvalid);
  Message unsolicited = Message::ResponseFor(Message::Query(0x77, "x.y"));
  EXPECT_EQ(
      t.proxy->HandleServerResponse(dns::Encode(unsolicited).value()).kind,
      Kind::kDroppedInvalid);
}

TEST_P(ProxyTest, OversizedNameCrashes134) {
  // The paper's first experiment: a Type A response whose name expands past
  // the buffer and off the stack — DoS.
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x42, "victim.example");
  auto labels = dns::JunkLabels(4000);
  ASSERT_TRUE(labels.ok());
  Message evil = dns::MaliciousAResponse(query, labels.value());
  ProxyOutcome outcome = RoundTrip(t, query, evil);
  EXPECT_EQ(outcome.kind, Kind::kCrash) << outcome.ToString();
  EXPECT_TRUE(outcome.overflowed);
  ASSERT_TRUE(outcome.stop.fault.has_value());
  EXPECT_EQ(outcome.stop.fault->kind, mem::AccessKind::kWrite);
}

TEST_P(ProxyTest, OversizedNameRejectedBy135) {
  Target t = MakeTarget(GetParam(), Version::k135);
  Message query = Message::Query(0x42, "victim.example");
  auto labels = dns::JunkLabels(4000);
  ASSERT_TRUE(labels.ok());
  Message evil = dns::MaliciousAResponse(query, labels.value());
  ProxyOutcome outcome = RoundTrip(t, query, evil);
  EXPECT_EQ(outcome.kind, Kind::kParseError) << outcome.ToString();
  EXPECT_FALSE(outcome.overflowed);
  // The daemon survives: a benign exchange still works afterwards.
  Message query2 = Message::Query(0x43, "ok.example");
  Message response2 = Message::ResponseFor(query2);
  response2.answers.push_back(dns::MakeA("ok.example", "5.6.7.8"));
  EXPECT_EQ(RoundTrip(t, query2, response2).kind, Kind::kParsedOk);
}

TEST_P(ProxyTest, ModerateOverflowSmashesFrameWithoutLeavingStack) {
  // Overflow past the return slot but within the mapping: the epilogue
  // loads a corrupted return address -> control-flow crash (not a
  // mid-copy segfault). 0x41414141 is not mapped on either arch.
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x42, "victim.example");
  auto labels = dns::JunkLabels(1200);
  ASSERT_TRUE(labels.ok());
  Message evil = dns::MaliciousAResponse(query, labels.value());
  ProxyOutcome outcome = RoundTrip(t, query, evil);
  EXPECT_EQ(outcome.kind, Kind::kCrash) << outcome.ToString();
  EXPECT_TRUE(outcome.overflowed);
}

TEST_P(ProxyTest, TruncatedRdataIsParseErrorNotCrash) {
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x42, "victim.example");
  Message response = Message::ResponseFor(query);
  response.answers.push_back(dns::MakeA("victim.example", "1.2.3.4"));
  auto wire = dns::Encode(response).value();
  wire.resize(wire.size() - 3);  // cut into the rdata
  auto fwd = t.proxy->AcceptClientQuery(dns::Encode(query).value());
  ASSERT_TRUE(fwd.ok());
  auto outcome = t.proxy->HandleServerResponse(wire);
  EXPECT_EQ(outcome.kind, Kind::kParseError);
}

TEST_P(ProxyTest, StatsTrackOutcomes) {
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(1, "s.example");
  Message response = Message::ResponseFor(query);
  response.answers.push_back(dns::MakeA("s.example", "1.1.1.1"));
  RoundTrip(t, query, response);
  EXPECT_EQ(t.proxy->stats().queries, 1u);
  EXPECT_EQ(t.proxy->stats().responses, 1u);
  EXPECT_EQ(t.proxy->stats().parsed_ok, 1u);
  EXPECT_EQ(t.proxy->stats().crashes, 0u);
}

TEST_P(ProxyTest, CompressedNamesInBenignResponsesWork) {
  // A response using a compression pointer back into the question.
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x55, "c.example.net");
  auto fwd = t.proxy->AcceptClientQuery(dns::Encode(query).value());
  ASSERT_TRUE(fwd.ok());

  // Hand-build: header + question echo + answer with name = pointer to 12.
  util::ByteWriter w;
  w.WriteU16BE(0x55);
  w.WriteU16BE(0x8180);  // QR|RD|RA
  w.WriteU16BE(1);
  w.WriteU16BE(1);
  w.WriteU16BE(0);
  w.WriteU16BE(0);
  ASSERT_TRUE(dns::EncodeName(w, "c.example.net").ok());
  w.WriteU16BE(1);  // qtype A
  w.WriteU16BE(1);  // qclass IN
  w.WriteU8(0xC0);  // pointer to offset 12 (the question name)
  w.WriteU8(12);
  w.WriteU16BE(1);
  w.WriteU16BE(1);
  w.WriteU32BE(60);
  w.WriteU16BE(4);
  w.WriteBytes(util::Bytes{9, 9, 9, 9});
  auto outcome = t.proxy->HandleServerResponse(w.bytes());
  EXPECT_EQ(outcome.kind, Kind::kParsedOk) << outcome.ToString();
  ASSERT_EQ(outcome.cached.size(), 1u);
}

TEST_P(ProxyTest, PointerLoopIsParseErrorNotHang) {
  Target t = MakeTarget(GetParam(), Version::k134);
  Message query = Message::Query(0x66, "l.example");
  auto fwd = t.proxy->AcceptClientQuery(dns::Encode(query).value());
  ASSERT_TRUE(fwd.ok());
  util::ByteWriter w;
  w.WriteU16BE(0x66);
  w.WriteU16BE(0x8180);
  w.WriteU16BE(1);
  w.WriteU16BE(1);
  w.WriteU16BE(0);
  w.WriteU16BE(0);
  ASSERT_TRUE(dns::EncodeName(w, "l.example").ok());
  w.WriteU16BE(1);
  w.WriteU16BE(1);
  const std::size_t loop_at = w.size();
  w.WriteU8(0xC0);  // pointer to itself
  w.WriteU8(static_cast<std::uint8_t>(loop_at));
  auto outcome = t.proxy->HandleServerResponse(w.bytes());
  EXPECT_EQ(outcome.kind, Kind::kParseError);
}

TEST_P(ProxyTest, AcceptClientQueryValidates) {
  Target t = MakeTarget(GetParam(), Version::k134);
  // Not a query:
  Message resp = Message::ResponseFor(Message::Query(1, "x.y"));
  EXPECT_FALSE(t.proxy->AcceptClientQuery(dns::Encode(resp).value()).ok());
  // Garbage:
  EXPECT_FALSE(t.proxy->AcceptClientQuery(util::Bytes{1, 2}).ok());
  // Good:
  EXPECT_TRUE(t.proxy->AcceptClientQuery(QueryWire(2, "ok.example")).ok());
}

TEST_P(ProxyTest, CanaryBuildAbortsInsteadOfHijack) {
  Target t = MakeTarget(GetParam(), Version::k134, ProtectionConfig::All(), 9);
  Message query = Message::Query(0x42, "victim.example");
  auto labels = dns::JunkLabels(1200);
  ASSERT_TRUE(labels.ok());
  Message evil = dns::MaliciousAResponse(query, labels.value());
  ProxyOutcome outcome = RoundTrip(t, query, evil);
  // On VARM the junk also trips the parse_rr pointer slots (a crash in
  // parse_rr) before the canary check; either way, no hijack.
  EXPECT_TRUE(outcome.kind == Kind::kAbort || outcome.kind == Kind::kCrash)
      << outcome.ToString();
}

INSTANTIATE_TEST_SUITE_P(BothArchs, ProxyTest,
                         ::testing::Values(Arch::kVX86, Arch::kVARM),
                         [](const auto& info) {
                           return info.param == Arch::kVX86 ? "vx86" : "varm";
                         });

}  // namespace
}  // namespace connlab::connman

namespace connlab::connman {
namespace {

using dns::Message;
using isa::Arch;
using loader::Boot;
using loader::ProtectionConfig;
using Kind = ProxyOutcome::Kind;

// The guest-interpreted copy loop (connman.copy_label) must be outcome-
// equivalent to the host-side reference implementation in every regime.
class GuestCopyTest : public ::testing::TestWithParam<Arch> {};

TEST_P(GuestCopyTest, BenignOutcomeIdenticalInBothModes) {
  for (bool guest : {false, true}) {
    auto sys = Boot(GetParam(), ProtectionConfig::None(), 4).value();
    DnsProxy proxy(*sys, Version::k134);
    proxy.set_guest_copy(guest);
    Message query = Message::Query(0x42, "host.example");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    Message response = Message::ResponseFor(query);
    response.answers.push_back(dns::MakeA("host.example", "9.9.9.9", 60));
    auto outcome = proxy.HandleServerResponse(dns::Encode(response).value());
    EXPECT_EQ(outcome.kind, Kind::kParsedOk) << "guest=" << guest;
    EXPECT_EQ(outcome.cached.size(), 1u);
  }
}

TEST_P(GuestCopyTest, BufferContentsIdenticalInBothModes) {
  util::Bytes images[2];
  for (int mode = 0; mode < 2; ++mode) {
    auto sys = Boot(GetParam(), ProtectionConfig::None(), 4).value();
    DnsProxy proxy(*sys, Version::k134);
    proxy.set_guest_copy(mode == 1);
    Message query = Message::Query(0x42, "abc.example.net");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    Message response = Message::ResponseFor(query);
    response.answers.push_back(dns::MakeA("abc.example.net", "9.9.9.9", 60));
    auto outcome = proxy.HandleServerResponse(dns::Encode(response).value());
    ASSERT_EQ(outcome.kind, Kind::kParsedOk);
    const mem::GuestAddr fb = FrameBase(sys->layout, proxy.frame());
    images[mode] = sys->space.DebugRead(fb, 64).value();
  }
  EXPECT_EQ(images[0], images[1]);
  // And the expanded name really is in the buffer (interleaved form).
  EXPECT_EQ(images[1][0], 3u);  // len("abc")
  EXPECT_EQ(images[1][1], 'a');
}

TEST_P(GuestCopyTest, DosCrashIdenticalInBothModes) {
  for (bool guest : {false, true}) {
    auto sys = Boot(GetParam(), ProtectionConfig::None(), 4).value();
    DnsProxy proxy(*sys, Version::k134);
    proxy.set_guest_copy(guest);
    Message query = Message::Query(0x42, "victim.example");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    auto labels = dns::JunkLabels(4000).value();
    auto outcome = proxy.HandleServerResponse(
        dns::Encode(dns::MaliciousAResponse(query, labels)).value());
    EXPECT_EQ(outcome.kind, Kind::kCrash) << "guest=" << guest;
    ASSERT_TRUE(outcome.stop.fault.has_value()) << "guest=" << guest;
    EXPECT_EQ(outcome.stop.fault->kind, mem::AccessKind::kWrite);
    if (guest) {
      // The fault comes from the interpreted strb inside copy_label: the
      // stop pc sits inside the routine, not at a synthesized symbol.
      const auto copy_fn = sys->Sym("connman.copy_label").value();
      EXPECT_GE(outcome.stop.pc, copy_fn);
      EXPECT_LT(outcome.stop.pc, copy_fn + 0x40);
    }
  }
}

TEST_P(GuestCopyTest, GuestModeIsDefaultAndTogglable) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 4).value();
  DnsProxy proxy(*sys, Version::k134);
  EXPECT_TRUE(proxy.guest_copy());
  proxy.set_guest_copy(false);
  EXPECT_FALSE(proxy.guest_copy());
}

INSTANTIATE_TEST_SUITE_P(BothArchs, GuestCopyTest,
                         ::testing::Values(Arch::kVX86, Arch::kVARM),
                         [](const auto& info) {
                           return info.param == Arch::kVX86 ? "vx86" : "varm";
                         });

}  // namespace
}  // namespace connlab::connman
