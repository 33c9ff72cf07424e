// §V adaptation tests: the Connman exploit machinery re-targeted to
// minimasq (DNS delivery, different geometry) and httpcamd (HTTP delivery).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/adapt/camstored.hpp"
#include "src/adapt/resolvd.hpp"
#include "src/adapt/retarget.hpp"

#include "src/exploit/rop_arm.hpp"
#include "src/dns/craft.hpp"
#include "src/exploit/generator.hpp"

namespace connlab::adapt {
namespace {

using isa::Arch;
using loader::ProtectionConfig;
using Kind = ServiceOutcome::Kind;

TEST(Minimasq, BenignReplyIsProcessed) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  Minimasq service(*sys);
  dns::Message query = dns::Message::Query(0x21, "host.example");
  ASSERT_TRUE(service.ForwardQuery(dns::Encode(query).value()).ok());
  dns::Message response = dns::Message::ResponseFor(query);
  response.answers.push_back(dns::MakeA("host.example", "1.2.3.4"));
  auto outcome = service.HandleReply(dns::Encode(response).value());
  EXPECT_EQ(outcome.kind, Kind::kOk) << outcome.detail;
}

TEST(Minimasq, RejectsUnsolicitedReplies) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  Minimasq service(*sys);
  dns::Message response =
      dns::Message::ResponseFor(dns::Message::Query(0x99, "x.example"));
  auto outcome = service.HandleReply(dns::Encode(response).value());
  EXPECT_EQ(outcome.kind, Kind::kRejected);
}

TEST(Minimasq, SmallerBufferMeansSmallerRetOffset) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  Minimasq service(*sys);
  EXPECT_EQ(service.ret_offset(), 512u + 24 + 16);
  auto sys_arm = loader::Boot(Arch::kVARM, ProtectionConfig::None(), 1).value();
  Minimasq service_arm(*sys_arm);
  EXPECT_EQ(service_arm.ret_offset(), 512u + 24 + 32);
}

TEST(Minimasq, OversizedNameCrashes) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  Minimasq service(*sys);
  dns::Message query = dns::Message::Query(0x22, "victim.example");
  ASSERT_TRUE(service.ForwardQuery(dns::Encode(query).value()).ok());
  auto labels = dns::JunkLabels(4000);
  ASSERT_TRUE(labels.ok());
  auto evil = dns::MaliciousAResponse(query, labels.value());
  auto outcome = service.HandleReply(dns::Encode(evil).value());
  EXPECT_EQ(outcome.kind, Kind::kCrash);
}

// The size signal is the expansion loop's own count: the label bytes it
// wrote, 0 when the reply never reached the answer name.
TEST(Minimasq, ReportsTheBytesItsExpansionWrote) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  Minimasq service(*sys);
  dns::Message query = dns::Message::Query(0x23, "host.example");
  ASSERT_TRUE(service.ForwardQuery(dns::Encode(query).value()).ok());
  dns::Message response = dns::Message::ResponseFor(query);
  response.answers.push_back(dns::MakeA("host.example", "1.2.3.4"));
  auto benign = service.HandleReply(dns::Encode(response).value());
  EXPECT_EQ(benign.kind, Kind::kOk) << benign.detail;
  EXPECT_EQ(benign.bytes_written, 13u);  // 4 "host" + 7 "example" + 2 lengths
  EXPECT_FALSE(benign.overflowed);

  ASSERT_TRUE(service.ForwardQuery(dns::Encode(query).value()).ok());
  auto labels = dns::JunkLabels(700);
  ASSERT_TRUE(labels.ok());
  auto evil = service.HandleReply(
      dns::Encode(dns::MaliciousAResponse(query, labels.value())).value());
  EXPECT_GT(evil.bytes_written, Minimasq::kBufSize);
  EXPECT_TRUE(evil.overflowed);

  dns::Message stray =
      dns::Message::ResponseFor(dns::Message::Query(0x99, "x.example"));
  stray.answers.push_back(dns::MakeA("x.example", "1.2.3.4"));
  auto rejected = service.HandleReply(dns::Encode(stray).value());
  EXPECT_EQ(rejected.kind, Kind::kRejected);
  EXPECT_EQ(rejected.bytes_written, 0u);
}

class AdaptMatrix
    : public ::testing::TestWithParam<std::tuple<Arch, int>> {};

TEST_P(AdaptMatrix, MinimasqFallsToTheRetargetedExploit) {
  const Arch arch = std::get<0>(GetParam());
  const ProtectionConfig prot =
      std::get<1>(GetParam()) == 0   ? ProtectionConfig::None()
      : std::get<1>(GetParam()) == 1 ? ProtectionConfig::WxOnly()
                                     : ProtectionConfig::WxAslr();
  auto result = AttackMinimasq(arch, prot);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().shell) << result.value().ToString();
}

TEST_P(AdaptMatrix, HttpCamdFallsToTheRetargetedExploit) {
  const Arch arch = std::get<0>(GetParam());
  const ProtectionConfig prot =
      std::get<1>(GetParam()) == 0   ? ProtectionConfig::None()
      : std::get<1>(GetParam()) == 1 ? ProtectionConfig::WxOnly()
                                     : ProtectionConfig::WxAslr();
  auto result = AttackHttpCamd(arch, prot);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().shell) << result.value().ToString();
}

std::string AdaptCaseName(
    const ::testing::TestParamInfo<std::tuple<Arch, int>>& info) {
  std::string name = std::get<0>(info.param) == Arch::kVX86 ? "vx86" : "varm";
  static constexpr const char* kLevels[] = {"none", "wx", "wx_aslr"};
  return name + "_" + kLevels[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    ArchByLevel, AdaptMatrix,
    ::testing::Combine(::testing::Values(Arch::kVX86, Arch::kVARM),
                       ::testing::Values(0, 1, 2)),
    AdaptCaseName);

TEST(HttpCamd, BenignRequestsServed) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  HttpCamd camd(*sys);
  auto outcome = camd.HandleRequest(util::BytesOf("GET /status HTTP/1.0\r\n\r\n"));
  EXPECT_EQ(outcome.kind, Kind::kOk);
  EXPECT_NE(camd.last_response().find("200 OK"), std::string::npos);
}

TEST(HttpCamd, MalformedRequestsRejected) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  HttpCamd camd(*sys);
  EXPECT_EQ(camd.HandleRequest(util::BytesOf("BREW /tea HTCPCP/1.0\r\n\r\n")).kind,
            Kind::kRejected);
  util::Bytes no_clen = util::BytesOf("POST /x HTTP/1.0\r\n\r\nbody");
  EXPECT_EQ(camd.HandleRequest(no_clen).kind, Kind::kRejected);
}

TEST(HttpCamd, SmallBodyIsFine) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  HttpCamd camd(*sys);
  auto request = HttpCamd::WrapInRequest(util::BytesOf("name=cam1"));
  auto outcome = camd.HandleRequest(request);
  EXPECT_EQ(outcome.kind, Kind::kOk) << outcome.detail;
}

TEST(HttpCamd, HugeBodyCrashes) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  HttpCamd camd(*sys);
  util::Bytes body(4000, 0x41);
  auto outcome = camd.HandleRequest(HttpCamd::WrapInRequest(body));
  EXPECT_EQ(outcome.kind, Kind::kCrash);
}

TEST(HttpCamd, BodyBytesAreVerbatimNoInterleaving) {
  // The HTTP vector has no label-length interleaving: the ret slot receives
  // exactly the body word (checked by planting a recognisable crash value).
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  HttpCamd camd(*sys);
  util::Bytes body(camd.ret_offset() + 4, 0x00);
  body[camd.ret_offset() + 0] = 0x44;
  body[camd.ret_offset() + 1] = 0x33;
  body[camd.ret_offset() + 2] = 0x22;
  body[camd.ret_offset() + 3] = 0x11;
  auto outcome = camd.HandleRequest(HttpCamd::WrapInRequest(body));
  EXPECT_EQ(outcome.kind, Kind::kCrash);
  EXPECT_EQ(outcome.stop.pc, 0x11223344u);
}

// Size signal: the body bytes copied; gradient: the claim, clamped to 32
// bits, since the copy saturates at whichever half is shorter.
TEST(HttpCamd, ReportsTheBodyCopyAndTheClaim) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  HttpCamd camd(*sys);
  auto get =
      camd.HandleRequest(util::BytesOf("GET /status HTTP/1.0\r\n\r\n"));
  EXPECT_EQ(get.bytes_written, 0u);
  EXPECT_EQ(get.gradient, 0u);

  auto small = camd.HandleRequest(
      HttpCamd::WrapInRequest(util::BytesOf("name=cam1")));
  EXPECT_EQ(small.bytes_written, 9u);
  EXPECT_EQ(small.gradient, 9u);
  EXPECT_FALSE(small.overflowed);

  auto short_body = camd.HandleRequest(util::BytesOf(
      "POST /x HTTP/1.0\r\nContent-Length: 4000\r\n\r\nabc"));
  EXPECT_EQ(short_body.bytes_written, 3u);
  EXPECT_EQ(short_body.gradient, 4000u);
  EXPECT_FALSE(short_body.overflowed);

  auto huge_claim = camd.HandleRequest(util::BytesOf(
      "POST /x HTTP/1.0\r\nContent-Length: 99999999999\r\n\r\nabc"));
  EXPECT_EQ(huge_claim.bytes_written, 3u);
  EXPECT_EQ(huge_claim.gradient, 0xFFFFFFFFu);

  auto crash =
      camd.HandleRequest(HttpCamd::WrapInRequest(util::Bytes(4000, 0x41)));
  EXPECT_EQ(crash.kind, Kind::kCrash);
  EXPECT_EQ(crash.bytes_written, 4000u);
  EXPECT_TRUE(crash.overflowed);
}

// ------------------------------------------------------ bug-class zoo ----

// The out-of-bounds variant: the pointer's target lies past the receive
// segment, so the re-read after the first hop faults.
TEST(Zoo, ResolvdWildPointerReadsOutOfBoundsOnBothArches) {
  for (const Arch arch : {Arch::kVX86, Arch::kVARM}) {
    SCOPED_TRACE(std::string(isa::ArchName(arch)));
    auto sys = loader::Boot(arch, ProtectionConfig::None(), 3000).value();
    Resolvd service(*sys);
    auto outcome = service.HandleQuery(Resolvd::WildPointerQuery(0x0bad));
    EXPECT_EQ(outcome.kind, Kind::kCrash) << outcome.detail;
    ASSERT_TRUE(outcome.stop.fault.has_value());
    EXPECT_EQ(outcome.stop.fault->kind, mem::AccessKind::kRead);
    EXPECT_EQ(outcome.gradient, 1u);  // frames pushed: the one pointer hop
    EXPECT_EQ(outcome.bytes_written, 0u);
    EXPECT_EQ(outcome.detail,
              "compression pointer read out of bounds at offset 16368");
  }
}

TEST(Zoo, ResolvdReportsExpandedBytesAndDepth) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  Resolvd service(*sys);
  auto outcome = service.HandleQuery(
      dns::Encode(dns::Message::Query(0x7264, "printer.office.lan")).value());
  EXPECT_EQ(outcome.kind, Kind::kOk) << outcome.detail;
  EXPECT_EQ(outcome.bytes_written, 19u);
  EXPECT_EQ(outcome.gradient, 3u);
  EXPECT_FALSE(outcome.overflowed);
  EXPECT_EQ(outcome.detail, "name expanded: 19 bytes in 3 steps");
}

// Every PUT reports its size headers as sent, even one rejected for its
// path: the copy length, and the claimed record size (0 when absent, not
// the body-length default the allocation falls back to).
TEST(Zoo, CamstoredReportsTheSizeHeadersOfEveryPut) {
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 1).value();
  Camstored cam(*sys);
  auto stored =
      cam.HandleRequest(Camstored::WrapInPut(util::Bytes(56, 'a'), "a", 64));
  EXPECT_EQ(stored.kind, Kind::kOk) << stored.detail;
  EXPECT_EQ(stored.bytes_written, 56u);
  EXPECT_EQ(stored.gradient, 64u);
  EXPECT_FALSE(stored.overflowed);

  auto wrong_path = cam.HandleRequest(util::BytesOf(
      "PUT /other/x HTTP/1.0\r\nX-Record-Size: 8\r\n"
      "Content-Length: 20\r\n\r\n"));
  EXPECT_EQ(wrong_path.kind, Kind::kRejected);
  EXPECT_EQ(wrong_path.bytes_written, 20u);
  EXPECT_EQ(wrong_path.gradient, 8u);
  EXPECT_TRUE(wrong_path.overflowed);

  auto no_size = cam.HandleRequest(util::BytesOf(
      "PUT /cache/b HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello"));
  EXPECT_EQ(no_size.kind, Kind::kOk) << no_size.detail;
  EXPECT_EQ(no_size.bytes_written, 5u);
  EXPECT_EQ(no_size.gradient, 0u);
  EXPECT_FALSE(no_size.overflowed);

  auto deleted = cam.HandleRequest(Camstored::WrapInDelete("a"));
  EXPECT_EQ(deleted.kind, Kind::kOk) << deleted.detail;
  EXPECT_EQ(deleted.bytes_written, 0u);
}

TEST(Zoo, ResolvdPointerLoopDosOnBothArches) {
  // Control-flow-free: the crash IS the payoff, under every protection.
  for (const Arch arch : {Arch::kVX86, Arch::kVARM}) {
    for (const ProtectionConfig& prot :
         {ProtectionConfig::None(), ProtectionConfig::WxAslr()}) {
      auto result = AttackResolvd(arch, prot);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_FALSE(result.value().shell) << result.value().ToString();
      EXPECT_EQ(result.value().kind, Kind::kCrash)
          << result.value().ToString();
      EXPECT_EQ(result.value().technique,
                exploit::Technique::kPointerLoopDos);
    }
  }
}

TEST(Zoo, CamstoredUnlinkShellsWithoutHeapDefenses) {
  for (const Arch arch : {Arch::kVX86, Arch::kVARM}) {
    auto result = AttackCamstored(arch, ProtectionConfig::None());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().shell) << result.value().ToString();
    EXPECT_EQ(result.value().technique,
              exploit::Technique::kHeapUnlinkWrite);
  }
}

TEST(Zoo, CamstoredDegradesToDosUnderWx) {
  // W^X denies the heap-resident shellcode: the unlink write still lands,
  // but the pivot fetches from non-executable memory.
  auto result = AttackCamstored(Arch::kVX86, ProtectionConfig::WxAslr());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().shell) << result.value().ToString();
  EXPECT_EQ(result.value().kind, Kind::kCrash);
  EXPECT_EQ(DiagnoseZooFailure(exploit::Technique::kHeapUnlinkWrite,
                               ProtectionConfig::WxAslr(), Kind::kCrash),
            exploit::FailureCause::kNxHeap);
}

TEST(Zoo, CamstoredBlockedByHeapIntegrity) {
  ProtectionConfig prot = ProtectionConfig::None();
  prot.heap_integrity = true;
  auto result = AttackCamstored(Arch::kVX86, prot);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().shell) << result.value().ToString();
  EXPECT_EQ(result.value().kind, Kind::kAbort) << result.value().ToString();
  EXPECT_EQ(DiagnoseZooFailure(exploit::Technique::kHeapUnlinkWrite, prot,
                               Kind::kAbort),
            exploit::FailureCause::kHeapIntegrityTrap);
}

TEST(Adapt, ResultRenderingMentionsServiceAndTechnique) {
  auto result = AttackMinimasq(Arch::kVARM, ProtectionConfig::WxAslr());
  ASSERT_TRUE(result.ok());
  const std::string text = result.value().ToString();
  EXPECT_NE(text.find("minimasq"), std::string::npos);
  EXPECT_NE(text.find("rop-memcpy-chain"), std::string::npos);
  EXPECT_NE(text.find("root-shell"), std::string::npos);
}

TEST(Adapt, MinimasqTakesFullBinShChain) {
  // minimasq has no parse_rr clobber, so the full "/bin/sh" chain that
  // dies on Connman-ARM (§III-C2) works here — evidence the 3-call limit
  // was a property of the target, not of the method.
  auto sys = loader::Boot(Arch::kVARM, ProtectionConfig::WxAslr(), 3).value();
  Minimasq service(*sys);
  auto profile = service.ProfileFor();
  ASSERT_TRUE(profile.ok());
  exploit::ArmRopOptions options;
  options.copy_str = "/bin/sh";
  auto image = exploit::BuildArmRopChain(profile.value(), options);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto labels = dns::CutIntoLabels(image.value());
  ASSERT_TRUE(labels.ok());

  dns::Message query = dns::Message::Query(0x31, "victim.example");
  ASSERT_TRUE(service.ForwardQuery(dns::Encode(query).value()).ok());
  auto evil = dns::MaliciousAResponse(query, labels.value());
  auto outcome = service.HandleReply(dns::Encode(evil).value());
  EXPECT_EQ(outcome.kind, Kind::kShell) << outcome.detail;
}

// The one bridge from zoo-service outcomes to the proxy vocabulary, used by
// the attack matrix and the victim pool alike: every service kind maps to
// its proxy counterpart.
TEST(Adapt, OutcomeBridgeMapsEveryServiceKind) {
  using Proxy = connman::ProxyOutcome::Kind;
  constexpr std::pair<Kind, Proxy> kTable[] = {
      {Kind::kOk, Proxy::kParsedOk},
      {Kind::kRejected, Proxy::kDroppedInvalid},
      {Kind::kCrash, Proxy::kCrash},
      {Kind::kShell, Proxy::kShell},
      {Kind::kExec, Proxy::kExec},
      {Kind::kAbort, Proxy::kAbort},
      {Kind::kOther, Proxy::kOther},
  };
  for (const auto& [service, proxy] : kTable) {
    SCOPED_TRACE(std::string(ServiceOutcomeKindName(service)));
    EXPECT_EQ(ToProxyOutcomeKind(service), proxy);
  }
}

}  // namespace
}  // namespace connlab::adapt
