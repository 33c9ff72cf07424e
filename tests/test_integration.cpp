// Cross-module integration tests: daemon longevity across mixed traffic,
// the compression-amplified DoS, roaming sequences, and end-to-end flows
// that span net + connman + exploit + attack.
#include <gtest/gtest.h>

#include "src/attack/scenario.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/dns/craft.hpp"
#include "src/exploit/generator.hpp"
#include "src/exploit/profile.hpp"
#include "src/loader/boot.hpp"
#include "src/net/dns_client.hpp"
#include "src/net/pineapple.hpp"

namespace connlab {
namespace {

using connman::DnsProxy;
using connman::ProxyOutcome;
using connman::Version;
using isa::Arch;
using loader::Boot;
using loader::ProtectionConfig;
using Kind = ProxyOutcome::Kind;

// ------------------------------------------------ compression bomb ----

TEST(CompressionBomb, SmallWireLargeExpansion) {
  dns::Message query = dns::Message::Query(0x42, "victim.example");
  auto wire = dns::CompressionBombResponse(query, 4);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  // Four 63-byte labels + pointer: the packet itself stays compact.
  EXPECT_LT(wire.value().size(), 350u);
}

TEST(CompressionBomb, Crashes134OnBothArchs) {
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    auto sys = Boot(arch, ProtectionConfig::None(), 3).value();
    DnsProxy proxy(*sys, Version::k134);
    dns::Message query = dns::Message::Query(0x42, "victim.example");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    auto wire = dns::CompressionBombResponse(query, 4);
    ASSERT_TRUE(wire.ok());
    auto outcome = proxy.HandleServerResponse(wire.value());
    // ~10 hops x 4 labels x 64 bytes ≈ 2.8 KiB of expansion from a ~300
    // byte packet: straight off the top of the stack.
    EXPECT_EQ(outcome.kind, Kind::kCrash) << outcome.ToString();
    EXPECT_GT(outcome.name_bytes_written, 1024u);
  }
}

TEST(CompressionBomb, RejectedBy135) {
  auto sys = Boot(Arch::kVARM, ProtectionConfig::None(), 3).value();
  DnsProxy proxy(*sys, Version::k135);
  dns::Message query = dns::Message::Query(0x42, "victim.example");
  ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
  auto wire = dns::CompressionBombResponse(query, 4);
  ASSERT_TRUE(wire.ok());
  auto outcome = proxy.HandleServerResponse(wire.value());
  EXPECT_EQ(outcome.kind, Kind::kParseError) << outcome.ToString();
}

TEST(CompressionBomb, SmallRunIsHarmlessEitherVersion) {
  // One 63-byte label re-expanded <=10 times stays within ~640 bytes plus
  // length bytes: under the buffer size, so both versions simply parse a
  // (weird) name. No crash — the amplification factor is what matters.
  for (Version version : {Version::k134, Version::k135}) {
    auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 3).value();
    DnsProxy proxy(*sys, version);
    dns::Message query = dns::Message::Query(0x42, "victim.example");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    auto wire = dns::CompressionBombResponse(query, 1);
    ASSERT_TRUE(wire.ok());
    auto outcome = proxy.HandleServerResponse(wire.value());
    EXPECT_NE(outcome.kind, Kind::kCrash) << outcome.ToString();
  }
}

TEST(CompressionBomb, ArgumentValidation) {
  dns::Message query = dns::Message::Query(1, "a.b");
  EXPECT_FALSE(dns::CompressionBombResponse(query, 0).ok());
  EXPECT_FALSE(dns::CompressionBombResponse(query, 100).ok());
  dns::Message no_question;
  EXPECT_FALSE(dns::CompressionBombResponse(no_question, 4).ok());
}

// ----------------------------------------------------- daemon longevity ----

TEST(Longevity, ProxySurvivesMixedHostileTrafficOn135) {
  auto sys = Boot(Arch::kVARM, ProtectionConfig::WxAslr(), 8).value();
  DnsProxy proxy(*sys, Version::k135);
  util::Rng rng(99);
  int benign_ok = 0;
  for (int round = 0; round < 30; ++round) {
    const auto id = static_cast<std::uint16_t>(0x100 + round);
    dns::Message query = dns::Message::Query(id, "host.example");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    switch (round % 3) {
      case 0: {  // benign
        dns::Message response = dns::Message::ResponseFor(query);
        response.answers.push_back(dns::MakeA("host.example", "1.2.3.4", 60));
        auto outcome =
            proxy.HandleServerResponse(dns::Encode(response).value());
        benign_ok += outcome.kind == Kind::kParsedOk ? 1 : 0;
        break;
      }
      case 1: {  // oversized junk
        auto labels = dns::JunkLabels(2048 + rng.NextBelow(2048)).value();
        auto evil = dns::MaliciousAResponse(query, labels);
        auto outcome = proxy.HandleServerResponse(dns::Encode(evil).value());
        EXPECT_EQ(outcome.kind, Kind::kParseError);
        break;
      }
      default: {  // compression bomb
        auto wire = dns::CompressionBombResponse(query, 4).value();
        auto outcome = proxy.HandleServerResponse(wire);
        EXPECT_EQ(outcome.kind, Kind::kParseError);
        break;
      }
    }
  }
  EXPECT_EQ(benign_ok, 10);
  EXPECT_EQ(proxy.stats().crashes, 0u);
}

TEST(Longevity, VulnerableProxyStillWorksAfterFailedExploitAttempts) {
  // A wrong-level exploit (code injection vs W^X) crashes the daemon; the
  // device supervisor would restart it. Model: a fresh boot per crash, but
  // non-crashing failures (dropped packets) must not poison later traffic.
  auto sys = Boot(Arch::kVX86, ProtectionConfig::WxOnly(), 8).value();
  DnsProxy proxy(*sys, Version::k134);
  // Dropped-invalid hostile packets:
  for (int i = 0; i < 5; ++i) {
    auto outcome = proxy.HandleServerResponse(util::Bytes{0xFF, 0xFF, 0xFF});
    EXPECT_EQ(outcome.kind, Kind::kDroppedInvalid);
  }
  // Traffic still flows:
  dns::Message query = dns::Message::Query(0x31, "still.works");
  ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
  dns::Message response = dns::Message::ResponseFor(query);
  response.answers.push_back(dns::MakeA("still.works", "4.3.2.1", 60));
  EXPECT_EQ(proxy.HandleServerResponse(dns::Encode(response).value()).kind,
            Kind::kParsedOk);
}

// --------------------------------------------------------- full stack ----

TEST(FullStack, VictimRoamsBackAfterPineapplePowersOff) {
  net::Network network;
  net::Radio radio;
  net::LegitDnsServer dns_server("192.168.1.53");
  dns_server.AddRecord("cloud.example", "5.5.5.5");
  network.Attach(dns_server.ip(), &dns_server);
  net::AccessPoint home("HomeWiFi", -60,
                        net::DhcpServer("192.168.1", "192.168.1.1",
                                        dns_server.ip()));
  radio.AddAp(&home);

  auto sys = Boot(Arch::kVARM, ProtectionConfig::WxAslr(), 12).value();
  net::VictimDevice victim(*sys, Version::k135, "HomeWiFi");
  ASSERT_TRUE(victim.JoinWifi(radio, network).ok());

  net::Pineapple pineapple("HomeWiFi", -30);
  pineapple.set_dns_mode(net::FakeDnsServer::Mode::kDos);
  pineapple.PowerOn(radio, network);
  ASSERT_TRUE(victim.JoinWifi(radio, network).ok());
  EXPECT_EQ(victim.lease().dns_server, pineapple.ip());

  // Patched firmware shrugs the payload off...
  ASSERT_TRUE(victim.Lookup(network, "cloud.example").ok());
  network.DeliverAll();
  EXPECT_FALSE(victim.crashed());

  // ...and when the rogue AP disappears the device returns to normal life.
  pineapple.PowerOff(radio, network);
  ASSERT_TRUE(victim.JoinWifi(radio, network).ok());
  EXPECT_EQ(victim.lease().dns_server, dns_server.ip());
  ASSERT_TRUE(victim.Lookup(network, "cloud.example").ok());
  network.DeliverAll();
  ASSERT_FALSE(victim.outcomes().empty());
  EXPECT_EQ(victim.outcomes().back().kind, Kind::kParsedOk);
}

TEST(FullStack, ExploitArtifactsAreDeterministic) {
  // The whole §III pipeline — probe, profile, build, cut — produces
  // byte-identical artifacts across runs (replayability of experiments).
  auto build = [](std::uint64_t seed) {
    auto sys = Boot(Arch::kVARM, ProtectionConfig::WxAslr(), seed).value();
    DnsProxy proxy(*sys, Version::k134);
    exploit::ProfileExtractor extractor(*sys, proxy);
    auto profile = extractor.Extract().value();
    exploit::ExploitGenerator generator(profile);
    return generator.BuildImage(exploit::Technique::kRopMemcpyChain)
        .value()
        .bytes();
  };
  EXPECT_EQ(build(100), build(100));
  EXPECT_EQ(build(100), build(555));  // even across ASLR draws
}

TEST(FullStack, OneExploitResponseAmongBenignTraffic) {
  // The attack scenario the Pineapple creates: a stream of benign
  // responses with exactly one poisoned reply in the middle.
  auto lab = Boot(Arch::kVX86, ProtectionConfig::WxAslr(), 100).value();
  DnsProxy lab_proxy(*lab, Version::k134);
  exploit::ProfileExtractor extractor(*lab, lab_proxy);
  auto profile = extractor.Extract().value();
  exploit::ExploitGenerator generator(profile);

  auto target = Boot(Arch::kVX86, ProtectionConfig::WxAslr(), 31337).value();
  DnsProxy proxy(*target, Version::k134);
  for (int i = 0; i < 5; ++i) {
    dns::Message query =
        dns::Message::Query(static_cast<std::uint16_t>(i), "ok.example");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    dns::Message response = dns::Message::ResponseFor(query);
    response.answers.push_back(dns::MakeA("ok.example", "1.1.1.1", 60));
    EXPECT_EQ(proxy.HandleServerResponse(dns::Encode(response).value()).kind,
              Kind::kParsedOk);
  }
  dns::Message query = dns::Message::Query(0x99, "poisoned.example");
  ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
  auto evil =
      generator.BuildResponse(query, exploit::Technique::kRopMemcpyChain);
  ASSERT_TRUE(evil.ok());
  auto outcome = proxy.HandleServerResponse(dns::Encode(evil.value()).value());
  EXPECT_EQ(outcome.kind, Kind::kShell) << outcome.ToString();
  // The benign cache survived up to the hijack.
  EXPECT_EQ(proxy.cache().Lookup("ok.example", proxy.now() + 1).size(), 1u);
}

TEST(FullStack, ScenarioSeedsProduceDistinctAslrButSameResult) {
  for (std::uint64_t target_seed : {1ull, 2ull, 3ull, 4ull}) {
    attack::ScenarioConfig config;
    config.arch = Arch::kVARM;
    config.prot = ProtectionConfig::WxAslr();
    config.target_seed = target_seed;
    auto result = attack::RunControlledScenario(config);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().shell) << "seed " << target_seed;
  }
}

}  // namespace
}  // namespace connlab
