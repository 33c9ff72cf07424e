// Property-based suites: randomised sweeps over the invariants the system
// must hold — the patched build never crashes, random garbage never spawns
// shells, the label cutter is exact, ASLR draws are high-entropy.
#include <gtest/gtest.h>

#include "src/connman/dnsproxy.hpp"
#include "src/dns/craft.hpp"
#include "src/loader/boot.hpp"
#include "src/util/rng.hpp"

namespace connlab {
namespace {

using connman::DnsProxy;
using connman::ProxyOutcome;
using connman::Version;
using isa::Arch;
using loader::Boot;
using loader::ProtectionConfig;
using Kind = ProxyOutcome::Kind;

// ----------------------------------------------------------- fuzzing ----

/// Builds a junk-but-deliverable response: correct id/flags/question echo
/// (so it reaches the parser), then `extra` random bytes as the answer
/// section with a random answer count.
util::Bytes FuzzResponse(const dns::Message& query, util::Rng& rng) {
  util::ByteWriter w;
  w.WriteU16BE(query.header.id);
  w.WriteU16BE(0x8180);
  w.WriteU16BE(1);
  w.WriteU16BE(static_cast<std::uint16_t>(1 + rng.NextBelow(3)));
  w.WriteU16BE(0);
  w.WriteU16BE(0);
  (void)dns::EncodeName(w, query.questions[0].name);
  w.WriteU16BE(static_cast<std::uint16_t>(query.questions[0].type));
  w.WriteU16BE(static_cast<std::uint16_t>(query.questions[0].klass));
  const std::size_t extra = 10 + rng.NextBelow(5000);
  w.WriteBytes(rng.NextBytes(extra));
  return std::move(w).Take();
}

class FuzzSweep : public ::testing::TestWithParam<std::tuple<Arch, int>> {};

TEST_P(FuzzSweep, PatchedBuildNeverCrashesOrSpawns) {
  const Arch arch = std::get<0>(GetParam());
  util::Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())) * 7919 + 3);
  auto sys = Boot(arch, ProtectionConfig::None(), 5).value();
  DnsProxy proxy(*sys, Version::k135);
  for (int i = 0; i < 40; ++i) {
    dns::Message query = dns::Message::Query(
        static_cast<std::uint16_t>(rng.NextU32()), "fuzz.example");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    ProxyOutcome outcome = proxy.HandleServerResponse(FuzzResponse(query, rng));
    EXPECT_NE(outcome.kind, Kind::kCrash) << i << ": " << outcome.ToString();
    EXPECT_NE(outcome.kind, Kind::kShell) << i << ": " << outcome.ToString();
  }
  EXPECT_EQ(proxy.stats().crashes, 0u);
}

TEST_P(FuzzSweep, VulnerableBuildNeverSpawnsShellsFromRandomJunk) {
  const Arch arch = std::get<0>(GetParam());
  util::Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())) * 104729 + 17);
  auto sys = Boot(arch, ProtectionConfig::None(), 5).value();
  DnsProxy proxy(*sys, Version::k134);
  for (int i = 0; i < 40; ++i) {
    dns::Message query = dns::Message::Query(
        static_cast<std::uint16_t>(rng.NextU32()), "fuzz.example");
    ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
    ProxyOutcome outcome = proxy.HandleServerResponse(FuzzResponse(query, rng));
    // Random junk may crash 1.34 (the CVE) but must not spawn a shell:
    // shells require a *crafted* payload.
    EXPECT_NE(outcome.kind, Kind::kShell) << i << ": " << outcome.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzSweep,
    ::testing::Combine(::testing::Values(Arch::kVX86, Arch::kVARM),
                       ::testing::Range(0, 5)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Arch::kVX86 ? "vx86"
                                                                : "varm") +
             "_s" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------ cutter property ----

class CutterSweep : public ::testing::TestWithParam<int> {};

TEST_P(CutterSweep, ExpansionMatchesImageAtEveryRequiredByte) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 1);
  const std::size_t size = 200 + rng.NextBelow(2000);
  dns::PayloadImage image(size);
  // Scatter random required words, at most one per 16-byte window so the
  // image stays cuttable.
  for (std::size_t base = 16; base + 20 < size; base += 16) {
    if (!rng.NextBool(0.6)) continue;
    const std::size_t off = base + rng.NextBelow(12);
    ASSERT_TRUE(image.SetWord(off, rng.NextU32()).ok());
  }
  auto labels = dns::CutIntoLabels(image);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  const util::Bytes expanded = dns::ExpandLabels(labels.value());
  ASSERT_EQ(expanded.size(), size + 1);
  EXPECT_EQ(expanded.back(), 0);
  for (std::size_t i = 0; i < size; ++i) {
    if (image.required(i)) {
      EXPECT_EQ(expanded[i], image.at(i)) << "offset " << i;
    }
  }
  // All labels are encodable (1..63 bytes).
  for (const auto& label : labels.value()) {
    EXPECT_GE(label.size(), 1u);
    EXPECT_LE(label.size(), dns::kMaxLabelLen);
  }
}

TEST_P(CutterSweep, WireRoundTripPreservesLabels) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 7);
  dns::PayloadImage image(100 + rng.NextBelow(400));
  auto labels = dns::CutIntoLabels(image);
  ASSERT_TRUE(labels.ok());
  util::ByteWriter w;
  ASSERT_TRUE(dns::EncodeLabels(w, labels.value()).ok());
  // Re-walk the wire: the label structure survives.
  std::size_t pos = 0;
  std::size_t count = 0;
  while (w.bytes()[pos] != 0) {
    pos += 1 + w.bytes()[pos];
    ASSERT_LT(pos, w.bytes().size());
    ++count;
  }
  EXPECT_EQ(count, labels.value().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutterSweep, ::testing::Range(0, 12));

// --------------------------------------------------- overflow threshold ----

class ThresholdSweep : public ::testing::TestWithParam<Arch> {};

TEST_P(ThresholdSweep, ExpansionBoundaryBehaviour) {
  // Sizes straddling the 1024-byte buffer: the patched build accepts up to
  // its bound and rejects past it; the vulnerable build accepts everything
  // and silently corrupts the frame beyond.
  for (std::size_t size : {512u, 1000u, 1022u, 1100u}) {
    auto sys = Boot(GetParam(), ProtectionConfig::None(), 9).value();
    DnsProxy patched(*sys, Version::k135);
    dns::Message query = dns::Message::Query(0x77, "t.example");
    ASSERT_TRUE(patched.AcceptClientQuery(dns::Encode(query).value()).ok());
    auto labels = dns::JunkLabels(size);
    ASSERT_TRUE(labels.ok());
    auto outcome = patched.HandleServerResponse(
        dns::Encode(dns::MaliciousAResponse(query, labels.value())).value());
    if (size <= 1022) {
      EXPECT_EQ(outcome.kind, Kind::kParsedOk) << size;
    } else {
      EXPECT_EQ(outcome.kind, Kind::kParseError) << size;
    }
    EXPECT_FALSE(outcome.overflowed);
  }
}

TEST_P(ThresholdSweep, VulnerableBuildOverflowIsArchDependent) {
  // A mild overflow (1040 bytes) stays short of the saved return address:
  // VX86 shrugs it off (nothing it clobbers is checked); VARM trips the
  // cleanup pointer slots — the quirk the paper's ARM exploits must
  // neutralise with NULLs.
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 9).value();
  DnsProxy proxy(*sys, Version::k134);
  dns::Message query = dns::Message::Query(0x78, "t.example");
  ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
  auto labels = dns::JunkLabels(1040);
  ASSERT_TRUE(labels.ok());
  auto outcome = proxy.HandleServerResponse(
      dns::Encode(dns::MaliciousAResponse(query, labels.value())).value());
  EXPECT_TRUE(outcome.overflowed);
  if (GetParam() == Arch::kVX86) {
    EXPECT_EQ(outcome.kind, Kind::kParsedOk) << outcome.ToString();
  } else {
    EXPECT_EQ(outcome.kind, Kind::kCrash) << outcome.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(BothArchs, ThresholdSweep,
                         ::testing::Values(Arch::kVX86, Arch::kVARM),
                         [](const auto& info) {
                           return info.param == Arch::kVX86 ? "vx86" : "varm";
                         });

// ------------------------------------------------------------ ASLR props ----

TEST(AslrProps, DrawsAreHighEntropyAcrossSeeds) {
  std::set<mem::GuestAddr> libc_bases;
  std::set<mem::GuestAddr> stack_tops;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    auto sys = Boot(Arch::kVARM, ProtectionConfig::WxAslr(), seed).value();
    libc_bases.insert(sys->layout.libc_base);
    stack_tops.insert(sys->layout.stack_top);
  }
  // With 12 bits of entropy, 64 draws should be (nearly) all distinct.
  EXPECT_GE(libc_bases.size(), 60u);
  EXPECT_GE(stack_tops.size(), 60u);
}

TEST(AslrProps, EntropyKnobNarrowsTheRange) {
  ProtectionConfig low = ProtectionConfig::WxAslr();
  low.aslr_entropy_bits = 2;  // only 4 possible slides
  std::set<mem::GuestAddr> bases;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    auto sys = Boot(Arch::kVX86, low, seed).value();
    bases.insert(sys->layout.libc_base);
  }
  EXPECT_LE(bases.size(), 4u);
  EXPECT_GE(bases.size(), 2u);
}

// --------------------------------------------------------- cache stress ----

TEST(CacheProps, NeverExceedsCapacityUnderChurn) {
  connman::Cache cache(32);
  util::Rng rng(555);
  for (int i = 0; i < 2000; ++i) {
    const std::string host = "h" + std::to_string(rng.NextBelow(100));
    util::Bytes rdata = rng.NextBytes(4);
    cache.Insert(host, rdata, false, static_cast<std::uint32_t>(rng.NextBelow(300)),
                 static_cast<std::uint64_t>(i));
    ASSERT_LE(cache.size(), 32u);
  }
  // Lookups never return expired entries.
  const std::uint64_t now = 5000;
  for (int h = 0; h < 100; ++h) {
    for (const auto& entry : cache.Lookup("h" + std::to_string(h), now)) {
      EXPECT_GT(entry.expires_at, now);
    }
  }
}

}  // namespace
}  // namespace connlab
