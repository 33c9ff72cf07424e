// Attack-orchestration tests: the controlled-environment matrix runner,
// the defense rows, and the full remote Pineapple scenario (§III-D).
#include <gtest/gtest.h>

#include "src/attack/matrix.hpp"
#include "src/attack/report.hpp"
#include "src/attack/scenario.hpp"

namespace connlab::attack {
namespace {

using isa::Arch;
using loader::ProtectionConfig;
using Kind = connman::ProxyOutcome::Kind;

TEST(ControlledScenario, ReportsProbeAndPayloadMetrics) {
  ScenarioConfig config;
  config.arch = Arch::kVARM;
  config.prot = ProtectionConfig::WxAslr();
  auto result = RunControlledScenario(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const AttackResult& r = result.value();
  EXPECT_TRUE(r.shell) << r.detail;
  EXPECT_TRUE(r.exploit_available);
  EXPECT_GE(r.probes, 5);            // ARM probing needs the fixup loop
  EXPECT_GT(r.payload_bytes, 1072u); // past the return slot
  EXPECT_GT(r.labels, 16u);          // >1 KiB of 63-byte labels
  EXPECT_GT(r.response_bytes, r.payload_bytes);  // wire adds header/labels
  EXPECT_GT(r.guest_steps, 0u);
}

TEST(ControlledScenario, SixAttackMatrixAllShells) {
  auto results = RunSixAttackMatrix();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), 6u);
  for (const AttackResult& r : results.value()) {
    EXPECT_TRUE(r.shell) << r.RowLabel() << ": " << r.detail;
    EXPECT_EQ(r.OutcomeLabel(), "ROOT SHELL");
  }
}

TEST(ControlledScenario, CrossTechniqueMatrixShowsEscalation) {
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    auto results = RunCrossTechniqueMatrix(arch);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results.value().size(), 9u);
    const auto& rows = results.value();
    // Row layout: technique-major, protection-minor.
    // Code injection: works at none, dies at W^X and W^X+ASLR.
    EXPECT_TRUE(rows[0].shell);
    EXPECT_FALSE(rows[1].shell);
    EXPECT_FALSE(rows[2].shell);
    // libc/gadget technique: works at none+W^X, dies at ASLR.
    EXPECT_TRUE(rows[3].shell);
    EXPECT_TRUE(rows[4].shell);
    EXPECT_FALSE(rows[5].shell);
    // ROP chain: works everywhere.
    EXPECT_TRUE(rows[6].shell);
    EXPECT_TRUE(rows[7].shell);
    EXPECT_TRUE(rows[8].shell);
  }
}

TEST(ControlledScenario, DefenseMatrixStopsEverything) {
  auto results = RunDefenseMatrix();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results.value().size(), 4u);
  for (const AttackResult& r : results.value()) {
    EXPECT_FALSE(r.shell) << r.RowLabel() << ": " << r.detail;
  }
}

TEST(Report, TableContainsEveryRow) {
  auto results = RunSixAttackMatrix();
  ASSERT_TRUE(results.ok());
  const std::string table =
      RenderMatrixTable(results.value(), "six attacks");
  EXPECT_NE(table.find("six attacks"), std::string::npos);
  EXPECT_NE(table.find("vx86"), std::string::npos);
  EXPECT_NE(table.find("varm"), std::string::npos);
  EXPECT_NE(table.find("W^X+ASLR"), std::string::npos);
  EXPECT_NE(table.find("ROOT SHELL"), std::string::npos);
  EXPECT_NE(table.find("rop-memcpy-chain"), std::string::npos);
}

struct RemoteCase {
  Arch arch;
  ProtectionConfig prot;
  std::size_t name;  // index into kRemoteNames (see kRemoteCases)
};

class PineappleTest : public ::testing::TestWithParam<RemoteCase> {};

TEST_P(PineappleTest, FullRemoteChainCompromisesDevice) {
  ScenarioConfig config;
  config.arch = GetParam().arch;
  config.prot = GetParam().prot;
  auto remote = RunPineappleScenario(config);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const RemoteResult& r = remote.value();
  EXPECT_TRUE(r.benign_resolution_before);
  EXPECT_TRUE(r.roamed_to_rogue);
  EXPECT_GE(r.queries_intercepted, 1u);
  EXPECT_TRUE(r.attack.shell) << r.attack.detail;
}

// §III-D: the x86 feasibility check (basic stack smash over the MITM) and
// all three ARM exploits delivered remotely. ctest lists each case by the
// parameter's raw bytes, so the table is zero-filled at namespace scope and
// holds no pointer, like kMatrixCases in tests/test_exploit.cpp.
const char* const kRemoteNames[] = {"x86_smash", "arm_inject", "arm_wx",
                                    "arm_wx_aslr"};
const RemoteCase kRemoteCases[] = {
    {Arch::kVX86, ProtectionConfig::None(), 0},
    {Arch::kVARM, ProtectionConfig::None(), 1},
    {Arch::kVARM, ProtectionConfig::WxOnly(), 2},
    {Arch::kVARM, ProtectionConfig::WxAslr(), 3},
};

INSTANTIATE_TEST_SUITE_P(
    RemoteAttacks, PineappleTest, ::testing::ValuesIn(kRemoteCases),
    [](const auto& info) {
      return std::string(kRemoteNames[info.param.name]);
    });

TEST(PineappleScenario, PatchedFirmwareSurvivesTheChain) {
  ScenarioConfig config;
  config.arch = Arch::kVARM;
  config.prot = ProtectionConfig::WxAslr();
  config.version = connman::Version::k135;
  auto remote = RunPineappleScenario(config);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  // The MITM chain still works (association, interception)...
  EXPECT_TRUE(remote.value().roamed_to_rogue);
  EXPECT_GE(remote.value().queries_intercepted, 1u);
  // ...but the payload bounces off the patched parser.
  EXPECT_FALSE(remote.value().attack.shell);
  EXPECT_EQ(remote.value().attack.kind, Kind::kParseError)
      << remote.value().attack.detail;
}

TEST(PineappleScenario, RenderedReportMentionsKeyFacts) {
  ScenarioConfig config;
  config.arch = Arch::kVARM;
  config.prot = ProtectionConfig::WxAslr();
  auto remote = RunPineappleScenario(config);
  ASSERT_TRUE(remote.ok());
  const std::string report = RenderRemoteResult(remote.value());
  EXPECT_NE(report.find("roamed to rogue AP:       yes"), std::string::npos);
  EXPECT_NE(report.find("ROOT SHELL"), std::string::npos);
}

TEST(ControlledScenario, DosTechniqueOverrideCrashes) {
  ScenarioConfig config;
  config.arch = Arch::kVX86;
  config.prot = ProtectionConfig::WxAslr();
  config.technique = exploit::Technique::kDosCrash;
  auto result = RunControlledScenario(config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().crash);
  EXPECT_FALSE(result.value().shell);
  EXPECT_EQ(result.value().OutcomeLabel(), "crash (DoS)");
}

}  // namespace
}  // namespace connlab::attack

namespace connlab::attack {
namespace {

TEST(CachePoisoning, RedirectsTrafficWithoutMemoryCorruption) {
  // Works against patched 1.35: the §III-D Mirai-style channel needs no
  // overflow at all, only the MITM position.
  ScenarioConfig config;
  config.arch = isa::Arch::kVARM;
  config.prot = loader::ProtectionConfig::WxAslr();
  config.version = connman::Version::k135;
  auto result = RunCachePoisoningScenario(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().roamed_to_rogue);
  EXPECT_TRUE(result.value().cache_poisoned);
  EXPECT_EQ(result.value().victim_resolves_to, "10.66.66.66");
  EXPECT_GE(result.value().answers_forged, 1u);
}

TEST(CachePoisoning, WithoutRogueApTheCacheStaysClean) {
  // Control: same flow, Pineapple never powers on — implemented by running
  // the normal Pineapple scenario against patched firmware and checking
  // the *legitimate* record was cached during the pre-attack phase.
  ScenarioConfig config;
  config.arch = isa::Arch::kVX86;
  config.prot = loader::ProtectionConfig::WxAslr();
  config.version = connman::Version::k135;
  auto remote = RunPineappleScenario(config);
  ASSERT_TRUE(remote.ok());
  EXPECT_TRUE(remote.value().benign_resolution_before);
}

}  // namespace
}  // namespace connlab::attack

#include "src/attack/campaign.hpp"
#include "src/attack/firmware.hpp"

namespace connlab::attack {
namespace {

TEST(FirmwareSurvey, VulnerableShipsFallPatchedSurvives) {
  auto rows = RunFirmwareSurvey();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), KnownFirmware().size());
  for (const FirmwareSurveyRow& row : rows.value()) {
    if (row.firmware.version == connman::Version::k134) {
      EXPECT_TRUE(row.attack.shell)
          << row.firmware.name << ": " << row.attack.detail;
    } else {
      EXPECT_FALSE(row.attack.shell) << row.firmware.name;
    }
  }
  const std::string table = RenderFirmwareSurvey(rows.value());
  EXPECT_NE(table.find("openelec-8"), std::string::npos);
  EXPECT_NE(table.find("tizen-3.0"), std::string::npos);
  EXPECT_NE(table.find("mainline"), std::string::npos);
}

TEST(DosCampaign, AvailabilityDropsUnderAttackOn134) {
  CampaignConfig config;
  config.version = connman::Version::k134;
  config.total_lookups = 100;
  config.attack_every_n = 10;
  config.restart_downtime_lookups = 3;
  auto result = RunDosCampaign(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CampaignResult& r = result.value();
  EXPECT_GT(r.crashes, 0);
  // A crash at the very end of the campaign may leave its restart pending.
  EXPECT_GE(r.crashes, r.restarts);
  EXPECT_LE(r.crashes - r.restarts, 1);
  EXPECT_LE(r.lookups_lost_downtime, r.crashes * 3);
  EXPECT_GE(r.lookups_lost_downtime, (r.crashes - 1) * 3);
  EXPECT_LT(r.availability(), 0.95);
  EXPECT_GT(r.availability(), 0.5);
  EXPECT_EQ(r.lookups_attempted, 100);
}

TEST(DosCampaign, PatchedBuildKeepsFullBenignAvailability) {
  CampaignConfig config;
  config.version = connman::Version::k135;
  config.total_lookups = 100;
  config.attack_every_n = 10;
  auto result = RunDosCampaign(config);
  ASSERT_TRUE(result.ok());
  const CampaignResult& r = result.value();
  EXPECT_EQ(r.crashes, 0);
  EXPECT_EQ(r.attacks_rejected, r.attacks_sent);
  // Only the attacked lookups themselves fail; the daemon never dies.
  EXPECT_EQ(r.lookups_served, 100 - r.attacks_sent);
}

TEST(DosCampaign, NoAttackMeansPerfectAvailability) {
  CampaignConfig config;
  config.attack_every_n = 0;
  config.total_lookups = 50;
  auto result = RunDosCampaign(config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().availability(), 1.0);
  EXPECT_EQ(result.value().crashes, 0);
}

TEST(DosCampaign, HigherAttackRateLowersAvailability) {
  double prev = 1.1;
  for (int n : {20, 10, 5}) {
    CampaignConfig config;
    config.attack_every_n = n;
    config.total_lookups = 200;
    auto result = RunDosCampaign(config);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result.value().availability(), prev) << "n=" << n;
    prev = result.value().availability();
  }
}

}  // namespace
}  // namespace connlab::attack

namespace connlab::attack {
namespace {

TEST(LureScenario, ExploitRidesTheLegitimateResolutionChain) {
  // §III-D's second delivery class: no rogue AP at all — the device is on
  // its own network, behind its own resolver, and still gets shelled when
  // it resolves an attacker-controlled domain.
  ScenarioConfig config;
  config.arch = isa::Arch::kVARM;
  config.prot = loader::ProtectionConfig::WxAslr();
  auto result = RunLureScenario(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().on_legitimate_network);
  EXPECT_EQ(result.value().forwarded, 1u);
  EXPECT_TRUE(result.value().attack.shell) << result.value().attack.detail;
}

TEST(LureScenario, PatchedFirmwareSurvivesTheLure) {
  ScenarioConfig config;
  config.arch = isa::Arch::kVARM;
  config.prot = loader::ProtectionConfig::WxAslr();
  config.version = connman::Version::k135;
  auto result = RunLureScenario(config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().attack.shell);
  EXPECT_EQ(result.value().attack.kind,
            connman::ProxyOutcome::Kind::kParseError);
}

}  // namespace
}  // namespace connlab::attack
