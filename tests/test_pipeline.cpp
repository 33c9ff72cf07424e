// Golden rows for the attack pipeline: the attacker's lab boot and profile
// extraction, the volley built from the profile, its delivery (controlled,
// Pineapple and lure) and the reading of the victim's outcome. Every field
// of every row is pinned, so a change to any stage of the pipeline that
// moves a probe count, a payload size, a wire size or a guest step shows up
// here by row, not only as a changed digest. The two labs that fire batches
// of volleys at defended boots (the canary brute force and the diversity
// census) are pinned at the parameters examples/defense_lab prints.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/attack/battery.hpp"
#include "src/attack/matrix.hpp"
#include "src/attack/scenario.hpp"

namespace connlab {
namespace {

using attack::AttackResult;
using attack::ScenarioConfig;
using isa::Arch;
using loader::ProtectionConfig;

/// RowLabel | technique | defense | OutcomeLabel | FailureLabel | probes |
/// payload_bytes | labels | response_bytes | guest_steps
std::string Row(const AttackResult& r) {
  return r.RowLabel() + " | " +
         std::string(exploit::TechniqueName(r.technique)) + " | " +
         r.defense + " | " + r.OutcomeLabel() + " | " + r.FailureLabel() +
         " | " + std::to_string(r.probes) + " | " +
         std::to_string(r.payload_bytes) + " | " + std::to_string(r.labels) +
         " | " + std::to_string(r.response_bytes) + " | " +
         std::to_string(r.guest_steps);
}

template <std::size_t N>
void ExpectRows(const std::vector<std::string>& rows,
                const char* const (&golden)[N]) {
  ASSERT_EQ(rows.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(rows[i], golden[i]) << "row " << i;
  }
}

template <std::size_t N>
void ExpectResults(const util::Result<std::vector<AttackResult>>& results,
                   const char* const (&golden)[N]) {
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  std::vector<std::string> rows;
  for (const AttackResult& r : results.value()) rows.push_back(Row(r));
  ExpectRows(rows, golden);
}

const char* const kSixAttacks[] = {
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | none | "
    "ROOT SHELL | - | 1 | 1092 | 18 | 1142 | 38",
    "vx86 / W^X / connman 1.34 (vulnerable) | ret-to-libc | none | "
    "ROOT SHELL | - | 1 | 1068 | 17 | 1118 | 1",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 1 | 1240 | 21 | 1290 | 51",
    "varm / none / connman 1.34 (vulnerable) | code-injection | none | "
    "ROOT SHELL | - | 9 | 1076 | 18 | 1126 | 13",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | none | "
    "ROOT SHELL | - | 9 | 1108 | 18 | 1158 | 5",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 9 | 1188 | 19 | 1238 | 19",
};

const char* const kCrossVX86[] = {
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | none | "
    "ROOT SHELL | - | 1 | 1092 | 18 | 1142 | 38",
    "vx86 / W^X / connman 1.34 (vulnerable) | code-injection | none | "
    "crash (DoS) | other | 1 | 1092 | 18 | 1142 | 0",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | code-injection | none | "
    "crash (DoS) | bad-stack-addr | 1 | 1092 | 18 | 1142 | 0",
    "vx86 / none / connman 1.34 (vulnerable) | ret-to-libc | none | "
    "ROOT SHELL | - | 1 | 1068 | 17 | 1118 | 1",
    "vx86 / W^X / connman 1.34 (vulnerable) | ret-to-libc | none | "
    "ROOT SHELL | - | 1 | 1068 | 17 | 1118 | 1",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | ret-to-libc | none | "
    "crash (DoS) | other | 1 | 1068 | 17 | 1118 | 0",
    "vx86 / none / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 1 | 1240 | 21 | 1290 | 51",
    "vx86 / W^X / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 1 | 1240 | 21 | 1290 | 51",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 1 | 1240 | 21 | 1290 | 51",
};

const char* const kCrossVARM[] = {
    "varm / none / connman 1.34 (vulnerable) | code-injection | none | "
    "ROOT SHELL | - | 9 | 1076 | 18 | 1126 | 13",
    "varm / W^X / connman 1.34 (vulnerable) | code-injection | none | "
    "crash (DoS) | other | 9 | 1076 | 18 | 1126 | 0",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | code-injection | none | "
    "crash (DoS) | bad-stack-addr | 9 | 1076 | 18 | 1126 | 0",
    "varm / none / connman 1.34 (vulnerable) | gadget-execlp | none | "
    "ROOT SHELL | - | 9 | 1108 | 18 | 1158 | 5",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | none | "
    "ROOT SHELL | - | 9 | 1108 | 18 | 1158 | 5",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | gadget-execlp | none | "
    "crash (DoS) | other | 9 | 1108 | 18 | 1158 | 5",
    "varm / none / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 9 | 1188 | 19 | 1238 | 19",
    "varm / W^X / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 9 | 1188 | 19 | 1238 | 19",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 9 | 1188 | 19 | 1238 | 19",
};

const char* const kDefenseMatrix[] = {
    "vx86 / none / connman 1.35 (patched) | code-injection | none | "
    "parse-error | patched-parser | 1 | 1092 | 18 | 1142 | 0",
    "vx86 / W^X+ASLR+canary / connman 1.34 (vulnerable) | rop-memcpy-chain | "
    "none | no exploit (target aborts on overflow (stack protector present)) | "
    "- | 0 | 0 | 0 | 0 | 0",
    "varm / none / connman 1.35 (patched) | code-injection | none | "
    "parse-error | patched-parser | 9 | 1076 | 18 | 1126 | 0",
    "varm / W^X+ASLR+canary / connman 1.34 (vulnerable) | rop-memcpy-chain | "
    "none | no exploit (target aborts on overflow (stack protector present)) | "
    "- | 0 | 0 | 0 | 0 | 0",
};

const char* const kDefenseGrid[] = {
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | none | "
    "ROOT SHELL | - | 1 | 1092 | 18 | 1142 | 38",
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | canary | "
    "abort | canary-trap | 1 | 1092 | 18 | 1142 | 0",
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | CFI | "
    "cfi-violation | cfi-trap | 1 | 1092 | 18 | 1142 | 0",
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | diversity | "
    "ROOT SHELL | - | 1 | 1092 | 18 | 1142 | 38",
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | all | abort | "
    "canary-trap | 1 | 1092 | 18 | 1142 | 0",
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | "
    "heap-integrity | ROOT SHELL | - | 1 | 1092 | 18 | 1142 | 38",
    "vx86 / W^X / connman 1.34 (vulnerable) | ret-to-libc | none | "
    "ROOT SHELL | - | 1 | 1068 | 17 | 1118 | 1",
    "vx86 / W^X / connman 1.34 (vulnerable) | ret-to-libc | canary | abort | "
    "canary-trap | 1 | 1068 | 17 | 1118 | 0",
    "vx86 / W^X / connman 1.34 (vulnerable) | ret-to-libc | CFI | "
    "cfi-violation | cfi-trap | 1 | 1068 | 17 | 1118 | 0",
    "vx86 / W^X / connman 1.34 (vulnerable) | ret-to-libc | diversity | "
    "crash (DoS) | bad-gadget-addr | 1 | 1068 | 17 | 1118 | 0",
    "vx86 / W^X / connman 1.34 (vulnerable) | ret-to-libc | all | abort | "
    "canary-trap | 1 | 1068 | 17 | 1118 | 0",
    "vx86 / W^X / connman 1.34 (vulnerable) | ret-to-libc | heap-integrity | "
    "ROOT SHELL | - | 1 | 1068 | 17 | 1118 | 1",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 1 | 1240 | 21 | 1290 | 51",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | canary | "
    "abort | canary-trap | 1 | 1240 | 21 | 1290 | 0",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | CFI | "
    "cfi-violation | cfi-trap | 1 | 1240 | 21 | 1290 | 0",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | "
    "diversity | other | bad-gadget-addr | 1 | 1240 | 21 | 1290 | 1",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | all | "
    "abort | canary-trap | 1 | 1240 | 21 | 1290 | 0",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | "
    "heap-integrity | ROOT SHELL | - | 1 | 1240 | 21 | 1290 | 51",
    "varm / none / connman 1.34 (vulnerable) | code-injection | none | "
    "ROOT SHELL | - | 9 | 1076 | 18 | 1126 | 13",
    "varm / none / connman 1.34 (vulnerable) | code-injection | canary | "
    "crash (DoS) | canary-trap | 9 | 1076 | 18 | 1126 | 0",
    "varm / none / connman 1.34 (vulnerable) | code-injection | CFI | "
    "cfi-violation | cfi-trap | 9 | 1076 | 18 | 1126 | 0",
    "varm / none / connman 1.34 (vulnerable) | code-injection | diversity | "
    "ROOT SHELL | - | 9 | 1076 | 18 | 1126 | 13",
    "varm / none / connman 1.34 (vulnerable) | code-injection | all | "
    "crash (DoS) | canary-trap | 9 | 1076 | 18 | 1126 | 0",
    "varm / none / connman 1.34 (vulnerable) | code-injection | "
    "heap-integrity | ROOT SHELL | - | 9 | 1076 | 18 | 1126 | 13",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | none | "
    "ROOT SHELL | - | 9 | 1108 | 18 | 1158 | 5",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | canary | "
    "crash (DoS) | canary-trap | 9 | 1108 | 18 | 1158 | 0",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | CFI | "
    "cfi-violation | cfi-trap | 9 | 1108 | 18 | 1158 | 0",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | diversity | "
    "crash (DoS) | bad-gadget-addr | 9 | 1108 | 18 | 1158 | 3",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | all | "
    "crash (DoS) | canary-trap | 9 | 1108 | 18 | 1158 | 0",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | heap-integrity | "
    "ROOT SHELL | - | 9 | 1108 | 18 | 1158 | 5",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 9 | 1188 | 19 | 1238 | 19",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | canary | "
    "crash (DoS) | canary-trap | 9 | 1188 | 19 | 1238 | 0",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | CFI | "
    "cfi-violation | cfi-trap | 9 | 1188 | 19 | 1238 | 0",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | "
    "diversity | crash (DoS) | bad-gadget-addr | 9 | 1188 | 19 | 1238 | 3",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | all | "
    "crash (DoS) | canary-trap | 9 | 1188 | 19 | 1238 | 0",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | "
    "heap-integrity | ROOT SHELL | - | 9 | 1188 | 19 | 1238 | 19",
    "vx86 / none / resolvd | pointer-loop-dos | none | crash (DoS) | - | 0 | "
    "18 | 0 | 0 | 0",
    "vx86 / none / resolvd | pointer-loop-dos | canary | crash (DoS) | - | 0 | "
    "18 | 0 | 0 | 0",
    "vx86 / none / resolvd | pointer-loop-dos | CFI | crash (DoS) | - | 0 | "
    "18 | 0 | 0 | 0",
    "vx86 / none / resolvd | pointer-loop-dos | diversity | crash (DoS) | - | "
    "0 | 18 | 0 | 0 | 0",
    "vx86 / none / resolvd | pointer-loop-dos | all | crash (DoS) | - | 0 | "
    "18 | 0 | 0 | 0",
    "vx86 / none / resolvd | pointer-loop-dos | heap-integrity | crash (DoS) | "
    "- | 0 | 18 | 0 | 0 | 0",
    "vx86 / none / camstored | heap-unlink-write | none | ROOT SHELL | - | 0 | "
    "212 | 0 | 0 | 0",
    "vx86 / none / camstored | heap-unlink-write | canary | ROOT SHELL | - | "
    "0 | 212 | 0 | 0 | 0",
    "vx86 / none / camstored | heap-unlink-write | CFI | ROOT SHELL | - | 0 | "
    "212 | 0 | 0 | 0",
    "vx86 / none / camstored | heap-unlink-write | diversity | ROOT SHELL | "
    "- | 0 | 212 | 0 | 0 | 0",
    "vx86 / none / camstored | heap-unlink-write | all | ROOT SHELL | - | 0 | "
    "212 | 0 | 0 | 0",
    "vx86 / none / camstored | heap-unlink-write | heap-integrity | abort | "
    "heap-integrity-trap | 0 | 212 | 0 | 0 | 0",
    "varm / none / resolvd | pointer-loop-dos | none | crash (DoS) | - | 0 | "
    "18 | 0 | 0 | 0",
    "varm / none / resolvd | pointer-loop-dos | canary | crash (DoS) | - | 0 | "
    "18 | 0 | 0 | 0",
    "varm / none / resolvd | pointer-loop-dos | CFI | crash (DoS) | - | 0 | "
    "18 | 0 | 0 | 0",
    "varm / none / resolvd | pointer-loop-dos | diversity | crash (DoS) | - | "
    "0 | 18 | 0 | 0 | 0",
    "varm / none / resolvd | pointer-loop-dos | all | crash (DoS) | - | 0 | "
    "18 | 0 | 0 | 0",
    "varm / none / resolvd | pointer-loop-dos | heap-integrity | crash (DoS) | "
    "- | 0 | 18 | 0 | 0 | 0",
    "varm / none / camstored | heap-unlink-write | none | ROOT SHELL | - | 0 | "
    "212 | 0 | 0 | 0",
    "varm / none / camstored | heap-unlink-write | canary | ROOT SHELL | - | "
    "0 | 212 | 0 | 0 | 0",
    "varm / none / camstored | heap-unlink-write | CFI | ROOT SHELL | - | 0 | "
    "212 | 0 | 0 | 0",
    "varm / none / camstored | heap-unlink-write | diversity | ROOT SHELL | "
    "- | 0 | 212 | 0 | 0 | 0",
    "varm / none / camstored | heap-unlink-write | all | ROOT SHELL | - | 0 | "
    "212 | 0 | 0 | 0",
    "varm / none / camstored | heap-unlink-write | heap-integrity | abort | "
    "heap-integrity-trap | 0 | 212 | 0 | 0 | 0",
};

// ... plus benign_resolution_before | roamed_to_rogue | queries_intercepted.
const char* const kPineapple[] = {
    "vx86 / none / connman 1.34 (vulnerable) | code-injection | none | "
    "ROOT SHELL | - | 1 | 1092 | 18 | 1144 | 38 | 1 | 1 | 1",
    "varm / none / connman 1.34 (vulnerable) | code-injection | none | "
    "ROOT SHELL | - | 9 | 1076 | 18 | 1128 | 13 | 1 | 1 | 1",
    "varm / W^X / connman 1.34 (vulnerable) | gadget-execlp | none | "
    "ROOT SHELL | - | 9 | 1108 | 18 | 1160 | 5 | 1 | 1 | 1",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 9 | 1188 | 19 | 1240 | 19 | 1 | 1 | 1",
    "varm / W^X+ASLR / connman 1.35 (patched) | rop-memcpy-chain | none | "
    "parse-error | patched-parser | 9 | 1188 | 19 | 1240 | 0 | 1 | 1 | 1",
};

// ... plus on_legitimate_network | forwarded.
const char* const kLure[] = {
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | rop-memcpy-chain | none | "
    "ROOT SHELL | - | 9 | 1188 | 19 | 1237 | 19 | 1 | 1",
    "varm / W^X+ASLR / connman 1.35 (patched) | rop-memcpy-chain | none | "
    "parse-error | patched-parser | 9 | 1188 | 19 | 1237 | 0 | 1 | 1",
};

TEST(PipelineGolden, SixAttackMatrix) {
  ExpectResults(attack::RunSixAttackMatrix(), kSixAttacks);
}

TEST(PipelineGolden, CrossTechniqueMatrixOnBothArches) {
  ExpectResults(attack::RunCrossTechniqueMatrix(Arch::kVX86), kCrossVX86);
  ExpectResults(attack::RunCrossTechniqueMatrix(Arch::kVARM), kCrossVARM);
}

TEST(PipelineGolden, DefenseMatrix) {
  ExpectResults(attack::RunDefenseMatrix(), kDefenseMatrix);
}

TEST(PipelineGolden, DefenseGrid) {
  ExpectResults(attack::RunDefenseGrid(4242), kDefenseGrid);
}

ScenarioConfig Config(Arch arch, ProtectionConfig prot,
                      connman::Version version) {
  ScenarioConfig config;
  config.arch = arch;
  config.prot = prot;
  config.version = version;
  return config;
}

TEST(PipelineGolden, PineappleRuns) {
  // The four RemoteAttacks cases, then the patched build at W^X+ASLR.
  const ScenarioConfig configs[] = {
      Config(Arch::kVX86, ProtectionConfig::None(), connman::Version::k134),
      Config(Arch::kVARM, ProtectionConfig::None(), connman::Version::k134),
      Config(Arch::kVARM, ProtectionConfig::WxOnly(), connman::Version::k134),
      Config(Arch::kVARM, ProtectionConfig::WxAslr(), connman::Version::k134),
      Config(Arch::kVARM, ProtectionConfig::WxAslr(), connman::Version::k135),
  };
  std::vector<std::string> rows;
  for (const ScenarioConfig& config : configs) {
    auto remote = attack::RunPineappleScenario(config);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    const attack::RemoteResult& r = remote.value();
    rows.push_back(Row(r.attack) + " | " +
                   std::to_string(r.benign_resolution_before) + " | " +
                   std::to_string(r.roamed_to_rogue) + " | " +
                   std::to_string(r.queries_intercepted));
  }
  ExpectRows(rows, kPineapple);
}

TEST(PipelineGolden, LureRuns) {
  std::vector<std::string> rows;
  for (connman::Version version :
       {connman::Version::k134, connman::Version::k135}) {
    auto lure = attack::RunLureScenario(
        Config(Arch::kVARM, ProtectionConfig::WxAslr(), version));
    ASSERT_TRUE(lure.ok()) << lure.status().ToString();
    const attack::LureResult& r = lure.value();
    rows.push_back(Row(r.attack) + " | " +
                   std::to_string(r.on_legitimate_network) + " | " +
                   std::to_string(r.forwarded));
  }
  ExpectRows(rows, kLure);
}

// bits | recovered | attempts | aborts | canary | shell
const char* const kCanaryLab[] = {
    "2 | 1 | 3 | 2 | 0x01010103 | 1",
    "4 | 1 | 15 | 14 | 0x0101010f | 1",
    "8 | 1 | 255 | 254 | 0x010101ff | 1",
};

TEST(PipelineGolden, CanaryBruteForceLab) {
  using namespace attack;
  using namespace defense;
  std::vector<std::string> rows;
  for (int bits : {2, 4, 8}) {
    auto report = BruteForceCanary(Arch::kVX86, bits, /*target_seed=*/4242,
                                   /*max_attempts=*/1u << bits);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    char canary[16];
    std::snprintf(canary, sizeof canary, "0x%08x", report.value().canary);
    rows.push_back(std::to_string(bits) + " | " +
                   std::to_string(report.value().recovered) + " | " +
                   std::to_string(report.value().attempts) + " | " +
                   std::to_string(report.value().aborts) + " | " + canary +
                   " | " + std::to_string(report.value().shell));
  }
  ExpectRows(rows, kCanaryLab);
}

// arch / protections | trials | shells | crashes | traps | other
const char* const kDiversityLab[] = {
    "vx86 / none | 16 | 16 | 0 | 0 | 0",
    "vx86 / W^X | 16 | 0 | 16 | 0 | 0",
    "varm / W^X | 16 | 0 | 15 | 0 | 1",
    "varm / W^X+ASLR | 16 | 0 | 15 | 0 | 1",
};

TEST(PipelineGolden, DiversityCensusLab) {
  using namespace attack;
  using namespace defense;
  struct Census {
    Arch arch;
    ProtectionConfig base;
  };
  const Census censuses[] = {
      {Arch::kVX86, ProtectionConfig::None()},
      {Arch::kVX86, ProtectionConfig::WxOnly()},
      {Arch::kVARM, ProtectionConfig::WxOnly()},
      {Arch::kVARM, ProtectionConfig::WxAslr()},
  };
  std::vector<std::string> rows;
  for (const Census& c : censuses) {
    auto stats = MeasureDiversityResistance(c.arch, c.base, /*trials=*/16,
                                            /*seed0=*/9000);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const auto& s = stats.value();
    rows.push_back(std::string(isa::ArchName(c.arch)) + " / " +
                   c.base.ToString() + " | " + std::to_string(s.trials) +
                   " | " + std::to_string(s.shells) + " | " +
                   std::to_string(s.crashes) + " | " +
                   std::to_string(s.traps) + " | " + std::to_string(s.other));
  }
  ExpectRows(rows, kDiversityLab);
}

}  // namespace
}  // namespace connlab
