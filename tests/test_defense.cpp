// The defense subsystem: composable mitigation policies evaluated against
// the paper's six-attack matrix, the canary brute-force-resistance knob,
// and DAEDALUS-style per-boot stochastic diversity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/attack/matrix.hpp"
#include "src/attack/report.hpp"
#include "src/attack/scenario.hpp"
#include "src/defense/canary.hpp"
#include "src/defense/diversity.hpp"
#include "src/defense/mitigation.hpp"
#include "src/loader/boot.hpp"

namespace connlab {
namespace {

using connman::ProxyOutcome;
using defense::DefensePolicy;
using exploit::FailureCause;
using isa::Arch;
using loader::Boot;
using loader::ProtectionConfig;
using Kind = ProxyOutcome::Kind;

// ------------------------------------------------------- policy basics ----

TEST(DefensePolicy, LabelsAndComposition) {
  EXPECT_EQ(DefensePolicy::None().Label(), "none");
  EXPECT_EQ(DefensePolicy::Canary().Label(), "canary");
  EXPECT_EQ(DefensePolicy::Cfi().Label(), "CFI");
  EXPECT_EQ(DefensePolicy::Diversity().Label(), "diversity");
  EXPECT_EQ(DefensePolicy::All().Label(), "all");
  EXPECT_EQ(DefensePolicy::HeapIntegrityChecks().Label(), "heap-integrity");
  DefensePolicy two = DefensePolicy::Canary();
  two.cfi = true;
  EXPECT_EQ(two.Label(), "canary+CFI");
  EXPECT_NE(two, DefensePolicy::Canary());
  EXPECT_NE(two.Key(), DefensePolicy::Canary().Key());

  // Describe() gives one non-empty line per enabled defense.
  EXPECT_TRUE(DefensePolicy::None().Describe().empty());
  EXPECT_EQ(two.Describe().size(), 2u);
  const std::vector<std::string> all = DefensePolicy::All().Describe();
  ASSERT_EQ(all.size(), 3u);
  for (const std::string& line : all) EXPECT_FALSE(line.empty());
}

TEST(DefensePolicy, StandardPoliciesSweepInReportOrder) {
  const auto policies = defense::StandardPolicies();
  ASSERT_EQ(policies.size(), 5u);
  EXPECT_EQ(policies[0].Label(), "none");
  EXPECT_EQ(policies[1].Label(), "canary");
  EXPECT_EQ(policies[2].Label(), "CFI");
  EXPECT_EQ(policies[3].Label(), "diversity");
  EXPECT_EQ(policies[4].Label(), "all");
}

TEST(DefensePolicy, ConfigureFoldsIntoProtectionConfig) {
  ProtectionConfig prot = ProtectionConfig::WxOnly();
  DefensePolicy::Canary(6).Configure(prot);
  EXPECT_TRUE(prot.canary);
  EXPECT_EQ(prot.canary_entropy_bits, 6);

  prot = ProtectionConfig::WxOnly();
  DefensePolicy::Cfi().Configure(prot);
  EXPECT_TRUE(prot.cfi);

  prot = ProtectionConfig::WxOnly();
  DefensePolicy::Diversity().Configure(prot);
  EXPECT_TRUE(prot.stochastic_diversity);

  prot = ProtectionConfig::WxOnly();
  DefensePolicy::HeapIntegrityChecks().Configure(prot);
  EXPECT_TRUE(prot.heap_integrity);
  EXPECT_FALSE(prot.canary || prot.cfi || prot.stochastic_diversity);

  prot = ProtectionConfig::WxOnly();
  DefensePolicy::All().Configure(prot);
  EXPECT_TRUE(prot.canary && prot.cfi && prot.stochastic_diversity);
}

TEST(DefensePolicy, BootHardenedArmsEverything) {
  auto sys = DefensePolicy::All()
                 .BootHardened(Arch::kVARM, ProtectionConfig::WxOnly(), 3)
                 .value();
  EXPECT_TRUE(sys->prot.canary);
  EXPECT_NE(sys->canary_value, 0u);
  EXPECT_TRUE(sys->cpu->shadow_stack_enabled());
  EXPECT_TRUE(sys->prot.stochastic_diversity);
}

TEST(Canary, EntropyKnobBoundsTheDraw) {
  for (std::uint64_t seed : {1ull, 2ull, 77ull}) {
    auto sys = DefensePolicy::Canary(4)
                   .BootHardened(Arch::kVX86, ProtectionConfig::WxOnly(), seed)
                   .value();
    EXPECT_GE(sys->canary_value, 0x01010101u);
    EXPECT_LT(sys->canary_value, 0x01010101u + 16u);
  }
  // Full width keeps the historical no-zero-byte guard.
  auto sys = DefensePolicy::Canary(32)
                 .BootHardened(Arch::kVX86, ProtectionConfig::WxOnly(), 1)
                 .value();
  EXPECT_EQ(sys->canary_value & 0x01010101u, 0x01010101u);
}

// ----------------------------------------------------- the defense grid ----

class DefenseGridTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    static auto* grid = new std::vector<attack::AttackResult>(
        attack::RunDefenseGrid(4242).value());
    grid_ = grid;
  }
  static const std::vector<attack::AttackResult>* grid_;
};

const std::vector<attack::AttackResult>* DefenseGridTest::grid_ = nullptr;

TEST_F(DefenseGridTest, SixtyRowsAcrossServicesAndPolicies) {
  // 2 arch x 3 prot x 6 policies dnsproxy rows, plus 2 arch x 2 zoo
  // services x 6 policies.
  ASSERT_EQ(grid_->size(), 60u);
  std::size_t dnsproxy = 0, resolvd = 0, camstored = 0;
  for (const attack::AttackResult& r : *grid_) {
    if (r.service == "dnsproxy") ++dnsproxy;
    if (r.service == "resolvd") ++resolvd;
    if (r.service == "camstored") ++camstored;
  }
  EXPECT_EQ(dnsproxy, 36u);
  EXPECT_EQ(resolvd, 12u);
  EXPECT_EQ(camstored, 12u);
}

TEST_F(DefenseGridTest, UndefendedRowsAllShellOrDos) {
  for (const attack::AttackResult& r : *grid_) {
    if (r.defense != "none") continue;
    if (r.service == "resolvd") {
      // The pointer loop has no shell stage — its DoS crash is the payoff.
      EXPECT_TRUE(r.crash) << r.RowLabel() << ": " << r.detail;
    } else {
      EXPECT_TRUE(r.shell) << r.RowLabel() << ": " << r.detail;
    }
    EXPECT_EQ(r.failure, FailureCause::kNone);
  }
}

TEST_F(DefenseGridTest, CanaryTrapsAllSixAttacks) {
  for (const attack::AttackResult& r : *grid_) {
    if (r.service != "dnsproxy") continue;
    if (r.defense != "canary") continue;
    EXPECT_FALSE(r.shell) << r.RowLabel() << ": " << r.detail;
    // x86 payloads run through to the guard check and abort; the VARM
    // payloads die earlier — the unmodeled 4-byte guard pad displaces the
    // placeholder slots parse_rr/cleanup validate, so they crash before
    // the epilogue. Both ways, the diagnosis is the canary.
    if (r.arch == isa::Arch::kVX86) {
      EXPECT_EQ(r.kind, Kind::kAbort) << r.RowLabel() << ": " << r.detail;
    } else {
      EXPECT_EQ(r.kind, Kind::kCrash) << r.RowLabel() << ": " << r.detail;
    }
    EXPECT_EQ(r.failure, FailureCause::kCanaryTrap) << r.RowLabel();
  }
}

TEST_F(DefenseGridTest, CfiRaisesCfiViolationOnAllSixAttacks) {
  for (const attack::AttackResult& r : *grid_) {
    if (r.service != "dnsproxy") continue;
    if (r.defense != "CFI") continue;
    EXPECT_EQ(r.kind, Kind::kCfiViolation) << r.RowLabel() << ": " << r.detail;
    EXPECT_EQ(r.failure, FailureCause::kCfiTrap) << r.RowLabel();
  }
}

TEST_F(DefenseGridTest, DiversityBlocksAddressReuseButNotInjection) {
  for (const attack::AttackResult& r : *grid_) {
    if (r.service != "dnsproxy") continue;
    if (r.defense != "diversity") continue;
    if (r.technique == exploit::Technique::kCodeInjection) {
      // Attacks 1-2 target the (unmoved) stack: diversity honestly misses.
      EXPECT_TRUE(r.shell) << r.RowLabel() << ": " << r.detail;
    } else {
      // Attacks 3-6 reuse image/libc addresses: all stale after the shuffle.
      EXPECT_FALSE(r.shell) << r.RowLabel();
      EXPECT_EQ(r.failure, FailureCause::kBadGadgetAddress)
          << r.RowLabel() << ": " << r.detail;
    }
  }
}

TEST_F(DefenseGridTest, AllDefensesStackedBlockEverything) {
  for (const attack::AttackResult& r : *grid_) {
    if (r.service != "dnsproxy") continue;
    if (r.defense != "all") continue;
    EXPECT_FALSE(r.shell) << r.RowLabel();
    // The canary is the first tripwire in the stacked epilogue: x86 rows
    // abort at the guard check, VARM rows crash on the guard pad's frame
    // displacement — either way before CFI or diversity get a say.
    if (r.arch == isa::Arch::kVX86) {
      EXPECT_EQ(r.kind, Kind::kAbort) << r.RowLabel() << ": " << r.detail;
    } else {
      EXPECT_EQ(r.kind, Kind::kCrash) << r.RowLabel() << ": " << r.detail;
    }
    EXPECT_EQ(r.failure, FailureCause::kCanaryTrap) << r.RowLabel();
  }
}

TEST_F(DefenseGridTest, HeapIntegrityIsClassOrthogonal) {
  // Heap-integrity checks free()-time metadata: they see nothing of the
  // stack smash, and the stack defenses see nothing of the heap class.
  for (const attack::AttackResult& r : *grid_) {
    if (r.service == "dnsproxy" && r.defense == "heap-integrity") {
      EXPECT_TRUE(r.shell) << r.RowLabel() << ": " << r.detail;
    }
    if (r.service == "camstored") {
      if (r.defense == "heap-integrity") {
        EXPECT_EQ(r.kind, Kind::kAbort) << r.RowLabel() << ": " << r.detail;
        EXPECT_EQ(r.failure, FailureCause::kHeapIntegrityTrap) << r.RowLabel();
      } else {
        // canary / CFI / diversity / all: every stack defense misses the
        // forward-edge heap pivot (the zoo runs on executable-heap boots).
        EXPECT_TRUE(r.shell) << r.RowLabel() << ": " << r.detail;
      }
    }
    if (r.service == "resolvd") {
      EXPECT_FALSE(r.shell) << r.RowLabel();
      EXPECT_TRUE(r.crash) << r.RowLabel() << ": " << r.detail;
      EXPECT_EQ(r.failure, FailureCause::kNone) << r.RowLabel();
      EXPECT_EQ(r.technique, exploit::Technique::kPointerLoopDos);
    }
  }
}

TEST_F(DefenseGridTest, ReportsCarryDefenseAndDiagnosis) {
  const std::string table =
      attack::RenderMatrixTable(*grid_, "defense grid");
  EXPECT_NE(table.find("defense"), std::string::npos);
  EXPECT_NE(table.find("cfi-trap"), std::string::npos);
  EXPECT_NE(table.find("canary-trap"), std::string::npos);

  const std::string grid_table =
      attack::RenderDefenseGrid(*grid_, "pivot");
  EXPECT_NE(grid_table.find("SHELL"), std::string::npos);
  EXPECT_NE(grid_table.find("blocked:cfi-trap"), std::string::npos);
  EXPECT_NE(grid_table.find("diversity"), std::string::npos);
  // The zoo rows carry their service prefix and the per-class outcomes.
  EXPECT_NE(grid_table.find("resolvd: "), std::string::npos);
  EXPECT_NE(grid_table.find("camstored: "), std::string::npos);
  EXPECT_NE(grid_table.find("DoS"), std::string::npos);
  EXPECT_NE(grid_table.find("blocked:heap-integrity-trap"),
            std::string::npos);

  const std::string csv = attack::RenderCsv(*grid_);
  EXPECT_NE(csv.find("service,"), std::string::npos);
  EXPECT_NE(csv.find(",defense,"), std::string::npos);
  EXPECT_NE(csv.find("bad-gadget-addr"), std::string::npos);
  EXPECT_NE(csv.find("camstored"), std::string::npos);

  const std::string json = attack::RenderJson(*grid_);
  EXPECT_NE(json.find("\"defense\": \"CFI\""), std::string::npos);
  EXPECT_NE(json.find("\"failure\": \"cfi-trap\""), std::string::npos);
  EXPECT_NE(json.find("\"service\": \"resolvd\""), std::string::npos);
}

// ----------------------------------------------------- canary brute force ----

TEST(CanaryBruteForce, RecoversANarrowedGuard) {
  auto report =
      defense::BruteForceCanary(Arch::kVX86, /*entropy_bits=*/4,
                                /*target_seed=*/4242, /*max_attempts=*/16);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().recovered);
  EXPECT_TRUE(report.value().shell);  // the surviving volley is the exploit
  EXPECT_LE(report.value().attempts, 16u);
  EXPECT_EQ(report.value().aborts, report.value().attempts - 1);
}

TEST(CanaryBruteForce, AttemptBudgetIsHonoured) {
  auto report =
      defense::BruteForceCanary(Arch::kVX86, /*entropy_bits=*/8,
                                /*target_seed=*/4242, /*max_attempts=*/2);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report.value().attempts, 2u);
}

TEST(CanaryBruteForce, FullWidthGuardIsRejected) {
  EXPECT_FALSE(
      defense::BruteForceCanary(Arch::kVX86, 32, 4242, 100).ok());
}

TEST(CanaryBruteForce, ExpectedCostDoublesPerBit) {
  EXPECT_DOUBLE_EQ(defense::StackCanary(4).ExpectedBruteForceAttempts(), 8.0);
  EXPECT_DOUBLE_EQ(defense::StackCanary(5).ExpectedBruteForceAttempts(), 16.0);
}

// --------------------------------------------------- stochastic diversity ----

TEST(StochasticDiversity, RerandomisesEveryBoot) {
  auto a = Boot(Arch::kVARM, ProtectionConfig::StochasticDiversity(), 1).value();
  auto b = Boot(Arch::kVARM, ProtectionConfig::StochasticDiversity(), 2).value();
  const auto& layout = a->layout;
  auto ta = a->space.DebugRead(layout.text_base, layout.text_size).value();
  auto tb = b->space.DebugRead(layout.text_base, layout.text_size).value();
  EXPECT_NE(ta, tb);
  // Same seed reproduces the same layout (replayability).
  auto a2 = Boot(Arch::kVARM, ProtectionConfig::StochasticDiversity(), 1).value();
  auto ta2 = a2->space.DebugRead(layout.text_base, layout.text_size).value();
  EXPECT_EQ(ta, ta2);
}

TEST(StochasticDiversity, BenignTrafficUnaffected) {
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    for (std::uint64_t seed : {5ull, 6ull}) {
      auto sys =
          Boot(arch, ProtectionConfig::StochasticDiversity(), seed).value();
      connman::DnsProxy proxy(*sys, connman::Version::k134);
      dns::Message query = dns::Message::Query(0x11, "ok.example");
      ASSERT_TRUE(proxy.AcceptClientQuery(dns::Encode(query).value()).ok());
      dns::Message response = dns::Message::ResponseFor(query);
      response.answers.push_back(dns::MakeA("ok.example", "1.2.3.4"));
      auto outcome = proxy.HandleServerResponse(dns::Encode(response).value());
      EXPECT_EQ(outcome.kind, Kind::kParsedOk) << outcome.ToString();
    }
  }
}

TEST(StochasticDiversity, SurvivalMeasuredOverBoots) {
  // The stack-targeted injection rides through every re-randomised boot...
  auto inject = defense::MeasureDiversityResistance(
      Arch::kVX86, ProtectionConfig::None(), /*trials=*/6, /*seed0=*/100);
  ASSERT_TRUE(inject.ok()) << inject.status().ToString();
  EXPECT_EQ(inject.value().shells, inject.value().trials);
  EXPECT_DOUBLE_EQ(inject.value().survival_rate(), 1.0);

  // ...while the address-reuse exploit dies on (nearly) every layout.
  auto ret2libc = defense::MeasureDiversityResistance(
      Arch::kVX86, ProtectionConfig::WxOnly(), /*trials=*/6, /*seed0=*/100);
  ASSERT_TRUE(ret2libc.ok()) << ret2libc.status().ToString();
  EXPECT_LT(ret2libc.value().shells, ret2libc.value().trials);
}

}  // namespace
}  // namespace connlab
