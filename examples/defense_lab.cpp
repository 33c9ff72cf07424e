// Defense lab: the defense-policy subsystem (src/defense/) evaluated
// against the full six-attack matrix.
//
// Four demonstrations:
//   1. The defense grid — all six paper exploits fired at victims hardened
//      with each standard policy {none, canary, CFI, diversity, all}, with
//      the per-row diagnosis of *why* each blocked exploit missed.
//   2. CFI in close-up — the shadow stack rejecting a hijacked return and
//      stopping the CPU with the dedicated CfiViolation stop reason.
//   3. The canary brute-force-resistance knob — empirically recovering a
//      narrowed guard, volley by volley, and the cost curve vs width.
//   4. Stochastic diversity — the same exploit volley fired at N freshly
//      re-randomised boots; success drops from certainty to a probability.
//
//   ./examples/defense_lab [--trace=t.json] [--metrics=m.json]
//
//   --trace=PATH    chrome://tracing / Perfetto JSON of the whole lab run
//   --metrics=PATH  scraped metrics registry (grid cells, traps, boots, ...)
#include <cstdio>
#include <string>
#include <vector>

#include "examples/flags.hpp"
#include "src/attack/battery.hpp"
#include "src/attack/matrix.hpp"
#include "src/attack/report.hpp"
#include "src/defense/canary.hpp"
#include "src/defense/mitigation.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/cpu.hpp"

using namespace connlab;
using namespace connlab::examples;

namespace {

/// Writes the scope's exports (and prints the table) before main returns.
int FinishObs(obs::Scope& scope, const std::string& metrics_path,
              const std::string& trace_path) {
  if (!metrics_path.empty()) {
    auto status = scope.WriteMetricsJson(metrics_path);
    if (!status.ok()) return Fail(status);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    auto status = scope.WriteTraceJson(trace_path);
    if (!status.ok()) return Fail(status);
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty() || !trace_path.empty()) {
    std::printf("\nrun metrics:\n%s", scope.RenderTable().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const std::string trace_path = TakeFlag(args, "trace");
  const std::string metrics_path = TakeFlag(args, "metrics");
  obs::Scope scope(obs::ScopeOptions{.trace = !trace_path.empty()});
  std::printf("connlab defense lab — mitigations vs the six-attack matrix\n");
  std::printf("==========================================================\n\n");
  for (const defense::DefensePolicy& policy : defense::StandardPolicies()) {
    std::printf("%-10s", policy.Label().c_str());
    if (policy.empty()) {
      std::printf(" (stock firmware)\n");
      continue;
    }
    std::printf("\n");
    for (const std::string& line : policy.Describe()) {
      std::printf("    - %s\n", line.c_str());
    }
  }
  std::printf("\n");

  // --- 1. The grid ----------------------------------------------------------
  auto grid = attack::RunDefenseGrid();
  if (!grid.ok()) return Fail(grid.status());
  std::printf("%s\n", attack::RenderDefenseGrid(
                          grid.value(), "six attacks x defense policies")
                          .c_str());
  std::printf("%s\n", attack::RenderMatrixTable(grid.value(),
                                                "full grid, row per scenario")
                          .c_str());

  // Sanity over the grid, per bug class. dnsproxy (stack smash): undefended
  // rows all shell, CFI/canary/all block everything, diversity blocks the
  // address-reuse attacks (3-6) but honestly NOT the stack-targeted
  // injections (1-2), and heap-integrity catches *nothing* (wrong class).
  // resolvd (pointer loop): never a shell under any policy — the DoS crash
  // is the payoff. camstored (heap metadata): shells under every stack
  // defense and falls only to heap-integrity.
  int bad_rows = 0;
  for (const attack::AttackResult& r : grid.value()) {
    bool expect_shell = false;
    if (r.service == "dnsproxy") {
      const bool injection =
          r.technique == exploit::Technique::kCodeInjection;
      if (r.defense == "none") expect_shell = true;
      if (r.defense == "diversity") expect_shell = injection;
      if (r.defense == "heap-integrity") expect_shell = true;
    } else if (r.service == "camstored") {
      expect_shell = r.defense != "heap-integrity";
    }  // resolvd: expect_shell stays false everywhere
    if (r.shell != expect_shell) {
      std::printf("UNEXPECTED: %s / defense=%s -> %s\n", r.RowLabel().c_str(),
                  r.defense.c_str(), r.OutcomeLabel().c_str());
      ++bad_rows;
    }
    if (r.service == "resolvd" && !r.crash) {
      std::printf("UNEXPECTED: %s / defense=%s should DoS-crash\n",
                  r.RowLabel().c_str(), r.defense.c_str());
      ++bad_rows;
    }
  }
  if (bad_rows != 0) return 1;
  std::printf("grid shape verified: stack class falls to canary/CFI (and "
              "partly diversity)\nbut sails past heap-integrity; the pointer "
              "loop only ever DoSes; the heap\nclass ignores every stack "
              "defense and dies to heap-integrity alone.\n\n");

  // --- 2. CFI close-up ------------------------------------------------------
  std::printf("== CFI close-up: shadow stack vs the x86 ROP chain ==\n");
  attack::ScenarioConfig cfi_demo;
  cfi_demo.arch = isa::Arch::kVX86;
  cfi_demo.prot = loader::ProtectionConfig::WxAslr();
  cfi_demo.defense = defense::DefensePolicy::Cfi();
  auto cfi_result = attack::RunControlledScenario(cfi_demo);
  if (!cfi_result.ok()) return Fail(cfi_result.status());
  std::printf("outcome    : %s\n", cfi_result.value().OutcomeLabel().c_str());
  std::printf("stop detail: %s\n", cfi_result.value().detail.c_str());
  std::printf("diagnosis  : %s\n\n", cfi_result.value().FailureLabel().c_str());
  if (cfi_result.value().kind !=
      connman::ProxyOutcome::Kind::kCfiViolation) {
    std::printf("expected a CfiViolation stop!\n");
    return 1;
  }

  // --- 3. Canary brute-force knob ------------------------------------------
  std::printf("== canary brute-force resistance (narrowed guards) ==\n");
  std::printf("%6s %12s %10s %10s %6s\n", "bits", "expected", "attempts",
              "recovered", "shell");
  std::printf("%s\n", std::string(48, '-').c_str());
  for (int bits : {2, 4, 8}) {
    auto bf = attack::BruteForceCanary(isa::Arch::kVX86, bits,
                                       /*target_seed=*/4242,
                                       /*max_attempts=*/1u << bits);
    if (!bf.ok()) return Fail(bf.status());
    const defense::StackCanary knob(bits);
    std::printf("%6d %12.0f %10llu %10s %6s\n", bits,
                knob.ExpectedBruteForceAttempts(),
                static_cast<unsigned long long>(bf.value().attempts),
                bf.value().recovered ? "yes" : "no",
                bf.value().shell ? "yes" : "no");
    if (!bf.value().recovered) {
      std::printf("narrowed canary should be recoverable!\n");
      return 1;
    }
  }
  std::printf("cost doubles per bit; the default 32-bit guard needs ~2^31\n"
              "volleys against a non-respawning randomised target.\n\n");

  // --- 4. Stochastic diversity ---------------------------------------------
  std::printf("== stochastic diversity: survival over re-randomised boots ==\n");
  std::printf("%-6s %-16s %7s %7s %8s %7s %9s\n", "arch", "attack", "boots",
              "shells", "crashes", "other", "survival");
  std::printf("%s\n", std::string(66, '-').c_str());
  struct DivRow {
    isa::Arch arch;
    loader::ProtectionConfig base;
    const char* label;
  };
  const DivRow rows[] = {
      {isa::Arch::kVX86, loader::ProtectionConfig::None(), "code-inject"},
      {isa::Arch::kVX86, loader::ProtectionConfig::WxOnly(), "ret2libc"},
      {isa::Arch::kVARM, loader::ProtectionConfig::WxOnly(), "gadget-execlp"},
      {isa::Arch::kVARM, loader::ProtectionConfig::WxAslr(), "rop-chain"},
  };
  for (const DivRow& row : rows) {
    auto stats = attack::MeasureDiversityResistance(row.arch, row.base,
                                                    /*trials=*/16,
                                                    /*seed0=*/9000);
    if (!stats.ok()) return Fail(stats.status());
    const attack::DiversityTrialStats& s = stats.value();
    std::printf("%-6s %-16s %7d %7d %8d %7d %8.0f%%\n",
                std::string(isa::ArchName(row.arch)).c_str(), row.label,
                s.trials, s.shells, s.crashes, s.other + s.traps,
                100.0 * s.survival_rate());
  }
  std::printf("\nExpected shape: code injection survives every boot (it\n"
              "targets the stack, which diversity does not move); the\n"
              "address-reuse attacks die on (nearly) every re-randomised\n"
              "layout — DAEDALUS turns deterministic RCE into a lottery.\n");
  return FinishObs(scope, metrics_path, trace_path);
}
