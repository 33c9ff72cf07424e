// E12 — mitigation overhead on benign traffic (§IV cost side): what each
// defense costs a healthy device. For every standard policy the table
// reports the guest instructions one benign dnsproxy response retires and
// the host-side wall time per boot and per response; the BENCHMARK section
// then measures the same loops under the harness for calibrated timings.
//
// Expected shape: guest instruction counts are IDENTICAL across policies —
// the checks are modeled in the VM/runtime layer (hardware-CFI-style
// shadow bookkeeping in call/ret dispatch, host-side guard compare in the
// epilogue), not as extra guest code. The measurable costs are host-side:
// CFI's per-call/ret bookkeeping, the canary's one compare per frame, and
// diversity's boot-time shuffle + gap padding (per-response cost ~zero).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/adapt/camstored.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/defense/mitigation.hpp"
#include "src/dns/record.hpp"
#include "src/loader/boot.hpp"

using namespace connlab;

namespace {

/// One benign query/response round-trip; returns the guest instruction
/// count the response path retired (the delta on the CPU's lifetime
/// counter — a response runs several guest fragments, not one Run()).
std::uint64_t BenignResponseSteps(loader::System& sys,
                                  connman::DnsProxy& proxy, std::uint16_t id) {
  const std::uint64_t before = sys.cpu->steps_executed();
  dns::Message query = dns::Message::Query(id, "host.example");
  (void)proxy.AcceptClientQuery(dns::Encode(query).value());
  dns::Message response = dns::Message::ResponseFor(query);
  response.answers.push_back(dns::MakeA("host.example", "1.2.3.4"));
  (void)proxy.HandleServerResponse(dns::Encode(response).value());
  return sys.cpu->steps_executed() - before;
}

void PrintOverheadTable() {
  std::printf("== E12: per-mitigation overhead, benign dnsproxy workload ==\n");
  std::printf("%-6s %-10s %12s %14s %11s %12s\n", "arch", "defense", "boot us",
              "steps/resp", "us/resp", "overhead");
  std::printf("%s\n", std::string(70, '-').c_str());
  for (isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    std::uint64_t baseline = 0;
    for (const defense::DefensePolicy& policy : defense::StandardPolicies()) {
      // Boot cost is host-side (image build + shuffle + gap padding);
      // average a handful of boots.
      constexpr int kBoots = 8;
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kBoots; ++i) {
        auto warm = policy.BootHardened(
            arch, loader::ProtectionConfig::WxOnly(),
            /*seed=*/static_cast<std::uint64_t>(7 + i));
        benchmark::DoNotOptimize(warm);
      }
      const double boot_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count() /
          kBoots;
      auto sys = policy.BootHardened(arch, loader::ProtectionConfig::WxOnly(),
                                     /*seed=*/7)
                     .value();
      connman::DnsProxy proxy(*sys, connman::Version::k134);
      // Warm one response, then average a small steady-state window.
      (void)BenignResponseSteps(*sys, proxy, 1);
      std::uint64_t steps = 0;
      constexpr int kRounds = 64;
      const auto r0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kRounds; ++i) {
        steps += BenignResponseSteps(*sys, proxy,
                                     static_cast<std::uint16_t>(100 + i));
      }
      const double resp_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - r0)
              .count() /
          kRounds;
      steps /= kRounds;
      if (policy.empty()) baseline = steps;
      const double overhead =
          baseline > 0
              ? 100.0 * (static_cast<double>(steps) - baseline) / baseline
              : 0.0;
      std::printf("%-6s %-10s %12.1f %14llu %11.1f %+11.2f%%\n",
                  std::string(isa::ArchName(arch)).c_str(),
                  policy.Label().c_str(), boot_us,
                  static_cast<unsigned long long>(steps), resp_us, overhead);
    }
  }
  std::printf(
      "\nShape: every policy retires the SAME guest instruction count per\n"
      "benign response (+0.00%%) — the checks live in the VM/runtime layer\n"
      "(shadow-stack bookkeeping inside call/ret dispatch, guard-word\n"
      "compare in the epilogue), not in extra guest code, mirroring\n"
      "hardware CFI and a register-held canary. The real costs are\n"
      "host-side: per-call/ret shadow bookkeeping (CFI, see the timed\n"
      "BM_BenignResponseByDefense deltas), one compare per frame (canary),\n"
      "and boot-time re-randomisation (diversity — the boot column and\n"
      "BM_BootByDefense). Blocking all six attacks costs benign traffic\n"
      "effectively nothing.\n\n");
}

/// Heap-integrity cost on benign camstored traffic: every round is one
/// PUT (Alloc + copy) and one DELETE (Free), so the armed allocator pays
/// its canary + safe-unlink checks once per Free. The dnsproxy table
/// above cannot see this — its workload never touches the guest heap.
void PrintHeapIntegrityTable() {
  std::printf("== heap-integrity overhead, benign camstored workload ==\n");
  std::printf("%-6s %-12s %12s %11s %11s %12s\n", "arch", "allocator",
              "words/round", "word ovhd", "us/round", "time ovhd");
  std::printf("%s\n", std::string(68, '-').c_str());
  for (isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    double baseline_us = 0;
    double baseline_words = 0;
    for (const bool integrity : {false, true}) {
      loader::ProtectionConfig prot = loader::ProtectionConfig::WxOnly();
      prot.heap_integrity = integrity;
      auto sys = loader::Boot(arch, prot, /*seed=*/7).value();
      adapt::Camstored cam(*sys);
      const auto put =
          adapt::Camstored::WrapInPut(util::Bytes(56, 'a'), "snap", 64);
      const auto del = adapt::Camstored::WrapInDelete("snap");
      // Warm the arena, the superblock cache and the branch predictors: a
      // couple of cold rounds otherwise dominate a microsecond-scale loop.
      for (int i = 0; i < 64; ++i) {
        (void)cam.HandleRequest(put);
        (void)cam.HandleRequest(del);
      }
      // Best-of-N passes: the loop is ~1 us/round, so a scheduler
      // preemption inside a single pass would otherwise swamp the
      // allocator-check delta being measured.
      constexpr int kRounds = 4096;
      constexpr int kPasses = 5;
      double round_us = 0;
      const std::uint64_t ops_before = cam.heap().mem_ops();
      for (int pass = 0; pass < kPasses; ++pass) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kRounds; ++i) {
          (void)cam.HandleRequest(put);
          (void)cam.HandleRequest(del);
        }
        const double pass_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            kRounds;
        if (pass == 0 || pass_us < round_us) round_us = pass_us;
      }
      // Deterministic cost: allocator guest-memory words touched per
      // PUT+DELETE round. Wall time rides along but is runner-noisy.
      const double words =
          static_cast<double>(cam.heap().mem_ops() - ops_before) /
          (kRounds * kPasses);
      if (!integrity) {
        baseline_us = round_us;
        baseline_words = words;
      }
      const double word_overhead =
          baseline_words > 0 ? 100.0 * (words - baseline_words) / baseline_words
                             : 0.0;
      const double overhead =
          baseline_us > 0 ? 100.0 * (round_us - baseline_us) / baseline_us
                          : 0.0;
      std::printf("%-6s %-12s %12.1f %+10.2f%% %11.2f %+11.2f%%\n",
                  std::string(isa::ArchName(arch)).c_str(),
                  integrity ? "hardened" : "stock", words, word_overhead,
                  round_us, overhead);
    }
  }
  std::printf(
      "\nShape: the armed Free() adds a guard-word compare, a size\n"
      "plausibility check, and the fd->bk/bk->fd safe-unlink probes — a\n"
      "fixed handful of extra guest-memory words per operation (the\n"
      "deterministic words/round column), which is small next to the copy\n"
      "work a PUT already does, so wall time moves only a few percent.\n"
      "Heap integrity is the one defense in the grid that stops the\n"
      "camstored unlink exploit, and this table is its price tag.\n\n");
}

/// state.range(0) indexes into StandardPolicies(): 0=none 1=canary 2=CFI
/// 3=diversity 4=all.
void BM_BenignResponseByDefense(benchmark::State& state) {
  const std::vector<defense::DefensePolicy> policies =
      defense::StandardPolicies();
  const defense::DefensePolicy& policy =
      policies[static_cast<std::size_t>(state.range(0))];
  auto sys = policy.BootHardened(isa::Arch::kVARM,
                                 loader::ProtectionConfig::WxOnly(), 7)
                 .value();
  connman::DnsProxy proxy(*sys, connman::Version::k134);
  std::uint16_t id = 1;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    steps += BenignResponseSteps(*sys, proxy, id++);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(policy.Label() + ", " +
                 std::to_string(state.iterations() > 0
                                    ? steps / state.iterations()
                                    : 0) +
                 " guest steps/resp");
}
BENCHMARK(BM_BenignResponseByDefense)->DenseRange(0, 4);

void BM_BootByDefense(benchmark::State& state) {
  const std::vector<defense::DefensePolicy> policies =
      defense::StandardPolicies();
  const defense::DefensePolicy& policy =
      policies[static_cast<std::size_t>(state.range(0))];
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto sys = policy.BootHardened(isa::Arch::kVARM,
                                   loader::ProtectionConfig::WxOnly(), seed++);
    benchmark::DoNotOptimize(sys);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(policy.Label());
}
BENCHMARK(BM_BootByDefense)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintOverheadTable();
  PrintHeapIntegrityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
