// E13/E19/E23/E24 — VM hot-path throughput ladder: guest steps/second on
// the two execution tiers — vm::ExecConfig all off (the interpreter, which
// fetches and decodes every step) and all on (the superblock tier, the VM's
// only decode cache) — measured on the paper's x86 ROP chain replay, on a
// tight arithmetic loop and on connman.copy_label's byte-copy loop, plus the
// cost of a loader Boot vs a snapshot restore (the fuzzer's fast reboot).
// Table: steps/sec per tier with the superblock speedup; boot vs restore
// microseconds, full-copy vs dirty-page-only restores on a lightly-dirtied
// image. The interpreter column's JSON keys carry the `_legacy` suffix.
// Timing: single ROP delivery, Boot, TakeSnapshot and RestoreSnapshot
// (full and dirty-only).
// `--json[=path]` additionally writes BENCH_vm.json for CI.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_json.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/dns/craft.hpp"
#include "src/exploit/generator.hpp"
#include "src/exploit/profile.hpp"
#include "src/exploit/rop_x86.hpp"
#include "src/isa/assembler.hpp"
#include "src/loader/boot.hpp"
#include "src/loader/snapshot.hpp"

using namespace connlab;
using Clock = std::chrono::steady_clock;

namespace {

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// The two columns of the ladder: the plain interpreter (tier off) is the
/// superblock column's baseline.
constexpr vm::ExecConfig kInterpreter{.superblocks = false,
                                      .dirty_restores = false};
constexpr vm::ExecConfig kSuperblock{};

struct Throughput {
  double steps_per_sec = 0;
  std::uint64_t steps = 0;
};

/// The attacker's labels for the full x86 ROP chain, built once from a lab
/// boot (seed 100) exactly as bench_rop_x86 does.
dns::LabelSeq RopLabels() {
  auto lab =
      loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::WxAslr(), 100)
          .value();
  connman::DnsProxy lab_proxy(*lab, connman::Version::k134);
  exploit::ProfileExtractor extractor(*lab, lab_proxy);
  auto profile = extractor.Extract().value();
  auto image = exploit::BuildRopX86(profile, "/bin/sh").value();
  return dns::CutIntoLabels(image).value();
}

/// Repeated end-to-end ROP deliveries against one victim (the proxy recovers
/// cleanly after each hijack, so deliveries chain on a single boot).
Throughput MeasureRopReplay(const vm::ExecConfig& exec,
                            const dns::LabelSeq& labels, double budget_secs) {
  auto sys = loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::WxAslr(),
                          4242, exec)
                 .value();
  connman::DnsProxy proxy(*sys, connman::Version::k134);
  Throughput tp;
  const std::uint64_t steps0 = sys->cpu->steps_executed();
  std::uint16_t id = 1;
  const auto t0 = Clock::now();
  double secs = 0;
  do {
    dns::Message query = dns::Message::Query(id++, "victim.example");
    (void)proxy.AcceptClientQuery(dns::Encode(query).value());
    dns::Message evil = dns::MaliciousAResponse(query, labels);
    benchmark::DoNotOptimize(proxy.HandleServerResponse(dns::Encode(evil).value()));
    secs = Seconds(t0);
  } while (secs < budget_secs);
  tp.steps = sys->cpu->steps_executed() - steps0;
  tp.steps_per_sec = static_cast<double>(tp.steps) / secs;
  return tp;
}

/// A straight-line countdown loop in .scratch: the densest all-interpreter
/// workload (no host functions, no DNS framing).
Throughput MeasureTightLoop(const vm::ExecConfig& exec, double budget_secs) {
  auto sys =
      loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::None(), 7, exec)
          .value();
  const mem::GuestAddr scratch = sys->Sym("scratch.start").value();
  isa::Assembler as(isa::Arch::kVX86, scratch);
  isa::vx86::EncMovImm(as.w(), isa::kEAX, 100000000);
  as.Label("loop");
  isa::vx86::EncSubImm(as.w(), isa::kEAX, 1);
  isa::vx86::EncCmpImm(as.w(), isa::kEAX, 0);
  as.JnzLabel("loop");
  isa::vx86::EncHlt(as.w());
  const util::Bytes code = as.Finish().value();
  (void)sys->space.DebugWrite(scratch, code);
  (void)sys->space.Protect(".scratch", mem::kPermRX);

  Throughput tp;
  const auto t0 = Clock::now();
  double secs = 0;
  do {
    sys->cpu->set_pc(scratch);
    const vm::StopInfo stop = sys->cpu->Run(20000000);
    tp.steps += stop.steps;
    secs = Seconds(t0);
  } while (secs < budget_secs);
  tp.steps_per_sec = static_cast<double>(tp.steps) / secs;
  return tp;
}

/// connman.copy_label's loop, the one every dnsproxy exec spends its guest
/// steps in: a heap-to-stack byte copy through cmp/jz/ldb/stb/add/add/sub/
/// jmp, one load and one store per byte into different segments. The tight
/// loop above never touches memory, so it cannot see the memory front door
/// or a loop split into two blocks at its jz.
Throughput MeasureCopyLoop(const vm::ExecConfig& exec, double budget_secs) {
  namespace x = isa::vx86;
  auto sys =
      loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::None(), 7, exec)
          .value();
  const mem::GuestAddr scratch = sys->Sym("scratch.start").value();
  isa::Assembler as(isa::Arch::kVX86, scratch);
  as.Label("loop");
  x::EncCmpImm(as.w(), isa::kECX, 0);
  as.JzLabel("done");
  x::EncLoadByte(as.w(), isa::kEAX, isa::kESI, 0);
  x::EncStoreByte(as.w(), isa::kEAX, isa::kEDI, 0);
  x::EncAddImm(as.w(), isa::kEDI, 1);
  x::EncAddImm(as.w(), isa::kESI, 1);
  x::EncSubImm(as.w(), isa::kECX, 1);
  as.JmpLabel("loop");
  as.Label("done");
  x::EncHlt(as.w());
  const util::Bytes code = as.Finish().value();
  (void)sys->space.DebugWrite(scratch, code);
  (void)sys->space.Protect(".scratch", mem::kPermRX);

  // 1 KiB per run: a long DNS name's worth of labels in one copy.
  constexpr std::uint32_t kBytes = 1024;
  const mem::GuestAddr src = sys->layout.heap_base;
  const mem::GuestAddr dst = sys->layout.stack_base() + 0x1000;
  Throughput tp;
  const auto t0 = Clock::now();
  double secs = 0;
  do {
    for (int i = 0; i < 100; ++i) {
      sys->cpu->set_reg(isa::kESI, src);
      sys->cpu->set_reg(isa::kEDI, dst);
      sys->cpu->set_reg(isa::kECX, kBytes);
      sys->cpu->set_pc(scratch);
      const vm::StopInfo stop = sys->cpu->Run(16 * kBytes);
      tp.steps += stop.steps;
    }
    secs = Seconds(t0);
  } while (secs < budget_secs);
  tp.steps_per_sec = static_cast<double>(tp.steps) / secs;
  return tp;
}

struct RebootCost {
  double boot_us = 0;
  double restore_full_us = 0;
  double restore_dirty_us = 0;
};

RebootCost MeasureRebootCost() {
  RebootCost cost;
  constexpr int kBoots = 200;
  const auto t0 = Clock::now();
  for (int i = 0; i < kBoots; ++i) {
    auto sys =
        loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::None(), 1)
            .value();
    benchmark::DoNotOptimize(sys);
  }
  cost.boot_us = Seconds(t0) / kBoots * 1e6;

  // Full vs dirty-only restore on a lightly-dirtied image: each iteration
  // scribbles ~300 bytes of stack (two 256-byte pages) — the footprint of a
  // typical benign fuzz execution — before rewinding.
  auto sys =
      loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::None(), 1)
          .value();
  const loader::Snapshot snap = loader::TakeSnapshot(*sys);
  const mem::GuestAddr stack = sys->layout.stack_base();
  const util::Bytes scribble(300, 0xAA);
  constexpr int kRestores = 2000;

  const auto t1 = Clock::now();
  for (int i = 0; i < kRestores; ++i) {
    (void)sys->space.DebugWrite(stack, scribble);
    (void)loader::RestoreSnapshot(*sys, snap, loader::RestoreMode::kFull);
  }
  cost.restore_full_us = Seconds(t1) / kRestores * 1e6;

  const auto t2 = Clock::now();
  for (int i = 0; i < kRestores; ++i) {
    (void)sys->space.DebugWrite(stack, scribble);
    (void)loader::RestoreSnapshot(*sys, snap, loader::RestoreMode::kDirtyOnly);
  }
  cost.restore_dirty_us = Seconds(t2) / kRestores * 1e6;
  return cost;
}

// Globals so the google-benchmark fixtures reuse the table's setup.
dns::LabelSeq g_labels;  // NOLINT

void BM_RopDelivery(benchmark::State& state) {
  auto sys =
      loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::WxAslr(), 4242)
          .value();
  connman::DnsProxy proxy(*sys, connman::Version::k134);
  std::uint16_t id = 1;
  for (auto _ : state) {
    dns::Message query = dns::Message::Query(id++, "victim.example");
    (void)proxy.AcceptClientQuery(dns::Encode(query).value());
    dns::Message evil = dns::MaliciousAResponse(query, g_labels);
    benchmark::DoNotOptimize(
        proxy.HandleServerResponse(dns::Encode(evil).value()));
  }
}
BENCHMARK(BM_RopDelivery)->Unit(benchmark::kMicrosecond);

void BM_Boot(benchmark::State& state) {
  for (auto _ : state) {
    auto sys =
        loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::None(), 1)
            .value();
    benchmark::DoNotOptimize(sys);
  }
}
BENCHMARK(BM_Boot)->Unit(benchmark::kMicrosecond);

void BM_SnapshotTake(benchmark::State& state) {
  auto sys =
      loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::None(), 1)
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(loader::TakeSnapshot(*sys));
  }
}
BENCHMARK(BM_SnapshotTake)->Unit(benchmark::kMicrosecond);

void BM_SnapshotRestore(benchmark::State& state) {
  auto sys =
      loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::None(), 1)
          .value();
  const loader::Snapshot snap = loader::TakeSnapshot(*sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        loader::RestoreSnapshot(*sys, snap, loader::RestoreMode::kFull));
  }
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMicrosecond);

void BM_SnapshotRestoreDirty(benchmark::State& state) {
  auto sys =
      loader::Boot(isa::Arch::kVX86, loader::ProtectionConfig::None(), 1)
          .value();
  const loader::Snapshot snap = loader::TakeSnapshot(*sys);
  const mem::GuestAddr stack = sys->layout.stack_base();
  const util::Bytes scribble(300, 0xAA);
  for (auto _ : state) {
    (void)sys->space.DebugWrite(stack, scribble);
    benchmark::DoNotOptimize(
        loader::RestoreSnapshot(*sys, snap, loader::RestoreMode::kDirtyOnly));
  }
}
BENCHMARK(BM_SnapshotRestoreDirty)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      benchout::TakeJsonFlag(argc, argv, "BENCH_vm.json");
  // Short budgets when only the JSON artifact is wanted keep the CI smoke
  // step fast; the interactive table gets steadier numbers.
  const double budget = json_path.empty() ? 3.0 : 1.5;

  std::printf("== E13/E19/E24: VM hot path — interp / superblock ==\n\n");
  g_labels = RopLabels();

  const Throughput rop_interp = MeasureRopReplay(kInterpreter, g_labels, budget);
  const Throughput rop_sb = MeasureRopReplay(kSuperblock, g_labels, budget);
  const Throughput loop_interp = MeasureTightLoop(kInterpreter, budget);
  const Throughput loop_sb = MeasureTightLoop(kSuperblock, budget);
  const Throughput copy_interp = MeasureCopyLoop(kInterpreter, budget);
  const Throughput copy_sb = MeasureCopyLoop(kSuperblock, budget);
  const RebootCost reboot = MeasureRebootCost();

  const double sb_speedup = loop_sb.steps_per_sec / loop_interp.steps_per_sec;

  std::printf("%-18s %13s %13s %9s\n", "workload", "interp st/s",
              "superblk st/s", "sb spd");
  std::printf("%s\n", std::string(58, '-').c_str());
  std::printf("%-18s %13.0f %13.0f %8.2fx\n", "rop replay (x86)",
              rop_interp.steps_per_sec, rop_sb.steps_per_sec,
              rop_sb.steps_per_sec / rop_interp.steps_per_sec);
  std::printf("%-18s %13.0f %13.0f %8.2fx\n", "tight loop (x86)",
              loop_interp.steps_per_sec, loop_sb.steps_per_sec, sb_speedup);
  std::printf("%-18s %13.0f %13.0f %8.2fx\n", "label copy (x86)",
              copy_interp.steps_per_sec, copy_sb.steps_per_sec,
              copy_sb.steps_per_sec / copy_interp.steps_per_sec);
  std::printf("\nreboot: full Boot %.1f us, full restore %.1f us, "
              "dirty-only restore %.1f us\n"
              "        (restore %.1fx cheaper than Boot; dirty-only %.1fx "
              "cheaper than full,\n         lightly-dirtied image)\n\n",
              reboot.boot_us, reboot.restore_full_us, reboot.restore_dirty_us,
              reboot.boot_us / reboot.restore_dirty_us,
              reboot.restore_full_us / reboot.restore_dirty_us);

  if (!json_path.empty()) {
    benchout::JsonWriter json;
    json.String("bench", "vm_step");
    json.Number("rop_steps_per_sec_legacy", rop_interp.steps_per_sec);
    json.Number("rop_steps_per_sec_superblock", rop_sb.steps_per_sec);
    json.Number("loop_steps_per_sec_legacy", loop_interp.steps_per_sec);
    json.Number("loop_steps_per_sec_superblock", loop_sb.steps_per_sec);
    json.Number("superblock_speedup", sb_speedup);
    json.Number("copy_steps_per_sec_legacy", copy_interp.steps_per_sec);
    json.Number("copy_steps_per_sec_superblock", copy_sb.steps_per_sec);
    json.Number("boot_us", reboot.boot_us);
    // restore_us stays the headline key (the mode campaigns actually run,
    // now dirty-only); restore_full_us keeps the old wholesale copy visible.
    json.Number("restore_us", reboot.restore_dirty_us);
    json.Number("restore_full_us", reboot.restore_full_us);
    json.Number("dirty_restore_speedup",
                reboot.restore_full_us / reboot.restore_dirty_us);
    json.Number("reboot_speedup", reboot.boot_us / reboot.restore_dirty_us);
    json.WriteFile(json_path);
    return 0;  // CI smoke mode: skip the microbenchmark phase
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
