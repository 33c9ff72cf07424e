// Differential correctness gate for the VM's fast paths: the superblock
// tier, dirty-page-only restores and snapshot fast reboots must be pure
// speedups.
//
// Every scenario below runs with the superblock tier on and off and is
// compared with the reference — the plain interpreter, fetch + decode
// every step and, for fuzz replays, a full loader re-Boot after every
// corrupting exec instead of a dirty-page snapshot restore. Stop reasons,
// failure details, retired-step counts, crash-bucket sets and coverage
// digests must be identical. Any divergence means a fast path served a
// stale decode or block, or a restore differs from a real boot, and fails
// the build.
//
// Both tiers run each op's one definition (src/vm/ops.hpp), so the tier
// comparison checks the tier's own work: block formation, side exits,
// self-loop re-entry, the mid-block SMC exit, budgets, breakpoints and the
// bulk copy passes. What each op does is pinned by the per-op goldens in
// tests/test_ops.cpp, which a semantics edit both tiers share still fails.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/attack/matrix.hpp"
#include "src/fuzz/corpus.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/cpu.hpp"

namespace connlab {
namespace {

constexpr vm::ExecConfig kInterpreter{.superblocks = false};

std::vector<attack::AttackResult> RunMatrix(const vm::ExecConfig& exec) {
  auto rows = attack::RunSixAttackMatrix(4242, exec);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return {};
  return std::move(rows).value();
}

/// The six-attack matrix — every protection level × technique outcome from
/// the paper — with the superblock tier on, row for row against the
/// interpreter reference. A compiled block serving one stale op anywhere in
/// the exploit chains (SMC shellcode, W^X flips, canary/CFI traps, diversity
/// reshuffles) moves a row and fails this.
TEST(Differential, SixAttackMatrixIdenticalAcrossModes) {
  const std::vector<attack::AttackResult> reference = RunMatrix(kInterpreter);
  ASSERT_FALSE(reference.empty());
  const std::vector<attack::AttackResult> rows = RunMatrix(vm::ExecConfig{});
  ASSERT_EQ(rows.size(), reference.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i) + ": " + rows[i].RowLabel());
    EXPECT_EQ(rows[i].kind, reference[i].kind);
    EXPECT_EQ(rows[i].shell, reference[i].shell);
    EXPECT_EQ(rows[i].crash, reference[i].crash);
    EXPECT_EQ(rows[i].exploit_available, reference[i].exploit_available);
    EXPECT_EQ(rows[i].failure, reference[i].failure);
    EXPECT_EQ(rows[i].detail, reference[i].detail);
    EXPECT_EQ(rows[i].guest_steps, reference[i].guest_steps);
    EXPECT_EQ(rows[i].payload_bytes, reference[i].payload_bytes);
    EXPECT_EQ(rows[i].response_bytes, reference[i].response_bytes);
  }
}

fuzz::FuzzConfig ReplayConfig(const vm::ExecConfig& exec, bool fast_reset) {
  fuzz::FuzzConfig config;
  config.target.kind = fuzz::TargetKind::kDnsproxy;
  config.target.fast_reset = fast_reset;
  config.target.exec = exec;
  config.seed = 42;
  config.max_execs = 3000;
  config.workers = 1;
  config.minimize = false;
  return config;
}

struct ReplayOutcome {
  std::uint64_t digest = 0;
  std::size_t coverage_cells = 0;
  std::size_t buckets = 0;
  std::uint64_t crashing_execs = 0;
  std::size_t corpus_size = 0;
};

ReplayOutcome RunReplay(const fuzz::FuzzConfig& config) {
  auto report = fuzz::Fuzzer(config).Run();
  EXPECT_TRUE(report.ok());
  ReplayOutcome out;
  if (!report.ok()) return out;
  out.digest = report.value().stats.coverage_digest;
  out.coverage_cells = report.value().stats.coverage_cells;
  out.buckets = report.value().triage.buckets().size();
  out.crashing_execs = report.value().stats.crashing_execs;
  out.corpus_size = report.value().stats.corpus_size;
  return out;
}

void ExpectSameOutcome(const ReplayOutcome& out, const ReplayOutcome& ref) {
  EXPECT_EQ(out.digest, ref.digest);
  EXPECT_EQ(out.coverage_cells, ref.coverage_cells);
  EXPECT_EQ(out.buckets, ref.buckets);
  EXPECT_EQ(out.crashing_execs, ref.crashing_execs);
  EXPECT_EQ(out.corpus_size, ref.corpus_size);
}

/// Fixed-seed 3,000-exec fuzz replay under `exec` (snapshot reboots on,
/// so dirty-only restores actually engage) against the interpreter
/// reference, which re-runs the loader instead of restoring. Coverage is
/// recorded per retired instruction inside compiled blocks, so even the
/// AFL edge stream must not move.
void ExpectReplayMatchesReference(const vm::ExecConfig& exec) {
  const ReplayOutcome reference =
      RunReplay(ReplayConfig(kInterpreter, /*fast_reset=*/false));
  ExpectSameOutcome(RunReplay(ReplayConfig(exec, /*fast_reset=*/true)),
                    reference);
}

TEST(Differential, FuzzReplayIdenticalAcrossModes) {
  ExpectReplayMatchesReference(vm::ExecConfig{});  // superblock tier on
}

// Snapshot reboots alone: the same interpreter, restoring instead of
// re-running the loader.
TEST(Differential, FuzzReplayIdenticalOnInterpreterWithSnapshotReboots) {
  ExpectReplayMatchesReference(kInterpreter);
}

/// Multi-worker determinism with the superblock tier on: worker count must not
/// leak into the merged outcome, and two runs of the same config agree.
TEST(Differential, MultiWorkerSharedPlanCampaignIsDeterministic) {
  fuzz::FuzzConfig config = ReplayConfig(vm::ExecConfig{}, true);
  config.workers = 3;
  auto first = fuzz::Fuzzer(config).Run();
  auto second = fuzz::Fuzzer(config).Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().stats.execs, second.value().stats.execs);
  EXPECT_EQ(first.value().stats.coverage_digest,
            second.value().stats.coverage_digest);
  EXPECT_EQ(first.value().triage.buckets().size(),
            second.value().triage.buckets().size());
}

// --- PR 8: epoch-batched cross-worker sync ---------------------------------

ReplayOutcome RunMultiWorkerReplay(const vm::ExecConfig& exec,
                                   bool fast_reset, std::uint64_t sync) {
  fuzz::FuzzConfig config = ReplayConfig(exec, fast_reset);
  config.workers = 3;
  config.sync_interval = sync;
  return RunReplay(config);
}

/// The differential gate must keep holding once workers exchange corpus
/// deltas mid-campaign: for a FIXED sync setting, the fast paths and the
/// interpreter reference land on the same merged outcome. Sync on and sync off
/// are different (equally deterministic) campaigns — workers that absorb
/// each other's finds mutate different parents — so the comparison is
/// within each sync setting across VM modes, never across sync settings.
TEST(Differential, EpochSyncedReplayIdenticalAcrossVmModes) {
  // Three workers x 1000 execs, an exchange every 400: epochs fire mid-run.
  for (const std::uint64_t sync : {400, 0}) {
    SCOPED_TRACE("sync_interval=" + std::to_string(sync));
    ExpectSameOutcome(RunMultiWorkerReplay(vm::ExecConfig{}, true, sync),
                      RunMultiWorkerReplay(kInterpreter, false, sync));
  }
}

/// The PR 8 pinned eight-worker epoch-synced campaign with the superblock
/// tier on and off: both must land on the very digests committed before the
/// superblock tier existed (tests/test_fuzz.cpp pins the same constants).
/// This is the cross-PR anchor — the tier changed nothing observable, even
/// under worker-parallel execution with mid-campaign corpus exchanges.
TEST(Differential, EightWorkerSyncedDigestUnmovedByTierModes) {
  constexpr std::uint64_t kCoverageDigest = 0xd8788bc796ab373cULL;
  constexpr std::uint64_t kCorpusDigest = 0x9c372e9e5056301aULL;
  for (const bool superblocks : {false, true}) {
    SCOPED_TRACE(superblocks ? "superblocks" : "interpreter");
    fuzz::FuzzConfig config;
    config.target.kind = fuzz::TargetKind::kDnsproxy;
    config.target.exec.superblocks = superblocks;
    config.seed = 42;
    config.max_execs = 8000;
    config.workers = 8;
    config.sync_interval = 250;
    config.minimize = false;
    auto report = fuzz::Fuzzer(config).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().stats.coverage_digest, kCoverageDigest)
        << std::hex << report.value().stats.coverage_digest;
    std::uint64_t corpus_digest = 0xcbf29ce484222325ULL;  // FNV-1a 64
    for (const char c : fuzz::SerializeCorpus(report.value().corpus)) {
      corpus_digest ^= static_cast<std::uint8_t>(c);
      corpus_digest *= 0x100000001b3ULL;
    }
    EXPECT_EQ(corpus_digest, kCorpusDigest) << std::hex << corpus_digest;
  }
}

// --- ExecConfig plumbing ----------------------------------------------------

std::uint64_t Counter(const obs::MetricsSnapshot& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

/// One ExecConfig value reaches every boot a driver makes — the attacker's
/// lab boot as well as the victim's, every fuzz reboot — so a tier turned
/// off by the caller can never leak back on deep inside a driver. The
/// tier's own counters stay at zero with it off and move with it on, so
/// the zeros are not vacuous.
TEST(Differential, ExecConfigReachesEveryBoot) {
  {
    obs::Scope scope;
    ASSERT_FALSE(RunMatrix({.superblocks = false}).empty());
    const obs::MetricsSnapshot m = scope.Metrics();
    for (const auto& [name, value] : m.counters) {
      if (name.starts_with("vm.superblock.")) {
        EXPECT_EQ(value, 0u) << name;
      }
    }
  }
  {
    obs::Scope scope;
    ASSERT_FALSE(RunMatrix(vm::ExecConfig{}).empty());
    EXPECT_GT(Counter(scope.Metrics(), "vm.superblock.hits"), 0u);
  }
  {
    obs::Scope scope;
    RunReplay(ReplayConfig(vm::ExecConfig{}, /*fast_reset=*/true));
    EXPECT_GT(Counter(scope.Metrics(), "loader.restore_segments_dirty"), 0u);
  }
}

}  // namespace
}  // namespace connlab
