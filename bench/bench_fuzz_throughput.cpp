// E11/E18 — fuzzing throughput: executions/second for the dnsproxy target,
// single- vs multi-worker, plus the determinism contract (identical root
// seed => identical merged coverage digest and crash buckets, regardless
// of worker scheduling).
//
// Ladder methodology (E18): every rung runs a fixed budget *per worker*
// (kExecsPerWorker each), so per-worker boot + seed-round fixed costs stay
// constant up the ladder instead of dominating an ever-thinner slice of a
// fixed total — the old split-20K-across-8 ladder could not show scaling
// even when it existed. Two throughput numbers per rung:
//
//   aggregate = sum over workers of (execs / worker thread-CPU seconds).
//     Thread-CPU time excludes scheduler wait and epoch-barrier blocking,
//     so this is the software-scalability number: what the campaign
//     sustains on a host with >= N unloaded cores. It is the honest answer
//     to "does the engine scale?" on a CI runner with fewer cores, where
//     wall-clock physically cannot exceed 1x. `host_concurrency` is
//     recorded alongside so readers can tell which regime produced the
//     artifact; on a host with >= N cores, aggregate ~= wall.
//   wall = execs / wall seconds — whatever this machine actually delivered.
//
// `--json[=path]` additionally writes BENCH_fuzz.json for CI, including the
// `execs_per_sec_w{1,2,4,8}` aggregate ladder, `wall_execs_per_sec_w{N}`,
// and the gated `speedup_w8` scaling ratio; `--workers N` restricts both
// the table and the ladder to a single worker count.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/fuzz/mutator.hpp"

using namespace connlab;

namespace {

/// Fixed budget per worker: rung N executes N * this many inputs.
constexpr std::uint64_t kExecsPerWorker = 20000;

/// Strips `--workers N` / `--workers=N` from argv. Returns 0 when absent
/// (meaning: sweep the default 1/2/4/8 ladder).
std::size_t TakeWorkersFlag(int& argc, char** argv) {
  std::size_t workers = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<std::size_t>(
          std::strtoul(arg.c_str() + sizeof("--workers=") - 1, nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return workers;
}

std::vector<std::size_t> WorkerSweep(std::size_t only) {
  if (only != 0) return {only};
  return {1, 2, 4, 8};
}

fuzz::FuzzConfig CampaignConfig(std::size_t workers, std::uint64_t execs) {
  fuzz::FuzzConfig config;
  config.target.kind = fuzz::TargetKind::kDnsproxy;
  config.seed = 42;
  config.max_execs = execs;
  config.workers = workers;
  config.minimize = false;
  return config;
}

/// The heap-class campaign: camstored execs carry allocator work (real
/// Alloc/Free walks in guest memory) on top of parsing, so this gauges the
/// guest-heap subsystem's cost, not just the HTTP front end.
fuzz::FuzzConfig HeapCampaignConfig(std::size_t workers, std::uint64_t execs) {
  fuzz::FuzzConfig config = CampaignConfig(workers, execs);
  config.target.kind = fuzz::TargetKind::kCamstored;
  return config;
}

/// One fixed-per-worker-budget ladder (see file comment for methodology).
void PrintLadder(const char* label, bool heap, std::size_t workers_flag) {
  std::printf("-- %s, %llu execs per worker --\n", label,
              static_cast<unsigned long long>(kExecsPerWorker));
  std::printf("%8s %10s %14s %9s %12s %8s  %s\n", "workers", "execs",
              "aggregate/sec", "speedup", "wall/sec", "buckets",
              "coverage digest");
  std::printf("%s\n", std::string(92, '-').c_str());
  double single = 0;
  for (const std::size_t workers : WorkerSweep(workers_flag)) {
    const std::uint64_t execs = kExecsPerWorker * workers;
    auto report =
        fuzz::Fuzzer(heap ? HeapCampaignConfig(workers, execs)
                          : CampaignConfig(workers, execs))
            .Run();
    if (!report.ok()) {
      std::printf("campaign failed: %s\n", report.status().ToString().c_str());
      return;
    }
    const fuzz::FuzzStats& s = report.value().stats;
    if (workers == 1) single = s.execs_per_sec_aggregate;
    std::printf("%8zu %10llu %14.0f %8.2fx %12.0f %8zu  %016llx\n", workers,
                static_cast<unsigned long long>(s.execs),
                s.execs_per_sec_aggregate,
                single > 0 ? s.execs_per_sec_aggregate / single : 0.0,
                s.execs_per_sec,
                report.value().triage.buckets().size(),
                static_cast<unsigned long long>(s.coverage_digest));
  }
  std::printf("\n");
}

void PrintTable(std::size_t workers_flag) {
  std::printf("== E11/E18: fuzzing throughput — seed 42 ==\n");
  std::printf("host concurrency: %u thread(s); aggregate = per-worker\n"
              "thread-CPU throughput (~= wall on an unloaded >=N-core host),\n"
              "wall = this machine's delivered rate\n\n",
              std::thread::hardware_concurrency());
  PrintLadder("dnsproxy (stack-smash class)", false, workers_flag);
  PrintLadder("camstored (heap class)", true, workers_flag);

  // Determinism: the same (seed, workers) pair must reproduce the exact
  // merged coverage and bucket set run after run — epoch-sync on.
  auto a = fuzz::Fuzzer(CampaignConfig(4, 8000)).Run();
  auto b = fuzz::Fuzzer(CampaignConfig(4, 8000)).Run();
  if (a.ok() && b.ok()) {
    const bool digests =
        a.value().stats.coverage_digest == b.value().stats.coverage_digest;
    const bool buckets =
        a.value().triage.buckets().size() == b.value().triage.buckets().size();
    std::printf("determinism (4 workers, two runs): digest %s, buckets %s\n\n",
                digests ? "identical" : "DIVERGED",
                buckets ? "identical" : "DIVERGED");
  }
}

void BM_ExecuteBenignSeed(benchmark::State& state) {
  fuzz::TargetConfig config;
  auto target = fuzz::MakeTarget(config).value();
  const auto seeds = target->SeedCorpus();
  fuzz::CoverageMap map;
  for (auto _ : state) {
    benchmark::DoNotOptimize(target->Execute(seeds[0], map));
  }
}
BENCHMARK(BM_ExecuteBenignSeed);

void BM_MutateDnsInput(benchmark::State& state) {
  fuzz::TargetConfig config;
  auto target = fuzz::MakeTarget(config).value();
  const auto seeds = target->SeedCorpus();
  fuzz::Mutator mutator(util::Rng(1));
  const fuzz::MutationHint hint{target->fixed_prefix(), true, 8192};
  util::Bytes scratch;
  for (auto _ : state) {
    mutator.MutateInto(seeds[0], hint, seeds[1], scratch);
    benchmark::DoNotOptimize(scratch);
  }
}
BENCHMARK(BM_MutateDnsInput);

void BM_Campaign(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto report = fuzz::Fuzzer(CampaignConfig(workers, 2000)).Run();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_Campaign)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// Legacy vs fast VM mode on a 1-worker campaign: legacy = the superblock
/// tier off (plain interpreter, fetch/decode every step) + full loader
/// re-Boot per corruption; fast = the defaults (superblock tier,
/// dirty-page snapshot-restore reboots). Same seed, so the coverage digests
/// must match — the speedup is free only if behaviour is identical.
void CompareModes(const std::string& json_path, std::size_t workers_flag) {
  constexpr std::uint64_t kExecs = kExecsPerWorker;

  fuzz::FuzzConfig legacy_config = CampaignConfig(1, kExecs);
  legacy_config.target.fast_reset = false;
  legacy_config.target.exec.superblocks = false;
  auto legacy = fuzz::Fuzzer(legacy_config).Run();
  auto fast = fuzz::Fuzzer(CampaignConfig(1, kExecs)).Run();
  if (!legacy.ok() || !fast.ok()) {
    std::printf("mode comparison failed\n");
    return;
  }
  const fuzz::FuzzStats& ls = legacy.value().stats;
  const fuzz::FuzzStats& fs = fast.value().stats;
  const double speedup =
      ls.execs_per_sec > 0 ? fs.execs_per_sec / ls.execs_per_sec : 0;
  const bool digests_match = ls.coverage_digest == fs.coverage_digest;

  std::printf("== legacy vs fast VM mode — dnsproxy, 1 worker, seed 42 ==\n");
  std::printf("%-34s %12s %9s\n", "mode", "execs/sec", "reboots");
  std::printf("%s\n", std::string(58, '-').c_str());
  std::printf("%-34s %12.0f %9llu\n", "legacy (all off, full re-Boot)",
              ls.execs_per_sec, static_cast<unsigned long long>(ls.reboots));
  std::printf("%-34s %12.0f %9llu\n", "fast (all on + snapshot)",
              fs.execs_per_sec, static_cast<unsigned long long>(fs.reboots));
  std::printf("speedup: %.2fx, coverage digest %s\n\n", speedup,
              digests_match ? "identical" : "DIVERGED");

  auto heap = fuzz::Fuzzer(HeapCampaignConfig(1, kExecs)).Run();
  if (heap.ok()) {
    std::printf("heap-class campaign (camstored, 1 worker): %.0f execs/sec\n\n",
                heap.value().stats.execs_per_sec);
  }

  if (!json_path.empty()) {
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fs.coverage_digest));
    benchout::JsonWriter json;
    json.String("bench", "fuzz_throughput");
    json.String("target", "dnsproxy");
    json.Integer("execs", fs.execs);
    json.Number("execs_per_sec_legacy", ls.execs_per_sec);
    json.Number("execs_per_sec", fs.execs_per_sec);
    json.Number("speedup", speedup);
    json.Integer("reboots", fs.reboots);
    json.Bool("digest_matches_legacy", digests_match);
    json.String("coverage_digest", digest);
    if (heap.ok()) {
      json.Number("execs_per_sec_heap", heap.value().stats.execs_per_sec);
    }
    // The worker-scaling ladder: kExecsPerWorker per worker per rung (see
    // the file comment). `execs_per_sec_wN` is the thread-CPU aggregate —
    // the number the regression gate and the speedup_w8 ratio ride on —
    // and `wall_execs_per_sec_wN` records what this host's core count
    // actually delivered (prefix chosen so only the aggregate is gated).
    json.Integer("host_concurrency", std::thread::hardware_concurrency());
    double w1_aggregate = 0;
    double w8_aggregate = 0;
    for (const std::size_t w : WorkerSweep(workers_flag)) {
      auto scaled =
          fuzz::Fuzzer(CampaignConfig(w, kExecsPerWorker * w)).Run();
      if (!scaled.ok()) continue;
      const fuzz::FuzzStats& s = scaled.value().stats;
      if (w == 1) w1_aggregate = s.execs_per_sec_aggregate;
      if (w == 8) w8_aggregate = s.execs_per_sec_aggregate;
      char key[40];
      std::snprintf(key, sizeof(key), "execs_per_sec_w%zu", w);
      json.Number(key, s.execs_per_sec_aggregate);
      std::snprintf(key, sizeof(key), "wall_execs_per_sec_w%zu", w);
      json.Number(key, s.execs_per_sec);
    }
    // The scaling headline: parallel efficiency of the 8-worker rung. The
    // regression gate holds this >= its baseline so the ladder can never
    // silently flatten back out.
    if (w1_aggregate > 0 && w8_aggregate > 0) {
      json.Number("speedup_w8", w8_aggregate / w1_aggregate);
    }
    json.WriteFile(json_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      benchout::TakeJsonFlag(argc, argv, "BENCH_fuzz.json");
  const std::size_t workers_flag = TakeWorkersFlag(argc, argv);
  if (!json_path.empty()) {
    // CI smoke mode: just the mode comparison + artifact, no microbenches.
    CompareModes(json_path, workers_flag);
    return 0;
  }
  PrintTable(workers_flag);
  CompareModes("", workers_flag);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
