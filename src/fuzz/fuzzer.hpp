// The campaign driver: corpus scheduling, mutation, execution, triage.
//
// Single-worker mode is a classic coverage-guided loop: pick an entry
// (energy-weighted), mutate it `energy` times, run each mutant, admit
// coverage-increasing mutants to the corpus, bucket the crashers.
//
// Multi-worker mode shards the budget across N threads. Each worker boots
// its own System/target, keeps its own sharded virgin coverage map and
// corpus, and draws from util::Rng::Split(worker_index), so worker i's
// execution stream is a pure function of (root seed, i). With
// `sync_interval` > 0 the workers additionally rendezvous at epoch
// barriers (fuzz/sync.hpp) and exchange coverage-increasing finds in
// worker-index order — cross-pollination without scheduling-dependence:
// everything a worker absorbs at epoch e was itself deterministic, so the
// merged campaign stays bit-identical across runs for a fixed
// (seed, workers) pair, sync on or off. After join, classified coverage
// maps are OR-merged (commutative + associative), crash buckets are merged
// in worker-index order, and the corpora are merged deduplicated.
#pragma once

#include <cstdint>

#include "src/fuzz/corpus.hpp"
#include "src/fuzz/coverage.hpp"
#include "src/fuzz/target.hpp"
#include "src/fuzz/triage.hpp"
#include "src/util/status.hpp"

namespace connlab::fuzz {

class EpochExchange;

struct FuzzConfig {
  TargetConfig target;
  /// Root RNG seed; worker i draws from Split(i) of Rng(seed).
  std::uint64_t seed = 1;
  /// Total execution budget, split evenly across workers (seed executions
  /// included).
  std::uint64_t max_execs = 200000;
  std::size_t workers = 1;
  std::size_t max_input_size = 8192;
  /// Epoch-batched cross-worker sync: each worker attends a barrier every
  /// `sync_interval` of its own execs, publishing the coverage-increasing
  /// entries and virgin-map bits it found since the last barrier and
  /// absorbing the other workers' (in worker-index order). 0 disables the
  /// exchange — workers run fully independent, the pre-sync behaviour.
  /// Only meaningful when workers > 1; either setting is deterministic for
  /// a fixed (seed, workers).
  std::uint64_t sync_interval = 2000;
  /// When non-zero, a worker stops early once it has found this many
  /// distinct crash buckets (early-exit stays deterministic because each
  /// worker only consults its own buckets).
  std::uint64_t stop_after_crashes = 0;
  /// Minimize each bucket's witness after the loop.
  bool minimize = true;
  /// Persistent-corpus file. When set, Run() seeds every worker with the
  /// file's entries (if it exists), after the target's built-ins, and
  /// writes the merged corpus back after the campaign, so coverage
  /// accumulates across runs. A missing file is not an error — the first
  /// campaign creates it.
  std::string corpus_path;
  /// Mutation dictionary (see fuzz/dict.hpp). Empty = no dictionary ops,
  /// bit-identical behaviour to a build without the feature.
  std::vector<util::Bytes> dictionary;
  /// Distill the merged corpus (coverage-ranked greedy minimisation, see
  /// DistillCorpus) before writing it back to `corpus_path`, so the
  /// persistent corpus stays a minimal covering set instead of growing
  /// without bound across nightly re-seeds.
  bool distill = false;
};

struct FuzzStats {
  std::uint64_t execs = 0;           // total inputs run (all workers)
  std::uint64_t crashing_execs = 0;  // non-benign results, pre-dedup
  std::uint64_t reboots = 0;         // the campaign's, not the minimizer's
  std::size_t corpus_size = 0;       // merged deduplicated corpus entries
  std::uint32_t coverage_cells = 0;  // non-zero cells in the merged map
  std::uint64_t coverage_digest = 0; // order-independent merged-map digest
  double seconds = 0;                // wall clock, campaign start to join
  double execs_per_sec = 0;          // execs / wall seconds
  /// Summed per-worker thread-CPU time (CLOCK_THREAD_CPUTIME_ID): time the
  /// workers actually computed, excluding scheduler wait and epoch-barrier
  /// blocking. On an unloaded host with >= workers cores this approximates
  /// workers * wall.
  double busy_seconds = 0;
  /// Sum over workers of (worker execs / worker busy seconds) — the
  /// software-scalability throughput: what the same campaign sustains on a
  /// host with enough cores to run every worker concurrently. Equals
  /// execs_per_sec there; on an oversubscribed host wall-clock throughput
  /// flattens while this stays honest about per-worker cost.
  double execs_per_sec_aggregate = 0;
};

struct FuzzReport {
  FuzzStats stats;
  CrashTriage triage;    // merged + (optionally) minimized buckets
  CoverageMap coverage;  // merged classified coverage
  Corpus corpus;         // merged (deduplicated) corpus across workers
};

/// Coverage-ranked corpus distillation: re-executes every entry against a
/// fresh target, then greedily keeps the entry covering the most
/// still-uncovered (classified) cells until the kept set covers everything
/// the full corpus covers. Ties break toward smaller inputs, then lower
/// index, so the result is deterministic. Entries contributing no new
/// coverage are dropped — the accumulation-only re-seed's failure mode.
util::Result<Corpus> DistillCorpus(const Corpus& corpus,
                                   const TargetConfig& target_config);

class Fuzzer {
 public:
  explicit Fuzzer(FuzzConfig config) noexcept : config_(config) {}

  /// Runs the campaign to completion and returns the merged report.
  util::Result<FuzzReport> Run();

 private:
  struct WorkerOutput {
    util::Status status = util::OkStatus();
    CoverageMap virgin;  // classified accumulated coverage
    CrashTriage triage;
    std::vector<CorpusEntry> corpus_entries;  // for cross-run persistence
    std::uint64_t execs = 0;
    std::uint64_t crashing_execs = 0;
    std::uint64_t reboots = 0;
    double busy_seconds = 0;  // this worker's thread-CPU time
  };

  /// One worker's whole campaign slice; pure function of (config, index,
  /// persisted) plus — when `exchange` is non-null — the other workers'
  /// published epoch deltas, themselves deterministic. `persisted` (the
  /// corpus_path entries) joins the seed round.
  static WorkerOutput RunWorker(const FuzzConfig& config,
                                const std::vector<CorpusEntry>& persisted,
                                std::size_t worker_index,
                                std::uint64_t budget,
                                EpochExchange* exchange);

  FuzzConfig config_;
};

}  // namespace connlab::fuzz
