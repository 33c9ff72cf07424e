#include "src/fuzz/fuzzer.hpp"

#include <bit>
#include <chrono>
#include <ctime>
#include <vector>

#include "src/fuzz/mutator.hpp"
#include "src/fuzz/sync.hpp"
#include "src/obs/obs.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace connlab::fuzz {

namespace {

/// CPU time this thread has actually burned — barrier blocking and
/// scheduler wait don't accrue, which is exactly what makes the per-worker
/// throughput a host-independent scalability number.
double ThreadCpuSeconds() noexcept {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

Fuzzer::WorkerOutput Fuzzer::RunWorker(
    const FuzzConfig& config, const std::vector<CorpusEntry>& persisted,
    std::size_t worker_index, std::uint64_t budget, EpochExchange* exchange) {
  WorkerOutput out;
  const double busy_start = ThreadCpuSeconds();
  OBS_TRACE_SPAN(worker_span, "fuzz", "RunWorker");
  worker_span.Arg("worker", static_cast<std::uint64_t>(worker_index));
  worker_span.Arg("budget", budget);

  // Everything a worker publishes at a barrier accumulates here between
  // epochs; delta_sink routes AbsorbInto's newly-lit virgin bits in.
  std::size_t epoch = 0;
  EpochDelta epoch_out;
  std::vector<CoverageDelta>* delta_sink =
      exchange != nullptr ? &epoch_out.coverage : nullptr;
  const std::uint64_t interval =
      exchange != nullptr ? config.sync_interval : 0;

  auto target_or = MakeTarget(config.target);
  if (!target_or.ok()) {
    out.status = target_or.status();
    // The other workers' barriers must not starve because this worker never
    // fuzzes: keep attending with an empty done-flagged delta until the
    // whole fleet reports done.
    if (exchange != nullptr) {
      EpochDelta empty;
      empty.done = true;
      while (!EpochExchange::AllDone(
          exchange->ExchangeAndWait(worker_index, epoch++, empty))) {
      }
    }
    out.busy_seconds = ThreadCpuSeconds() - busy_start;
    return out;
  }
  std::unique_ptr<FuzzTarget> target = std::move(target_or).value();

  // Worker stream: depends only on (root seed, worker index), never on
  // thread scheduling. With sync on it additionally depends on the other
  // workers' published deltas — themselves deterministic, absorbed at
  // deterministic points, in fixed worker-index order.
  Mutator mutator(util::Rng(config.seed).Split(worker_index));
  util::Rng& rng = mutator.rng();

  const MutationHint hint{target->fixed_prefix(), target->dns_shaped(),
                          config.max_input_size,
                          config.dictionary.empty() ? nullptr
                                                    : &config.dictionary};

  Corpus corpus;
  CoverageMap exec_map;

  const auto run_one = [&](util::ByteSpan input) -> ExecResult {
    exec_map.Clear();
    ExecResult result = target->Execute(input, exec_map);
    ++out.execs;
    // Counted here and nowhere else, so the scraped fuzz.execs is exactly
    // the campaign's reported exec count (minimization and crash replays
    // deliberately bypass run_one and therefore the counter).
    OBS_COUNT("fuzz.execs");
    OBS_HISTOGRAM("fuzz.input_bytes", input.size());
    return result;
  };

  // Coverage-increasing mutants found mid-burst are queued here and flushed
  // after the burst: the corpus stays frozen while parent/donor references
  // into it are live, and the scheduler only ever sees a settled corpus.
  // `found_at` is captured at discovery time, so the admitted entries are
  // byte-identical to the old add-immediately behaviour (PickIndex runs only
  // between bursts either way).
  std::vector<CorpusEntry> pending;
  bool defer_adds = false;

  const auto record = [&](const ExecResult& result, util::ByteSpan input) {
    if (result.kind == ExecResult::Kind::kBenign) {
      exec_map.Classify();
      const int news = exec_map.AbsorbInto(out.virgin, delta_sink);
      if (news > 0) {
        OBS_COUNT("fuzz.corpus_adds");
        util::Bytes data(input.begin(), input.end());
        if (exchange != nullptr) {
          epoch_out.entries.push_back(CorpusEntry{data, news, out.execs, 0});
        }
        if (defer_adds) {
          pending.push_back(CorpusEntry{std::move(data), news, out.execs, 0});
        } else {
          corpus.Add(std::move(data), news, out.execs);
        }
      }
    } else {
      ++out.crashing_execs;
      OBS_COUNT("fuzz.crashes");
      OBS_TRACE_INSTANT("fuzz", "crash");
      out.triage.Record(result, input, out.execs, *target);
    }
  };

  // One barrier visit: publish the accumulated delta, wait for the row to
  // complete, and — unless this worker is done, its state frozen for the
  // merge — absorb the other workers' deltas in worker-index order. Never
  // call mid-burst: absorbing adds corpus entries, and the burst holds
  // references into the corpus.
  const auto attend = [&](bool worker_done) -> bool {
    epoch_out.done = worker_done;
    const std::vector<EpochDelta>& row =
        exchange->ExchangeAndWait(worker_index, epoch, std::move(epoch_out));
    epoch_out = EpochDelta{};
    ++epoch;
    if (!worker_done) {
      for (std::size_t j = 0; j < row.size(); ++j) {
        if (j == worker_index) continue;
        out.virgin.ApplyDelta(row[j].coverage);
        for (const CorpusEntry& e : row[j].entries) {
          corpus.Add(e.data, e.news, e.found_at);
        }
      }
    }
    return EpochExchange::AllDone(row);
  };

  // Seed round: every seed runs once and is admitted regardless of
  // coverage (the corpus must never start empty). A persisted corpus from
  // an earlier campaign joins the same round.
  for (const util::Bytes& seed : target->SeedCorpus()) {
    if (out.execs >= budget) break;
    const ExecResult result = run_one(seed);
    record(result, seed);
    corpus.Add(seed, 1, out.execs);
  }
  for (const CorpusEntry& seed : persisted) {
    if (out.execs >= budget) break;
    const ExecResult result = run_one(seed.data);
    record(result, seed.data);
    corpus.Add(seed.data, 1, out.execs);
  }

  const auto done = [&] {
    if (out.execs >= budget) return true;
    return config.stop_after_crashes != 0 &&
           out.triage.buckets().size() >= config.stop_after_crashes;
  };

  util::Bytes scratch;  // the mutant buffer, reused across every exec
  while (!done() && !corpus.empty()) {
    OBS_COUNT("fuzz.scheduler_picks");
    const std::size_t pick = corpus.PickIndex(rng);
    const std::uint32_t energy = corpus.EnergyFor(pick);
    // The corpus is frozen for the whole burst (adds are deferred), so the
    // parent and donor are plain references — no per-burst deep copies.
    const util::Bytes& parent = corpus.entry(pick).data;
    util::ByteSpan donor;
    if (corpus.size() > 1) {
      std::size_t d = rng.NextBelow(corpus.size());
      if (d == pick) d = (d + 1) % corpus.size();
      donor = corpus.entry(d).data;
    }
    defer_adds = true;
    for (std::uint32_t e = 0; e < energy && !done(); ++e) {
      mutator.MutateInto(parent, hint, donor, scratch);
      const ExecResult result = run_one(scratch);
      record(result, scratch);
    }
    defer_adds = false;
    for (CorpusEntry& e : pending) {
      corpus.Add(std::move(e.data), e.news, e.found_at);
    }
    pending.clear();
    // Fixed epoch grid over this worker's own exec count: bursts overrun a
    // boundary by up to their energy, so a single burst can cross several —
    // attend each in turn (the later ones publish empty deltas). The grid
    // depends on nothing but (budget position, interval), so attendance is
    // scheduling-independent.
    while (interval != 0 && !done() &&
           out.execs >= (epoch + 1) * interval) {
      attend(false);
    }
  }

  // Budget spent: keep the barrier alive for workers still fuzzing. The
  // final visit publishes whatever accumulated since the last boundary, and
  // the loop exits only when every worker has flagged done — all workers
  // agree on the final epoch. Runs before minimization so a slow shrink
  // can't stall the rest of the fleet at a barrier.
  if (exchange != nullptr) {
    while (!attend(true)) {
    }
  }

  // The campaign's own reboots: like fuzz.execs, they leave out the
  // minimizer's.
  out.reboots = target->reboots();

  // Minimization shrinks a witness by re-executing candidates and checking
  // they still land in the same bucket — a single-input property. Stateful
  // targets crash on request *sequences*, so shrinking one input against a
  // live daemon whose heap the campaign already reshaped proves nothing;
  // their buckets keep the full witness.
  if (config.minimize && !target->stateful_across_execs()) {
    for (CrashBucket& bucket : out.triage.buckets()) {
      MinimizeBucket(*target, bucket);
    }
  }

  out.corpus_entries = corpus.entries();
  OBS_COUNT_N("fuzz.reboots", out.reboots);
#ifndef CONNLAB_OBS_DISABLED
  // Per-worker throughput: the name varies per worker, so this has to hit
  // the registry directly instead of the per-call-site interning macro
  // (which would pin whichever worker index arrived first).
  obs::Registry::Instance()
      .GetCounter("fuzz.worker." + std::to_string(worker_index) + ".execs")
      .Add(out.execs);
#endif
  worker_span.Arg("execs", out.execs);
  worker_span.Arg("crashes", out.crashing_execs);
  out.busy_seconds = ThreadCpuSeconds() - busy_start;
  return out;
}

util::Result<FuzzReport> Fuzzer::Run() {
  if (config_.workers == 0) return util::InvalidArgument("workers must be >= 1");
  const std::size_t workers = config_.workers;
  // Exact budget split: the first max_execs % workers workers run one extra
  // exec, so the campaign executes precisely max_execs inputs instead of
  // silently truncating the remainder.
  const std::uint64_t base_budget = config_.max_execs / workers;
  const std::uint64_t remainder = config_.max_execs % workers;
  if (base_budget == 0) {
    return util::InvalidArgument("budget smaller than worker count");
  }

  const FuzzConfig& config = config_;
  Corpus persisted;
  if (!config.corpus_path.empty()) {
    // A missing file just means this is the first campaign on this path.
    auto loaded = LoadCorpus(config.corpus_path);
    if (loaded.ok()) {
      persisted = std::move(loaded).value();
    } else if (loaded.status().code() != util::StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  OBS_TRACE_SPAN(campaign_span, "fuzz", "Campaign");
  campaign_span.Arg("workers", static_cast<std::uint64_t>(workers));
  campaign_span.Arg("max_execs", config.max_execs);
  OBS_GAUGE_SET("fuzz.workers", workers);

  const auto start = std::chrono::steady_clock::now();
  std::vector<WorkerOutput> outputs(workers);
  const auto worker_budget = [base_budget, remainder](std::size_t i) {
    return base_budget + (i < remainder ? 1u : 0u);
  };
  EpochExchange exchange(workers);
  EpochExchange* sync =
      workers > 1 && config.sync_interval != 0 ? &exchange : nullptr;
  if (workers == 1) {
    outputs[0] =
        RunWorker(config, persisted.entries(), 0, worker_budget(0), nullptr);
  } else {
    util::ParallelInvoke(workers, [&](std::size_t i) {
      outputs[i] =
          RunWorker(config, persisted.entries(), i, worker_budget(i), sync);
    });
  }
  const auto end = std::chrono::steady_clock::now();

  FuzzReport report;
  // Merge in worker-index order: coverage OR is order-independent anyway;
  // bucket merge order fixes which worker's witness wins ties.
  for (std::size_t i = 0; i < workers; ++i) {
    WorkerOutput& w = outputs[i];
    if (!w.status.ok()) return w.status;
    report.coverage.MergeClassified(w.virgin);
    report.triage.Merge(w.triage);
    for (CorpusEntry& e : w.corpus_entries) {
      report.corpus.Add(std::move(e.data), e.news, e.found_at);
    }
    report.stats.execs += w.execs;
    report.stats.crashing_execs += w.crashing_execs;
    report.stats.reboots += w.reboots;
    report.stats.busy_seconds += w.busy_seconds;
    if (w.busy_seconds > 0) {
      report.stats.execs_per_sec_aggregate +=
          static_cast<double>(w.execs) / w.busy_seconds;
    }
  }
  report.stats.corpus_size = report.corpus.size();
  report.stats.coverage_cells = report.coverage.CountNonZero();
  report.stats.coverage_digest = report.coverage.Digest();
  report.stats.seconds =
      std::chrono::duration<double>(end - start).count();
  report.stats.execs_per_sec =
      report.stats.seconds > 0
          ? static_cast<double>(report.stats.execs) / report.stats.seconds
          : 0;
  if (config.distill) {
    CONNLAB_ASSIGN_OR_RETURN(report.corpus,
                             DistillCorpus(report.corpus, config.target));
    report.stats.corpus_size = report.corpus.size();
  }
  if (!config.corpus_path.empty()) {
    CONNLAB_RETURN_IF_ERROR(SaveCorpus(report.corpus, config.corpus_path));
  }
  return report;
}

namespace {

/// Bits set in `candidate` that `covered` lacks (both classified).
std::uint32_t NewBits(const CoverageMap& candidate,
                      const CoverageMap& covered) noexcept {
  std::uint32_t bits = 0;
  const std::uint8_t* c = candidate.data();
  const std::uint8_t* v = covered.data();
  for (const std::uint16_t i : candidate.touched()) {
    bits += static_cast<std::uint32_t>(
        std::popcount(static_cast<std::uint8_t>(c[i] & ~v[i])));
  }
  return bits;
}

}  // namespace

util::Result<Corpus> DistillCorpus(const Corpus& corpus,
                                   const TargetConfig& target_config) {
  OBS_TRACE_SPAN(span, "fuzz", "DistillCorpus");
  span.Arg("entries_in", static_cast<std::uint64_t>(corpus.size()));
  Corpus kept;
  if (corpus.empty()) return kept;
  CONNLAB_ASSIGN_OR_RETURN(std::unique_ptr<FuzzTarget> target,
                           MakeTarget(target_config));

  // Re-execute every entry in corpus order (deterministic: stateful targets
  // see the same request sequence every distillation run) and keep its
  // classified per-entry map.
  std::vector<CoverageMap> maps(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    target->Execute(corpus.entry(i).data, maps[i]);
    maps[i].Classify();
  }

  // Greedy set cover over coverage bits: repeatedly keep the entry adding
  // the most uncovered bits; ties break toward smaller inputs, then lower
  // index. Stops when the remaining entries add nothing.
  CoverageMap covered;
  std::vector<bool> used(corpus.size(), false);
  for (;;) {
    std::size_t best = corpus.size();
    std::uint32_t best_bits = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (used[i]) continue;
      const std::uint32_t bits = NewBits(maps[i], covered);
      if (bits == 0) continue;
      const bool wins =
          best == corpus.size() || bits > best_bits ||
          (bits == best_bits &&
           corpus.entry(i).data.size() < corpus.entry(best).data.size());
      if (wins) {
        best = i;
        best_bits = bits;
      }
    }
    if (best == corpus.size()) break;
    used[best] = true;
    covered.MergeClassified(maps[best]);
    const CorpusEntry& e = corpus.entry(best);
    kept.Add(e.data, e.news, e.found_at);
  }
  span.Arg("entries_out", static_cast<std::uint64_t>(kept.size()));
  return kept;
}

}  // namespace connlab::fuzz
