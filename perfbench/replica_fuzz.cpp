// Traced replica of fuzz::Fuzzer::Run / RunWorker (minimization off).
//
// Every public call the library's worker loop makes into a layer is made
// here in the same order with the same arguments, inside a span. Execute is
// one opaque span: what happens inside it is split by the program's own
// exact counters (vm.steps, loader.restores, mem.dirty_pages_copied,
// FuzzTarget::reboots), not by timers.
#include <memory>

#include "src/fuzz/mutator.hpp"
#include "src/fuzz/sync.hpp"
#include "src/util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

enum FuzzSpan : std::uint16_t {
  kDriver,
  kExecute,
  kClear,
  kClassify,
  kAbsorb,
  kMutate,
  kCorpus,
  kTriage,
  kSyncWait,
  kSyncApply,
};

const std::vector<std::string>& FuzzSpanNames() {
  static const std::vector<std::string> names = {
      "fuzz.driver",          "fuzz.execute",          "fuzz.coverage.clear",
      "fuzz.coverage.classify", "fuzz.coverage.absorb", "fuzz.mutate",
      "fuzz.corpus",          "fuzz.triage",           "fuzz.sync.wait",
      "fuzz.sync.apply"};
  return names;
}

struct WorkerOut {
  util::Status status = util::OkStatus();
  fuzz::CoverageMap virgin;
  fuzz::CrashTriage triage;
  std::vector<fuzz::CorpusEntry> corpus_entries;
  std::uint64_t execs = 0;
  std::uint64_t crashing_execs = 0;
  std::uint64_t corpus_adds = 0;
  std::uint64_t reboots = 0;
};

WorkerOut ReplicaWorker(const fuzz::FuzzConfig& config,
                        std::size_t worker_index, std::uint64_t budget,
                        fuzz::EpochExchange* exchange, Tracer& tr) {
  WorkerOut out;
  Tracer::Scope driver(tr, kDriver, static_cast<std::uint32_t>(worker_index));

  std::size_t epoch = 0;
  fuzz::EpochDelta epoch_out;
  std::vector<fuzz::CoverageDelta>* delta_sink =
      exchange != nullptr ? &epoch_out.coverage : nullptr;
  const std::uint64_t interval =
      exchange != nullptr ? config.sync_interval : 0;

  auto target_or = fuzz::MakeTarget(config.target);
  if (!target_or.ok()) {
    out.status = target_or.status();
    if (exchange != nullptr) {
      fuzz::EpochDelta empty;
      empty.done = true;
      while (!fuzz::EpochExchange::AllDone(
          exchange->ExchangeAndWait(worker_index, epoch++, empty))) {
      }
    }
    return out;
  }
  std::unique_ptr<fuzz::FuzzTarget> target = std::move(target_or).value();

  fuzz::Mutator mutator(util::Rng(config.seed).Split(worker_index));
  util::Rng& rng = mutator.rng();
  const fuzz::MutationHint hint{
      target->fixed_prefix(), target->dns_shaped(), config.max_input_size,
      config.dictionary.empty() ? nullptr : &config.dictionary};

  fuzz::Corpus corpus;
  fuzz::CoverageMap exec_map;

  // Operation id: this worker's exec index, interleaved across workers so
  // ids are unique within the run.
  const std::size_t workers = exchange != nullptr ? exchange->workers() : 1;
  const auto op = [&] {
    return static_cast<std::uint32_t>(out.execs * workers + worker_index);
  };

  const auto run_one = [&](util::ByteSpan input) -> fuzz::ExecResult {
    Traced(tr, kClear, op(), [&] { exec_map.Clear(); });
    fuzz::ExecResult result = Traced(
        tr, kExecute, op(), [&] { return target->Execute(input, exec_map); });
    ++out.execs;
    return result;
  };

  std::vector<fuzz::CorpusEntry> pending;
  bool defer_adds = false;

  const auto record = [&](const fuzz::ExecResult& result,
                          util::ByteSpan input) {
    const std::uint32_t id = op() - static_cast<std::uint32_t>(workers);
    if (result.kind == fuzz::ExecResult::Kind::kBenign) {
      Traced(tr, kClassify, id, [&] { exec_map.Classify(); });
      const int news = Traced(tr, kAbsorb, id, [&] {
        return exec_map.AbsorbInto(out.virgin, delta_sink);
      });
      if (news > 0) {
        ++out.corpus_adds;
        util::Bytes data(input.begin(), input.end());
        if (exchange != nullptr) {
          epoch_out.entries.push_back(
              fuzz::CorpusEntry{data, news, out.execs, 0});
        }
        if (defer_adds) {
          pending.push_back(
              fuzz::CorpusEntry{std::move(data), news, out.execs, 0});
        } else {
          Traced(tr, kCorpus, id,
                 [&] { corpus.Add(std::move(data), news, out.execs); });
        }
      }
    } else {
      ++out.crashing_execs;
      Traced(tr, kTriage, id, [&] {
        out.triage.Record(result, input, out.execs, *target);
      });
    }
  };

  const auto attend = [&](bool worker_done) -> bool {
    epoch_out.done = worker_done;
    const std::vector<fuzz::EpochDelta>& row =
        Traced(tr, kSyncWait, op(),
               [&]() -> const std::vector<fuzz::EpochDelta>& {
                 return exchange->ExchangeAndWait(worker_index, epoch,
                                                  std::move(epoch_out));
               });
    epoch_out = fuzz::EpochDelta{};
    ++epoch;
    if (!worker_done) {
      Traced(tr, kSyncApply, op(), [&] {
        for (std::size_t j = 0; j < row.size(); ++j) {
          if (j == worker_index) continue;
          out.virgin.ApplyDelta(row[j].coverage);
          for (const fuzz::CorpusEntry& e : row[j].entries) {
            corpus.Add(e.data, e.news, e.found_at);
          }
        }
      });
    }
    return fuzz::EpochExchange::AllDone(row);
  };

  for (const util::Bytes& seed : target->SeedCorpus()) {
    if (out.execs >= budget) break;
    const fuzz::ExecResult result = run_one(seed);
    record(result, seed);
    Traced(tr, kCorpus, op(), [&] { corpus.Add(seed, 1, out.execs); });
  }

  const auto done = [&] {
    if (out.execs >= budget) return true;
    return config.stop_after_crashes != 0 &&
           out.triage.buckets().size() >= config.stop_after_crashes;
  };

  util::Bytes scratch;
  while (!done() && !corpus.empty()) {
    const std::size_t pick =
        Traced(tr, kCorpus, op(), [&] { return corpus.PickIndex(rng); });
    const std::uint32_t energy =
        Traced(tr, kCorpus, op(), [&] { return corpus.EnergyFor(pick); });
    const util::Bytes& parent = corpus.entry(pick).data;
    util::ByteSpan donor;
    if (corpus.size() > 1) {
      std::size_t d = rng.NextBelow(corpus.size());
      if (d == pick) d = (d + 1) % corpus.size();
      donor = corpus.entry(d).data;
    }
    defer_adds = true;
    for (std::uint32_t e = 0; e < energy && !done(); ++e) {
      Traced(tr, kMutate, op(),
             [&] { mutator.MutateInto(parent, hint, donor, scratch); });
      const fuzz::ExecResult result = run_one(scratch);
      record(result, scratch);
    }
    defer_adds = false;
    for (fuzz::CorpusEntry& e : pending) {
      Traced(tr, kCorpus, op(),
             [&] { corpus.Add(std::move(e.data), e.news, e.found_at); });
    }
    pending.clear();
    while (interval != 0 && !done() &&
           out.execs >= (epoch + 1) * interval) {
      attend(false);
    }
  }

  if (exchange != nullptr) {
    while (!attend(true)) {
    }
  }

  out.reboots = target->reboots();
  out.corpus_entries = corpus.entries();
  return out;
}

}  // namespace

TracedRun ReplicaFuzz(Workload workload, std::uint64_t seed) {
  const std::uint64_t budget = workload == Workload::kFuzzDnsproxy
                                   ? kDnsproxyExecs
                                   : kCamstoredExecs;
  const fuzz::FuzzConfig config = FuzzConfigFor(workload, seed, budget);
  const std::size_t workers = config.workers;
  const std::uint64_t base_budget = config.max_execs / workers;
  const std::uint64_t remainder = config.max_execs % workers;
  const auto worker_budget = [&](std::size_t i) {
    return base_budget + (i < remainder ? 1u : 0u);
  };

  TracedRun run;
  run.span_names = FuzzSpanNames();
  // Copies of one tracer share its epoch, so span files line threads up.
  std::vector<Tracer> tracers(workers, Tracer());
  for (Tracer& tracer : tracers) tracer.Reserve(worker_budget(0) * 7);
  std::vector<WorkerOut> outputs(workers);
  fuzz::EpochExchange exchange(workers);
  fuzz::EpochExchange* sync =
      workers > 1 && config.sync_interval != 0 ? &exchange : nullptr;

  const double start = NowSeconds();
  if (workers == 1) {
    outputs[0] = ReplicaWorker(config, 0, worker_budget(0), nullptr, tracers[0]);
  } else {
    util::ParallelInvoke(workers, [&](std::size_t i) {
      outputs[i] =
          ReplicaWorker(config, i, worker_budget(i), sync, tracers[i]);
    });
  }
  run.wall_seconds = NowSeconds() - start;

  // Fuzzer::Run's merge, in worker-index order.
  fuzz::FuzzReport report;
  std::uint64_t corpus_adds = 0;
  for (WorkerOut& w : outputs) {
    if (!w.status.ok()) run.campaign.status = w.status;
    report.coverage.MergeClassified(w.virgin);
    report.triage.Merge(w.triage);
    for (fuzz::CorpusEntry& e : w.corpus_entries) {
      report.corpus.Add(std::move(e.data), e.news, e.found_at);
    }
    report.stats.execs += w.execs;
    report.stats.crashing_execs += w.crashing_execs;
    report.stats.reboots += w.reboots;
    corpus_adds += w.corpus_adds;
  }
  report.stats.corpus_size = report.corpus.size();
  report.stats.coverage_cells = report.coverage.CountNonZero();
  report.stats.coverage_digest = report.coverage.Digest();

  for (Tracer& tracer : tracers) run.threads.push_back(tracer.TakeSpans());
  CheckFuzz(workload, seed, report, run.campaign);
  run.campaign.seconds = run.wall_seconds;
  run.campaign.counts["fuzz.execs"] = CountCalls(run.threads, kExecute);
  run.campaign.counts["fuzz.corpus_adds"] = corpus_adds;
  return run;
}

}  // namespace perfbench
