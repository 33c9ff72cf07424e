// Fuzz campaign walkthrough: rediscover CVE-2017-12865 from benign seeds.
//
// Runs the coverage-guided, DNS-structure-aware fuzzer against the
// vulnerable dnsproxy, prints the campaign's progress the way an AFL user
// would read its status screen, triages + minimizes the crashes, emits a
// reproducer, replays it, then runs the same campaign against the patched
// 1.35 build to show the fix holds.
//
//   ./examples/fuzz_campaign [seed] [execs] [workers] [target]
//                            [corpus_file] [dict_file]
//                            [--sync-interval=N]
//                            [--trace=t.json] [--metrics=m.json]
//                            [--repro-dir=dir] [--distill]
//                            [--no-superblocks] [--help]
//
// Execution-tier A/B knob (the superblock tier is on by default; the
// differential suite proves both tiers produce identical campaigns, so this
// is a debugging and A/B-measurement knob, not a behaviour switch):
//   --no-superblocks   pin the victim CPUs to the plain interpreter
//
// `--sync-interval=N` sets how many of its own execs each worker runs
// between cross-worker corpus exchanges (multi-worker only; 0 disables
// sharing so workers explore independently until the final merge). Either
// setting is deterministic for a fixed (seed, workers).
//
// `corpus_file` persists the merged corpus across invocations (missing file
// = first run, creates it). `dict_file` is an AFL-style token dictionary;
// the literal value `builtin` selects the built-in DNS dictionary.
// `--distill` runs coverage-ranked corpus distillation before the save, so
// a nightly re-seeded corpus stays a minimal covering set.
//
// Observability flags (order-independent, stripped before positional args):
//   --trace=PATH    write a chrome://tracing / Perfetto JSON of the run
//   --metrics=PATH  write the scraped metrics registry as flat JSON; the
//                   `fuzz.execs` counter equals the reported exec count
//   --repro-dir=DIR write one reproducer file per crash bucket
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/fuzz/dict.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/obs/obs.hpp"
#include "src/util/hexdump.hpp"

using namespace connlab;

namespace {

int Fail(const util::Status& status) {
  std::printf("error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintReport(const fuzz::FuzzReport& report) {
  const fuzz::FuzzStats& s = report.stats;
  std::printf("  execs            : %llu (%.0f/sec, %.2fs wall)\n",
              static_cast<unsigned long long>(s.execs), s.execs_per_sec,
              s.seconds);
  std::printf("  crashing execs   : %llu\n",
              static_cast<unsigned long long>(s.crashing_execs));
  std::printf("  crash buckets    : %zu (after dedup)\n",
              report.triage.buckets().size());
  std::printf("  corpus entries   : %zu\n", s.corpus_size);
  std::printf("  coverage         : %s (digest %016llx)\n",
              report.coverage.Summary().c_str(),
              static_cast<unsigned long long>(s.coverage_digest));
  std::printf("  target reboots   : %llu\n\n",
              static_cast<unsigned long long>(s.reboots));
}

/// Pulls `--name=value` out of the argument list (anywhere on the line) so
/// the positional parameters keep their historical meaning.
std::string TakeFlag(std::vector<std::string>& args, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (it->rfind(prefix, 0) == 0) {
      std::string value = it->substr(prefix.size());
      args.erase(it);
      return value;
    }
  }
  return {};
}

/// Pulls a bare `--name` switch out of the argument list.
bool TakeBareFlag(std::vector<std::string>& args, const std::string& name) {
  const std::string flag = "--" + name;
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      args.erase(it);
      return true;
    }
  }
  return false;
}

void PrintUsage() {
  std::printf(
      "usage: fuzz_campaign [seed] [execs] [workers] [target]\n"
      "                     [corpus_file] [dict_file]\n"
      "                     [--sync-interval=N] [--trace=t.json]\n"
      "                     [--metrics=m.json] [--repro-dir=dir] [--distill]\n"
      "                     [--no-superblocks] [--help]\n"
      "\n"
      "positional (defaults): seed 42, execs 20000, workers 1,\n"
      "  target dnsproxy (dnsproxy|minimasq|httpcamd|resolvd|camstored),\n"
      "  corpus_file persists the merged corpus, dict_file is an AFL-style\n"
      "  dictionary ('builtin' = built-in DNS tokens).\n"
      "\n"
      "execution-tier A/B knob (the tier is on by default; campaign results\n"
      "are byte-identical either way — an A/B measurement knob only):\n"
      "  --no-superblocks    plain interpreter, no threaded-code tier\n"
      "\n"
      "other flags:\n"
      "  --sync-interval=N   execs each worker runs between cross-worker\n"
      "                      corpus exchanges (0 = independent until merge)\n"
      "  --distill           coverage-ranked corpus distillation on save\n"
      "  --trace=PATH        chrome://tracing JSON of the run\n"
      "  --metrics=PATH      flat JSON dump of the metrics registry\n"
      "  --repro-dir=DIR     one reproducer file per crash bucket\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (TakeBareFlag(args, "help")) {
    PrintUsage();
    return 0;
  }
  const std::string trace_path = TakeFlag(args, "trace");
  const std::string metrics_path = TakeFlag(args, "metrics");
  const std::string repro_dir = TakeFlag(args, "repro-dir");
  const std::string sync_flag = TakeFlag(args, "sync-interval");
  const bool distill = TakeBareFlag(args, "distill");
  const bool no_superblocks = TakeBareFlag(args, "no-superblocks");

  fuzz::FuzzConfig config;
  config.target.exec.superblocks = !no_superblocks;
  if (!sync_flag.empty()) {
    config.sync_interval = std::strtoull(sync_flag.c_str(), nullptr, 0);
  }
  config.seed = args.size() > 0 ? std::strtoull(args[0].c_str(), nullptr, 0) : 42;
  config.max_execs =
      args.size() > 1 ? std::strtoull(args[1].c_str(), nullptr, 0) : 20000;
  config.workers = args.size() > 2 ? std::strtoul(args[2].c_str(), nullptr, 0) : 1;
  if (args.size() > 3) {
    auto kind = fuzz::ParseTargetKind(args[3]);
    if (!kind.ok()) return Fail(kind.status());
    config.target.kind = kind.value();
  }
  if (args.size() > 4) config.corpus_path = args[4];
  config.distill = distill;
  if (args.size() > 5) {
    if (args[5] == "builtin") {
      config.dictionary = fuzz::DefaultDnsDictionary();
    } else {
      auto dict = fuzz::LoadDictionaryFile(args[5]);
      if (!dict.ok()) return Fail(dict.status());
      config.dictionary = std::move(dict).value();
    }
  }

  std::printf("connlab fuzz campaign — %s\n",
              std::string(fuzz::TargetKindName(config.target.kind)).c_str());
  std::printf("=====================================================\n");
  std::printf("seed %llu, %llu execs, %zu worker(s), benign seeds only\n",
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(config.max_execs),
              config.workers);
  if (config.workers > 1) {
    if (config.sync_interval == 0) {
      std::printf("cross-worker sync: off (independent exploration)\n");
    } else {
      std::printf("cross-worker sync: every %llu execs per worker\n",
                  static_cast<unsigned long long>(config.sync_interval));
    }
  }
  if (!config.corpus_path.empty()) {
    std::printf("persistent corpus: %s%s\n", config.corpus_path.c_str(),
                config.distill ? " (distilled on save)" : "");
  }
  if (!config.dictionary.empty()) {
    std::printf("dictionary: %zu token(s)\n", config.dictionary.size());
  }
  std::printf("\n");

  // The scope opens right before the campaign and its exports are written
  // right after, so the scraped fuzz.execs is exactly this campaign's exec
  // count — the patched-build rerun below happens outside the window.
  obs::Scope scope(obs::ScopeOptions{.trace = !trace_path.empty()});

  auto report_or = fuzz::Fuzzer(config).Run();
  if (!report_or.ok()) return Fail(report_or.status());
  fuzz::FuzzReport& report = report_or.value();
  std::printf("campaign finished:\n");
  PrintReport(report);

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
    std::printf("\nrun metrics:\n%s\n", scope.RenderTable().c_str());
  }

  if (!repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(repro_dir, ec);
    if (ec) {
      std::printf("error: cannot create %s: %s\n", repro_dir.c_str(),
                  ec.message().c_str());
      return 1;
    }
    std::size_t written = 0;
    for (const fuzz::CrashBucket& bucket : report.triage.buckets()) {
      const std::string path = repro_dir + "/bucket-" +
                               std::to_string(written) + ".repro";
      auto status = obs::WriteTextFile(
          path, fuzz::SerializeReproducer(config.target, bucket));
      if (!status.ok()) return Fail(status);
      ++written;
    }
    std::printf("%zu reproducer(s) written to %s/\n", written,
                repro_dir.c_str());
  }

  if (report.triage.buckets().empty()) {
    std::printf("no crashes found — try a bigger budget.\n");
    return 1;
  }

  for (const fuzz::CrashBucket& bucket : report.triage.buckets()) {
    std::printf("bucket %s\n", fuzz::FormatCrashKey(bucket.key).c_str());
    std::printf("  first hit at exec %llu, %llu hit(s) total\n",
                static_cast<unsigned long long>(bucket.first_exec),
                static_cast<unsigned long long>(bucket.hits));
    std::printf("  witness %zu bytes -> minimized %zu bytes\n",
                bucket.witness.size(), bucket.minimized.size());
  }

  // The first bucket's reproducer, serialized and replayed from scratch.
  const fuzz::CrashBucket& head = report.triage.buckets().front();
  const std::string repro_text =
      fuzz::SerializeReproducer(config.target, head);
  std::printf("\nreproducer file:\n%s\n", repro_text.c_str());
  std::printf("minimized input:\n%s\n",
              util::HexDump(head.minimized, 0).c_str());

  const fuzz::TargetTraits& traits = fuzz::TraitsOf(config.target.kind);
  if (traits.stateful_across_execs) {
    // The daemon keeps guest state across executions, so the crash is a
    // property of the request *sequence*, not of one input — the witness
    // need not reproduce on a freshly booted instance.
    std::printf(
        "replay: skipped — %s keeps heap state across requests, so the\n"
        "crash is a sequence property; replay the whole campaign (same\n"
        "seed) to reproduce it.\n\n",
        std::string(traits.name).c_str());
  } else {
    auto parsed = fuzz::ParseReproducer(repro_text);
    if (!parsed.ok()) return Fail(parsed.status());
    auto replay = fuzz::ReplayReproducer(parsed.value());
    if (!replay.ok()) return Fail(replay.status());
    std::printf("replay: %s (pc=0x%08x, %u bytes expanded%s)\n\n",
                replay.value().detail.c_str(), replay.value().pc,
                replay.value().bytes_expanded,
                replay.value().overflow ? ", buffer overflowed" : "");
  }

  // Same campaign, patched build: the fix holds or we want to know.
  if (config.target.kind == fuzz::TargetKind::kDnsproxy) {
    std::printf("re-running the identical campaign against patched 1.35...\n");
    fuzz::FuzzConfig patched = config;
    patched.target.patched = true;
    // The persisted corpus tracks the vulnerable build's campaign; don't
    // overwrite it with the patched run's.
    patched.corpus_path.clear();
    auto patched_report = fuzz::Fuzzer(patched).Run();
    if (!patched_report.ok()) return Fail(patched_report.status());
    PrintReport(patched_report.value());
    if (!patched_report.value().triage.buckets().empty()) {
      std::printf("patched build crashed — regression!\n");
      return 1;
    }
    std::printf("patched build survived the campaign that killed 1.34.\n");
  }
  return 0;
}
