// perfbench: the campaign benchmark's workload process. run.py starts one
// process per measurement so process-wide state (decode-plan and superblock
// registries, the obs registry, peak RSS) belongs to exactly one workload.
//
//   perfbench setup     --workload W --seed S   driver call at its smallest
//                                               budget, then exit
//   perfbench run       --workload W --seed S --seconds T
//                                               cycle through the run's
//                                               distinct library campaigns,
//                                               tracing off, for T seconds
//   perfbench reference --workload W --seed S   one library campaign plus the
//                                               exact counters it leaves
//   perfbench trace     --workload W --seed S [--spans PATH]
//                                               one traced replica campaign
//
// Every mode but setup prints one JSON object on stdout for run.py.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/obs.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string CampaignJson(const Campaign& c) {
  std::string out = "{\"seed\": " + std::to_string(c.seed) +
                    ", \"ops\": " + std::to_string(c.ops) +
                    ", \"seconds\": " + Num(c.seconds) +
                    ", \"digest\": " + Quote(Hex(c.digest)) +
                    ", \"status\": " + Quote(c.status.ToString()) +
                    ", \"checks\": [";
  for (std::size_t i = 0; i < c.check_failures.size(); ++i) {
    out += (i ? ", " : "") + Quote(c.check_failures[i]);
  }
  out += "], \"counts\": {";
  bool first = true;
  for (const auto& [name, value] : c.counts) {
    out += (first ? "" : ", ") + Quote(name) + ": " + std::to_string(value);
    first = false;
  }
  return out + "}}";
}

double PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench setup|run|reference|trace --workload W "
               "--seed S [--seconds T] [--spans PATH]\n");
  return 2;
}

/// The CPUs the process may run on, highest first.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Runs the calling thread, and every thread it starts from now on, on the
/// one CPU `cpus[index % cpus.size()]`.
void PinToCpu(const std::vector<int>& cpus, std::size_t index) {
  if (cpus.empty()) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(cpus[index % cpus.size()], &pinned);
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

int RunMode(Workload workload, std::uint64_t seed, double seconds,
            const std::vector<int>& cpus) {
  // The distinct campaigns in turn, so each one's repeats spread over the
  // whole run; the first round always completes.
  const std::vector<std::uint64_t> seeds = CampaignSeeds(workload, seed);
  std::vector<Campaign> campaigns;
  const double start = NowSeconds();
  while (campaigns.size() < seeds.size() || NowSeconds() - start < seconds) {
    // One thread: each round on the next CPU. A neighbour on the host that
    // keeps one core's caches busy for minutes then slows only some of a
    // campaign's repeats, and run.py takes the fastest. Two workers sharing
    // one CPU spread more when moved (IQR/median of ten seeds 0.21-0.22
    // against 0.09-0.13 on one fixed CPU), so they stay put.
    if (WorkerThreads(workload) == 1 && campaigns.size() % seeds.size() == 0) {
      PinToCpu(cpus, campaigns.size() / seeds.size());
    }
    campaigns.push_back(
        RunLibraryCampaign(workload, seeds[campaigns.size() % seeds.size()]));
  }
  // Same seed, same inputs: every repeat must reproduce the first round.
  for (std::size_t i = seeds.size(); i < campaigns.size(); ++i) {
    const Campaign& first = campaigns[i % seeds.size()];
    if (campaigns[i].digest != first.digest) {
      campaigns[i].check_failures.push_back(
          "digest " + Hex(campaigns[i].digest) + " differs from the run's " +
          "first campaign at seed " + std::to_string(first.seed) + ", " +
          Hex(first.digest));
    }
  }
  std::string out = "{\"mode\": \"run\", \"workload\": " +
                    Quote(WorkloadName(workload)) +
                    ", \"peak_rss_kb\": " + Num(PeakRssKb()) +
                    ", \"campaigns\": [";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    out += (i ? ", " : "") + CampaignJson(campaigns[i]);
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

int TraceMode(Workload workload, std::uint64_t seed,
              const std::string& spans_path) {
  // Durations are kept for the spans whose percentiles the report shows.
  const std::vector<std::string> percentile_spans = {
      "fuzz.execute", "defense.pool.boot", "loader.boot", "attack.cell"};
  std::string spans_json;
  double wall = 0;
  std::uint64_t accounted_ns = 0;
  std::size_t threads = 0;
  Campaign campaign;
  {
    TracedRun run = RunReplica(workload, seed);
    wall = run.wall_seconds;
    threads = run.threads.size();
    std::vector<bool> keep(run.span_names.size(), false);
    for (std::size_t i = 0; i < run.span_names.size(); ++i) {
      for (const std::string& name : percentile_spans) {
        keep[i] = keep[i] || run.span_names[i] == name;
      }
    }
    std::vector<SpanTotals> totals;
    for (std::size_t t = 0; t < run.threads.size(); ++t) {
      Accumulate(run.threads[t], keep, totals);
      for (const Span& span : run.threads[t]) {
        if (span.parent == kNoParent) accounted_ns += span.end_ns - span.start_ns;
      }
      if (!spans_path.empty() &&
          !AppendSpansTsv(spans_path, t, run.threads[t], run.span_names,
                          t == 0)) {
        std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
        return 1;
      }
    }
    totals.resize(run.span_names.size());
    bool first = true;
    for (std::size_t i = 0; i < totals.size(); ++i) {
      const SpanTotals& t = totals[i];
      spans_json += (first ? "" : ", ") + Quote(run.span_names[i]) +
                    ": {\"calls\": " + std::to_string(t.calls) +
                    ", \"busy_ns\": " + std::to_string(t.busy_ns) +
                    ", \"self_ns\": " + std::to_string(t.self_ns);
      if (keep[i]) {
        for (const auto& [key, q] : {std::pair{"p50_ns", 0.50},
                                     std::pair{"p99_ns", 0.99}}) {
          const auto p = Percentile(t.durations_ns, q);
          spans_json += std::string(", \"") + key +
                        "\": " + (p ? std::to_string(*p) : "null");
        }
      }
      spans_json += "}";
      first = false;
    }
    campaign = std::move(run.campaign);
  }
  // Every replica object is gone: the CPUs have flushed vm.steps.
  AddObsCounts(obs::Registry::Instance().Scrape(), campaign.counts);
  std::printf(
      "{\"mode\": \"trace\", \"workload\": %s, \"wall_s\": %s, "
      "\"threads\": %zu, \"accounted_ns\": %llu, \"campaign\": %s, "
      "\"spans\": {%s}}\n",
      Quote(WorkloadName(workload)).c_str(), Num(wall).c_str(), threads,
      static_cast<unsigned long long>(accounted_ns),
      CampaignJson(campaign).c_str(), spans_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];

  std::optional<Workload> workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10;
  std::string spans_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = ParseWorkload(value);
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (!workload) return Usage();
  if (!have_seed) seed = DefaultSeed(*workload);
  // Every mode runs on one CPU, a two-worker campaign included: on two, its
  // throughput doubles or halves for minutes at a time with how the host
  // places the pair, which no statistic over a run can tell from the code.
  const std::vector<int> cpus = AllowedCpus();
  PinToCpu(cpus, 0);

  if (mode == "setup") {
    const util::Status status = RunSmallestBudget(*workload, seed);
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (mode == "run") return RunMode(*workload, seed, seconds, cpus);
  if (mode == "reference") {
    const Campaign c = RunLibraryCampaign(*workload, seed);
    std::printf("{\"mode\": \"reference\", \"workload\": %s, \"campaign\": %s}\n",
                Quote(WorkloadName(*workload)).c_str(),
                CampaignJson(c).c_str());
    return 0;
  }
  if (mode == "trace") return TraceMode(*workload, seed, spans_path);
  return Usage();
}
