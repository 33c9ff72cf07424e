// Fleet campaign: the DAEDALUS question at population scale.
//
// One attacker profiles ONE captured device, then the rogue AP races its
// pre-built volley against a churning fleet of simulated IoT clients —
// every victim a snapshot-restore boot of one of 2^b diversity variants
// with its own sampled mitigation policy. The deliverable is the survival
// curve: compromised fraction vs diversity entropy, at whatever population
// the flag asks for (a million victims runs in well under two minutes).
//
//   ./examples/fleet_campaign [--victims=N] [--seed=S] [--entropy=0,2,4,8]
//                             [--sweep-workers=N] [--json=PATH]
//                             [--metrics=PATH] [--trace=PATH] [--help]
//
// --sweep-workers spreads the sweep's (entropy, bug class) campaigns across
// N threads (0 = one per hardware core, 1 = serial) — the curve and its
// digest are identical either way.
//
// Deterministic: the same seed reproduces the same curve digest, event for
// event. The run exits non-zero if the curve misbehaves (monoculture not
// compromised, or compromise not shrinking as entropy grows).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "examples/flags.hpp"
#include "src/fleet/campaign.hpp"
#include "src/fleet/report.hpp"
#include "src/obs/obs.hpp"

using namespace connlab;
using namespace connlab::examples;

namespace {

void PrintUsage() {
  std::printf(
      "usage: fleet_campaign [--victims=N] [--seed=S] [--entropy=0,2,4,8]\n"
      "                      [--sweep-workers=N] [--json=PATH]\n"
      "                      [--metrics=PATH] [--trace=PATH] [--help]\n"
      "\n"
      "  --victims=N         fleet size per sweep point (default 20000)\n"
      "  --seed=S            campaign seed (default 42); same seed, same\n"
      "                      curve digest\n"
      "  --entropy=LIST      diversity-bits sweep points (default 0,2,4,6,8)\n"
      "  --sweep-workers=N   threads for the sweep (0 = one per core,\n"
      "                      1 = serial); digest identical either way\n"
      "  --json=PATH         write the survival curve as JSON\n"
      "  --metrics=PATH      flat JSON dump of the metrics registry\n"
      "  --trace=PATH        chrome://tracing JSON of the run\n");
}

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) out.push_back(std::atoi(item.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (TakeBareFlag(args, "help")) {
    PrintUsage();
    return 0;
  }
  const std::string victims_flag = TakeFlag(args, "victims");
  const std::string seed_flag = TakeFlag(args, "seed");
  const std::string entropy_flag = TakeFlag(args, "entropy");
  const std::string sweep_workers_flag = TakeFlag(args, "sweep-workers");
  const std::string json_path = TakeFlag(args, "json");
  const std::string metrics_path = TakeFlag(args, "metrics");
  const std::string trace_path = TakeFlag(args, "trace");
  obs::Scope scope(obs::ScopeOptions{.trace = !trace_path.empty()});

  fleet::FleetConfig config;
  config.victims = victims_flag.empty()
                       ? 20000
                       : std::strtoull(victims_flag.c_str(), nullptr, 10);
  config.seed = seed_flag.empty()
                    ? 42
                    : std::strtoull(seed_flag.c_str(), nullptr, 10);
  std::vector<int> entropy =
      entropy_flag.empty() ? std::vector<int>{0, 2, 4, 6, 8}
                           : ParseIntList(entropy_flag);
  const std::size_t sweep_workers =
      sweep_workers_flag.empty()
          ? 1
          : static_cast<std::size_t>(
                std::strtoull(sweep_workers_flag.c_str(), nullptr, 10));

  std::printf("connlab fleet campaign — one profiled exploit vs %llu victims\n",
              static_cast<unsigned long long>(config.victims));
  std::printf(
      "=============================================================\n\n");
  std::printf(
      "population: %.0f%% canary, %.0f%% CFI, diversity swept below; the\n"
      "attacker races %.0f%% of queries with a volley profiled from one\n"
      "captured device (variant %u).\n\n",
      config.population.p_canary * 100.0, config.population.p_cfi * 100.0,
      config.attack_rate * 100.0, config.profiled_variant);

  auto curve = fleet::RunSurvivalSweep(config, entropy, sweep_workers);
  if (!curve.ok()) return Fail(curve.status());

  // The last (highest-entropy) point's full campaign reports — one per
  // bug class, so the per-class bookkeeping is visible, not just the curve.
  for (const fleet::BugClass bug_class :
       {fleet::BugClass::kStackSmash, fleet::BugClass::kPointerLoop,
        fleet::BugClass::kHeapMetadata}) {
    fleet::FleetConfig last = config;
    last.population.diversity_bits = entropy.back();
    last.bug_class = bug_class;
    auto result = fleet::RunFleetCampaign(last);
    if (!result.ok()) return Fail(result.status());
    std::printf("%s\n", fleet::RenderFleetReport(result.value()).c_str());
  }

  std::printf("survival curve (fraction of the fleet the one exploit gets):\n");
  std::printf("%s\n", fleet::RenderSurvivalCurve(curve.value()).c_str());
  const std::uint64_t digest = fleet::CurveDigest(curve.value());
  std::printf("curve digest: %016llx\n",
              static_cast<unsigned long long>(digest));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << fleet::SurvivalCurveJson(curve.value(), config.seed,
                                    config.victims);
    std::printf("curve written to %s\n", json_path.c_str());
  }

  // Self-check: the monoculture must fall, and diversity must help —
  // compromise may never grow as entropy does (same seed throughout).
  const auto& points = curve.value();
  int bad = 0;
  if (!points.empty() && points.front().diversity_bits == 0 &&
      points.front().compromised == 0) {
    std::printf("FAIL: monoculture survived a matched-profile exploit\n");
    ++bad;
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].compromised_fraction >
        points[i - 1].compromised_fraction) {
      std::printf("FAIL: compromise grew from %db to %db\n",
                  points[i - 1].diversity_bits, points[i].diversity_bits);
      ++bad;
    }
  }
  // Per-class shape: the pointer loop DoSes regardless of entropy, and the
  // heap class never shells through the default W^X base — entropy starves
  // only the address-dependent stack smash.
  for (const auto& p : points) {
    if (p.loop_crashed == 0) {
      std::printf("FAIL: pointer loop stopped DoSing at %db\n",
                  p.diversity_bits);
      ++bad;
    }
    if (p.heap_compromised != 0) {
      std::printf("FAIL: heap class shelled through W^X at %db\n",
                  p.diversity_bits);
      ++bad;
    }
    if (p.heap_crashed + p.heap_trapped == 0) {
      std::printf("FAIL: heap class had no effect at %db\n",
                  p.diversity_bits);
      ++bad;
    }
  }
  if (points.size() > 1) {
    const double first = points.front().loop_crashed_fraction;
    const double last = points.back().loop_crashed_fraction;
    if (last < first - 0.1 || last > first + 0.1) {
      std::printf("FAIL: pointer-loop DoS fraction moved with entropy "
                  "(%0.3f -> %0.3f)\n", first, last);
      ++bad;
    }
  }
  if (bad == 0) std::printf("\nself-check: survival curve OK\n");

  const int obs_rc = FinishObs(scope, metrics_path, trace_path);
  return bad > 0 ? 1 : obs_rc;
}
