#include "workloads.hpp"

#include <chrono>
#include <cstdio>

#include "src/attack/matrix.hpp"
#include "src/attack/scenario.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/decode_plan.hpp"
#include "src/vm/superblock.hpp"

namespace perfbench {

namespace {

// Pinned outputs at the default seeds and the fixed budgets above, recorded
// from the library drivers. A behaviour change that moves one must re-pin it
// here, in the same change; a failed check prints the new value beside the
// pinned one.
constexpr std::uint64_t kDnsproxyDigest = 0xd8788bc796ab373cULL;
constexpr std::uint64_t kCamstoredDigest = 0x93ee625f0821c0dcULL;
constexpr std::uint64_t kFleetDigest = 0xc6fae2e96e071fe5ULL;

// RunDefenseGrid(4242), one line per cell: row | defense | outcome | why.
constexpr const char* kGrid4242[kGridCells] = {
    "vx86 / none / connman 1.34 (vulnerable) | none | ROOT SHELL | -",
    "vx86 / none / connman 1.34 (vulnerable) | canary | abort | canary-trap",
    "vx86 / none / connman 1.34 (vulnerable) | CFI | cfi-violation | cfi-trap",
    "vx86 / none / connman 1.34 (vulnerable) | diversity | ROOT SHELL | -",
    "vx86 / none / connman 1.34 (vulnerable) | all | abort | canary-trap",
    "vx86 / none / connman 1.34 (vulnerable) | heap-integrity | ROOT SHELL | -",
    "vx86 / W^X / connman 1.34 (vulnerable) | none | ROOT SHELL | -",
    "vx86 / W^X / connman 1.34 (vulnerable) | canary | abort | canary-trap",
    "vx86 / W^X / connman 1.34 (vulnerable) | CFI | cfi-violation | cfi-trap",
    "vx86 / W^X / connman 1.34 (vulnerable) | diversity | crash (DoS) | bad-gadget-addr",
    "vx86 / W^X / connman 1.34 (vulnerable) | all | abort | canary-trap",
    "vx86 / W^X / connman 1.34 (vulnerable) | heap-integrity | ROOT SHELL | -",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | none | ROOT SHELL | -",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | canary | abort | canary-trap",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | CFI | cfi-violation | cfi-trap",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | diversity | other | bad-gadget-addr",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | all | abort | canary-trap",
    "vx86 / W^X+ASLR / connman 1.34 (vulnerable) | heap-integrity | ROOT SHELL | -",
    "varm / none / connman 1.34 (vulnerable) | none | ROOT SHELL | -",
    "varm / none / connman 1.34 (vulnerable) | canary | crash (DoS) | canary-trap",
    "varm / none / connman 1.34 (vulnerable) | CFI | cfi-violation | cfi-trap",
    "varm / none / connman 1.34 (vulnerable) | diversity | ROOT SHELL | -",
    "varm / none / connman 1.34 (vulnerable) | all | crash (DoS) | canary-trap",
    "varm / none / connman 1.34 (vulnerable) | heap-integrity | ROOT SHELL | -",
    "varm / W^X / connman 1.34 (vulnerable) | none | ROOT SHELL | -",
    "varm / W^X / connman 1.34 (vulnerable) | canary | crash (DoS) | canary-trap",
    "varm / W^X / connman 1.34 (vulnerable) | CFI | cfi-violation | cfi-trap",
    "varm / W^X / connman 1.34 (vulnerable) | diversity | crash (DoS) | bad-gadget-addr",
    "varm / W^X / connman 1.34 (vulnerable) | all | crash (DoS) | canary-trap",
    "varm / W^X / connman 1.34 (vulnerable) | heap-integrity | ROOT SHELL | -",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | none | ROOT SHELL | -",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | canary | crash (DoS) | canary-trap",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | CFI | cfi-violation | cfi-trap",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | diversity | crash (DoS) | bad-gadget-addr",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | all | crash (DoS) | canary-trap",
    "varm / W^X+ASLR / connman 1.34 (vulnerable) | heap-integrity | ROOT SHELL | -",
    "vx86 / none / resolvd | none | crash (DoS) | -",
    "vx86 / none / resolvd | canary | crash (DoS) | -",
    "vx86 / none / resolvd | CFI | crash (DoS) | -",
    "vx86 / none / resolvd | diversity | crash (DoS) | -",
    "vx86 / none / resolvd | all | crash (DoS) | -",
    "vx86 / none / resolvd | heap-integrity | crash (DoS) | -",
    "vx86 / none / camstored | none | ROOT SHELL | -",
    "vx86 / none / camstored | canary | ROOT SHELL | -",
    "vx86 / none / camstored | CFI | ROOT SHELL | -",
    "vx86 / none / camstored | diversity | ROOT SHELL | -",
    "vx86 / none / camstored | all | ROOT SHELL | -",
    "vx86 / none / camstored | heap-integrity | abort | heap-integrity-trap",
    "varm / none / resolvd | none | crash (DoS) | -",
    "varm / none / resolvd | canary | crash (DoS) | -",
    "varm / none / resolvd | CFI | crash (DoS) | -",
    "varm / none / resolvd | diversity | crash (DoS) | -",
    "varm / none / resolvd | all | crash (DoS) | -",
    "varm / none / resolvd | heap-integrity | crash (DoS) | -",
    "varm / none / camstored | none | ROOT SHELL | -",
    "varm / none / camstored | canary | ROOT SHELL | -",
    "varm / none / camstored | CFI | ROOT SHELL | -",
    "varm / none / camstored | diversity | ROOT SHELL | -",
    "varm / none / camstored | all | ROOT SHELL | -",
    "varm / none / camstored | heap-integrity | abort | heap-integrity-trap",
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void FnvBytes(std::uint64_t& digest, std::string_view bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<std::uint8_t>(c);
    digest *= kFnvPrime;
  }
}

/// Fails the whole campaign: a failed check counts all its operations.
void Fail(Campaign& campaign, std::string why) {
  campaign.check_failures.push_back(std::move(why));
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const Workload w : {Workload::kFuzzDnsproxy, Workload::kFuzzCamstoredW2,
                           Workload::kFleet8b, Workload::kDefenseGrid}) {
    if (WorkloadName(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFuzzDnsproxy: return "fuzz-dnsproxy";
    case Workload::kFuzzCamstoredW2: return "fuzz-camstored-w2";
    case Workload::kFleet8b: return "fleet-8b";
    case Workload::kDefenseGrid: return "defense-grid";
  }
  return "?";
}

std::uint64_t DefaultSeed(Workload workload) {
  return workload == Workload::kDefenseGrid ? 4242 : 42;
}

unsigned WorkerThreads(Workload workload) {
  return workload == Workload::kFuzzCamstoredW2 ? 2 : 1;
}

std::vector<std::uint64_t> CampaignSeeds(Workload workload,
                                         std::uint64_t seed) {
  // Sized so one round of distinct campaigns takes a few seconds and a
  // 25-second run repeats each campaign three times or more.
  std::size_t distinct = 12;
  if (workload == Workload::kFleet8b || workload == Workload::kFuzzCamstoredW2) {
    distinct = 6;
  } else if (workload == Workload::kDefenseGrid) {
    distinct = 4;
  }
  std::vector<std::uint64_t> seeds = {seed};
  std::uint64_t state = seed;
  while (seeds.size() < distinct) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    seeds.push_back((z ^ (z >> 31)) & 0xffffffffULL);
  }
  return seeds;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

fuzz::FuzzConfig FuzzConfigFor(Workload workload, std::uint64_t seed,
                               std::uint64_t max_execs) {
  fuzz::FuzzConfig config;
  config.seed = seed;
  config.max_execs = max_execs;
  config.minimize = false;  // the exec loop is the measured work
  if (workload == Workload::kFuzzCamstoredW2) {
    config.target.kind = fuzz::TargetKind::kCamstored;
    // Default sync_interval: the epoch barrier is on.
  } else {
    config.target.kind = fuzz::TargetKind::kDnsproxy;
  }
  config.workers = WorkerThreads(workload);
  return config;
}

fleet::FleetConfig FleetConfigFor(std::uint64_t seed, std::uint64_t victims) {
  fleet::FleetConfig config;
  config.seed = seed;
  config.victims = victims;
  config.population.diversity_bits = 8;
  config.bug_class = fleet::BugClass::kStackSmash;
  return config;
}

void CheckFuzz(Workload workload, std::uint64_t seed,
               const fuzz::FuzzReport& report, Campaign& campaign) {
  const fuzz::FuzzStats& s = report.stats;
  const bool dnsproxy = workload == Workload::kFuzzDnsproxy;
  const std::uint64_t budget = dnsproxy ? kDnsproxyExecs : kCamstoredExecs;
  campaign.ops = s.execs;
  campaign.digest = s.coverage_digest;
  campaign.counts["fuzz.execs"] = s.execs;
  campaign.counts["fuzz.crashing_execs"] = s.crashing_execs;
  campaign.counts["fuzz.reboots"] = s.reboots;
  campaign.counts["fuzz.corpus_size"] = s.corpus_size;
  campaign.counts["fuzz.coverage_cells"] = s.coverage_cells;
  campaign.counts["fuzz.buckets"] = report.triage.buckets().size();
  if (s.execs != budget) {
    Fail(campaign, "ran " + std::to_string(s.execs) + " execs, budget " +
                       std::to_string(budget));
  }

  bool found = false;
  if (dnsproxy) {
    // The CVE signature: a bucket whose fault sits in the get_name copy.
    auto probe = fuzz::MakeTarget(FuzzConfigFor(workload, seed, budget).target);
    if (!probe.ok()) {
      Fail(campaign, "probe target: " + probe.status().ToString());
      return;
    }
    for (const fuzz::CrashBucket& bucket : report.triage.buckets()) {
      found = found || probe.value()->AtOverflowSite(bucket.key.pc);
    }
    if (!found) Fail(campaign, "no crash bucket at the get_name overflow site");
  } else if (seed == DefaultSeed(workload)) {
    // The heap bug: the allocator faults freeing a stomped chunk. Whether a
    // budget reaches it depends on the seed (seed 5 does not in 100K execs),
    // so only the pinned seed must find it; every seed must still repeat
    // its digest.
    for (const fuzz::CrashBucket& bucket : report.triage.buckets()) {
      found = found ||
              bucket.first_result.stop_reason ==
                  vm::StopReason::kHeapCorruption ||
              bucket.first_result.detail.find("free") != std::string::npos;
    }
    if (!found) Fail(campaign, "no heap-corruption crash bucket");
  }

  if (seed == DefaultSeed(workload)) {
    const std::uint64_t pinned = dnsproxy ? kDnsproxyDigest : kCamstoredDigest;
    if (campaign.digest != pinned) {
      Fail(campaign, "coverage digest " + Hex(campaign.digest) +
                         " != pinned " + Hex(pinned));
    }
  }
}

void CheckFleet(std::uint64_t seed, const fleet::FleetResult& r,
                Campaign& campaign) {
  campaign.ops = r.victims;
  campaign.digest = r.digest;
  Counts& c = campaign.counts;
  c["fleet.victims"] = r.victims;
  c["fleet.joins"] = r.joins;
  c["fleet.join_retries"] = r.join_retries;
  c["fleet.renews"] = r.renews;
  c["fleet.roams"] = r.roams;
  c["fleet.leaves"] = r.leaves;
  c["fleet.lease_expiries"] = r.lease_expiries;
  c["fleet.queries"] = r.queries;
  c["fleet.cache_hits"] = r.cache_hits;
  c["fleet.cache_misses"] = r.cache_misses;
  c["fleet.deliveries"] = r.deliveries;
  c["fleet.compromised"] = r.compromised;
  c["fleet.crashed"] = r.crashed;
  c["fleet.trapped"] = r.trapped;
  c["fleet.canaries_defeated"] = r.canaries_defeated;
  c["pool.lanes"] = r.pool.lanes;
  c["pool.restores"] = r.pool.restores;
  c["pool.evaluations"] = r.pool.evaluations;
  c["pool.memo_hits"] = r.pool.memo_hits;
  if (r.victims != kFleetVictims) {
    Fail(campaign, "simulated " + std::to_string(r.victims) + " victims");
  }
  if (r.compromised == 0) Fail(campaign, "the volley compromised no victim");
  if (seed == DefaultSeed(Workload::kFleet8b) && r.digest != kFleetDigest) {
    Fail(campaign,
         "fleet digest " + Hex(r.digest) + " != pinned " + Hex(kFleetDigest));
  }
}

std::string CellLine(const attack::AttackResult& r) {
  return r.RowLabel() + " | " + r.defense + " | " + r.OutcomeLabel() + " | " +
         r.FailureLabel();
}

void CheckGrids(std::uint64_t seed,
                const std::vector<std::vector<attack::AttackResult>>& grids,
                Campaign& campaign) {
  std::uint64_t digest = kFnvOffset;
  std::uint64_t cells = 0;
  std::uint64_t probes = 0;
  for (const auto& grid : grids) {
    cells += grid.size();
    for (const attack::AttackResult& r : grid) {
      probes += static_cast<std::uint64_t>(r.probes);
      FnvBytes(digest, CellLine(r));
      FnvBytes(digest, "|" + std::string(exploit::TechniqueName(r.technique)) +
                           "|" + std::to_string(r.probes) + "|" +
                           std::to_string(r.payload_bytes) + "|" +
                           std::to_string(r.guest_steps) + "\n");
    }
    if (grid.size() != kGridCells) {
      Fail(campaign, "grid has " + std::to_string(grid.size()) + " cells");
    }
  }
  campaign.ops = cells;
  campaign.digest = digest;
  campaign.counts["attack.grid_cells"] = cells;
  campaign.counts["attack.probes"] = probes;
  if (seed == DefaultSeed(Workload::kDefenseGrid) && !grids.empty() &&
      grids[0].size() == kGridCells) {
    for (std::size_t i = 0; i < kGridCells; ++i) {
      const std::string line = CellLine(grids[0][i]);
      if (line != kGrid4242[i]) {
        Fail(campaign, "cell " + std::to_string(i) + ": '" + line +
                           "' != pinned '" + kGrid4242[i] + "'");
      }
    }
  }
}

namespace {

std::uint64_t ObsCounter(const obs::MetricsSnapshot& delta, const char* name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

}  // namespace

void AddObsCounts(const obs::MetricsSnapshot& delta, Counts& counts) {
  for (const char* name : {"vm.steps", "loader.boots", "loader.restores",
                           "mem.dirty_pages_copied"}) {
    counts[name] = ObsCounter(delta, name);
  }
}

Campaign RunLibraryCampaign(Workload workload, std::uint64_t seed) {
  // Every campaign starts as a fresh process does: the decode plans and
  // superblocks an earlier campaign of the run compiled are not reused.
  vm::DecodePlanRegistry::Instance().Clear();
  vm::SharedSuperblockRegistry::Instance().Clear();
  Campaign campaign;
  campaign.seed = seed;
  obs::Scope scope;  // rebases the process-wide counters to this campaign
  switch (workload) {
    case Workload::kFuzzDnsproxy:
    case Workload::kFuzzCamstoredW2: {
      const std::uint64_t budget = workload == Workload::kFuzzDnsproxy
                                       ? kDnsproxyExecs
                                       : kCamstoredExecs;
      const fuzz::FuzzConfig config = FuzzConfigFor(workload, seed, budget);
      const double start = NowSeconds();
      auto report = fuzz::Fuzzer(config).Run();
      campaign.seconds = NowSeconds() - start;
      if (!report.ok()) {
        campaign.status = report.status();
        campaign.ops = budget;
        break;
      }
      CheckFuzz(workload, seed, report.value(), campaign);
      break;
    }
    case Workload::kFleet8b: {
      const double start = NowSeconds();
      auto result = fleet::RunFleetCampaign(FleetConfigFor(seed, kFleetVictims));
      campaign.seconds = NowSeconds() - start;
      if (!result.ok()) {
        campaign.status = result.status();
        campaign.ops = kFleetVictims;
        break;
      }
      CheckFleet(seed, result.value(), campaign);
      break;
    }
    case Workload::kDefenseGrid: {
      std::vector<std::vector<attack::AttackResult>> grids;
      const double start = NowSeconds();
      for (std::uint64_t g = 0; g < kGridsPerBlock; ++g) {
        auto grid = attack::RunDefenseGrid(seed + g);
        if (!grid.ok()) {
          campaign.status = grid.status();
          break;
        }
        grids.push_back(std::move(grid).value());
      }
      campaign.seconds = NowSeconds() - start;
      if (!campaign.status.ok()) {
        campaign.ops = kGridsPerBlock * kGridCells;
        break;
      }
      CheckGrids(seed, grids, campaign);
      break;
    }
  }
  const obs::MetricsSnapshot delta = scope.Metrics();
  AddObsCounts(delta, campaign.counts);
  // The driver-side counters the library keeps for exactly these totals.
  if (workload == Workload::kDefenseGrid) {
    campaign.counts["attack.grid_cells"] = ObsCounter(delta, "attack.grid_cells");
  } else if (workload == Workload::kFleet8b) {
    // FireVolley restores the lane itself on a memo miss, so the driver's
    // own BootVictim calls are the restores no evaluation made.
    Counts& c = campaign.counts;
    c["pool.boot_calls"] = c["pool.restores"] - c["pool.evaluations"];
    c["pool.fire_calls"] = c["pool.memo_hits"] + c["pool.evaluations"];
  } else {
    campaign.counts["fuzz.execs"] = ObsCounter(delta, "fuzz.execs");
    campaign.counts["fuzz.corpus_adds"] = ObsCounter(delta, "fuzz.corpus_adds");
  }
  return campaign;
}

util::Status RunSmallestBudget(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::kFuzzDnsproxy:
    case Workload::kFuzzCamstoredW2: {
      fuzz::FuzzConfig config = FuzzConfigFor(workload, seed, 1);
      config.max_execs = config.workers;  // one exec per worker
      return fuzz::Fuzzer(config).Run().status();
    }
    case Workload::kFleet8b:
      return fleet::RunFleetCampaign(FleetConfigFor(seed, 1)).status();
    case Workload::kDefenseGrid: {
      // The grid's first cell: x86, no protections, no defense.
      attack::ScenarioConfig config;
      config.target_seed = seed;
      return attack::RunControlledScenario(config).status();
    }
  }
  return util::InvalidArgument("unknown workload");
}

TracedRun RunReplica(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::kFuzzDnsproxy:
    case Workload::kFuzzCamstoredW2:
      return ReplicaFuzz(workload, seed);
    case Workload::kFleet8b:
      return ReplicaFleet(seed);
    case Workload::kDefenseGrid:
      return ReplicaGrid(seed);
  }
  return {};
}

}  // namespace perfbench
