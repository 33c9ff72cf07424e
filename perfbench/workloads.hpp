// The benchmark's four workloads: what each one runs, at which fixed budget,
// and the output checks every run applies.
//
// One campaign is one call of a library driver at the workload's fixed
// budget (the grid: a block of successive-seed grids). A timed run cycles
// through a few distinct campaigns whose seeds derive from the run seed,
// round after round, until its time is up, so every repeat of a campaign
// must reproduce that campaign's first digest; at the pinned default seeds
// the digests (and the grid's per-cell outcome table) must also match the
// values recorded below.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/attack/outcome.hpp"
#include "src/fleet/campaign.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/status.hpp"
#include "tracer.hpp"

namespace perfbench {

using namespace connlab;

enum class Workload : std::uint8_t {
  kFuzzDnsproxy,     // one worker, vulnerable 1.34 dnsproxy (CVE path)
  kFuzzCamstoredW2,  // two workers with epoch sync, stateful heap daemon
  kFleet8b,          // stack-smash fleet at 8 bits of diversity
  kDefenseGrid,      // the 60-cell defense grid over successive seeds
};

std::optional<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload workload);
/// The pinned seed: 42 for fuzz and fleet, 4242 for the grid.
std::uint64_t DefaultSeed(Workload workload);
/// Worker threads one campaign runs.
unsigned WorkerThreads(Workload workload);
/// Seeds of a timed run's distinct campaigns: the run seed first, so the
/// pinned checks apply at the default seed, then SplitMix64 draws from it,
/// so runs at different seeds share no campaign. Their number evens out how
/// much work one seed's inputs happen to cost.
std::vector<std::uint64_t> CampaignSeeds(Workload workload, std::uint64_t seed);

/// Exact counts one campaign leaves behind, by name. A library run and its
/// traced replica must agree on every key.
using Counts = std::map<std::string, std::uint64_t>;

struct Campaign {
  std::uint64_t seed = 0;
  util::Status status;     // a failed driver call fails every operation
  std::uint64_t ops = 0;   // execs, victims or cells attempted
  double seconds = 0;      // wall time of the driver call(s)
  std::uint64_t digest = 0;
  std::vector<std::string> check_failures;
  Counts counts;
};

// --- Fixed budgets ---------------------------------------------------------

inline constexpr std::uint64_t kDnsproxyExecs = 5000;
inline constexpr std::uint64_t kCamstoredExecs = 50000;
inline constexpr std::uint64_t kFleetVictims = 100000;
inline constexpr std::uint64_t kGridsPerBlock = 8;
inline constexpr std::size_t kGridCells = 60;

fuzz::FuzzConfig FuzzConfigFor(Workload workload, std::uint64_t seed,
                               std::uint64_t max_execs);
fleet::FleetConfig FleetConfigFor(std::uint64_t seed, std::uint64_t victims);

// --- Output checks ---------------------------------------------------------

/// Checks a finished fuzz campaign (library or replica) and fills the
/// campaign's ops, digest and counts.
void CheckFuzz(Workload workload, std::uint64_t seed,
               const fuzz::FuzzReport& report, Campaign& campaign);
void CheckFleet(std::uint64_t seed, const fleet::FleetResult& result,
                Campaign& campaign);
/// One grid cell as the pinned table spells it: row | defense | outcome | why.
std::string CellLine(const attack::AttackResult& result);
/// `grids` holds one result vector per grid, for target seeds seed,
/// seed + 1, ...
void CheckGrids(std::uint64_t seed,
                const std::vector<std::vector<attack::AttackResult>>& grids,
                Campaign& campaign);

// --- Library drivers, tracing off -----------------------------------------

/// One campaign through the library's own driver.
Campaign RunLibraryCampaign(Workload workload, std::uint64_t seed);

/// The driver call at its smallest budget: one exec per worker, one
/// victim, or one grid cell. What a run pays before its first operation.
util::Status RunSmallestBudget(Workload workload, std::uint64_t seed);

// --- Traced replicas -------------------------------------------------------

struct TracedRun {
  Campaign campaign;
  std::vector<std::string> span_names;
  std::vector<std::vector<Span>> threads;  // one span list per thread
  double wall_seconds = 0;                 // the whole replica call
};

/// Drives a replica of the workload's library driver loop from benchmark
/// code, recording a span around every public layer call.
TracedRun RunReplica(Workload workload, std::uint64_t seed);

TracedRun ReplicaFuzz(Workload workload, std::uint64_t seed);
TracedRun ReplicaFleet(std::uint64_t seed);
TracedRun ReplicaGrid(std::uint64_t seed);

/// Obs-registry counters the campaign's objects left behind (read after
/// they are destroyed: the VM flushes vm.steps when a Cpu dies).
void AddObsCounts(const obs::MetricsSnapshot& delta, Counts& counts);

double NowSeconds();
/// A digest as 16 lowercase hex digits.
std::string Hex(std::uint64_t value);

}  // namespace perfbench
