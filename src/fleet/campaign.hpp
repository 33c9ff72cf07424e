// The fleet campaign driver: DAEDALUS's question asked at population scale.
//
// One attacker profiles ONE captured device and fires the same pre-built
// volley across a churning fleet. Every victim is a snapshot-restore boot
// of one of 2^b diversity variants with its own sampled mitigation policy;
// the campaign answers "what fraction of the population does that single
// profiled exploit compromise?" as a function of diversity entropy,
// mitigation adoption, and how much traffic the attacker can race.
//
// Everything runs in virtual time off one seed: the same (seed, config)
// replays to the same event order, the same outcomes, and the same FNV
// digest on any machine — the reproducibility contract the tests enforce.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/defense/victim_pool.hpp"
#include "src/fleet/event_queue.hpp"
#include "src/fleet/population.hpp"
#include "src/fleet/rogue_ap.hpp"
#include "src/isa/isa.hpp"
#include "src/loader/layout.hpp"
#include "src/util/status.hpp"

namespace connlab::fleet {

/// Which seeded bug class the campaign's attacker exercises. The classes
/// differ in what their exploit depends on, which is exactly what the
/// survival sweep measures: the stack smash carries profiled addresses
/// (diversity moves them), the pointer loop is pure wire bytes (nothing to
/// move), and the heap-metadata overwrite rides allocator addresses the
/// diversity shuffle never touches (only heap-integrity adopters block it).
enum class BugClass : std::uint8_t {
  kStackSmash,    // dnsproxy response smash (address-dependent)
  kPointerLoop,   // resolvd compression-pointer loop (address-free DoS)
  kHeapMetadata,  // camstored chunk-tag overwrite + unlink write
};

std::string_view BugClassName(BugClass bug_class) noexcept;

struct FleetConfig {
  std::uint64_t victims = 1000;
  std::uint64_t seed = 42;
  isa::Arch arch = isa::Arch::kVX86;
  loader::ProtectionConfig base = loader::ProtectionConfig::WxAslr();
  PopulationProfile population = PopulationProfile::IoTDefault();
  RogueAp::Config ap;
  std::uint32_t max_concurrent = 4096;  // sessions alive at once
  std::uint32_t profiled_variant = 0;   // the device the attacker captured
  double attack_rate = 0.25;            // fraction of queries the AP races
  std::uint64_t brute_budget = 4096;    // responses/victim for canary guessing
  BugClass bug_class = BugClass::kStackSmash;  // the exploit the AP races
};

struct FleetResult {
  BugClass bug_class = BugClass::kStackSmash;
  // Lifecycle.
  std::uint64_t victims = 0;
  std::uint64_t joins = 0;
  std::uint64_t join_retries = 0;  // DHCP pool exhausted, backed off
  std::uint64_t renews = 0;
  std::uint64_t roams = 0;
  std::uint64_t leaves = 0;
  std::uint64_t lease_expiries = 0;
  // Traffic.
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  // Attack.
  std::uint64_t deliveries = 0;          // malicious responses raced in
  std::uint64_t compromised = 0;         // unique victims shelled
  std::uint64_t crashed = 0;             // unique victims DoS'd
  std::uint64_t trapped = 0;             // deliveries a mitigation caught
  std::uint64_t canaries_defeated = 0;   // weak guards brute-forced
  std::uint64_t brute_responses = 0;     // traffic the brute-forcing cost
  defense::VictimPool::Stats pool;       // lanes / restores / memo hits
  // Reproducibility + throughput.
  std::uint64_t digest = 0;  // FNV-1a over the processed event stream
  SimTime sim_end_us = 0;    // virtual clock at drain
  double wall_seconds = 0.0;
  double victims_per_sec = 0.0;

  [[nodiscard]] double compromised_fraction() const noexcept {
    return victims == 0 ? 0.0
                        : static_cast<double>(compromised) /
                              static_cast<double>(victims);
  }
};

/// Runs one campaign to completion (every victim seated, attacked or not,
/// and drained). diversity_bits above 8 is rejected: lanes are real boots
/// kept resident, and 2^8 variants x policy buckets is the sane ceiling.
util::Result<FleetResult> RunFleetCampaign(const FleetConfig& config);

/// One row of the survival curve: the same population at a given entropy,
/// attacked once per bug class. The unqualified fields are the stack-smash
/// class (the original curve); the loop_/heap_ fields are the same fleet
/// under the pointer-loop and heap-metadata attackers.
struct SurvivalPoint {
  int diversity_bits = 0;
  std::uint64_t victims = 0;
  // Stack smash: address-dependent, so diversity entropy starves it.
  std::uint64_t compromised = 0;
  std::uint64_t crashed = 0;
  double compromised_fraction = 0.0;
  std::uint64_t digest = 0;
  double victims_per_sec = 0.0;
  // Pointer loop: address-free DoS — its curve should be flat in entropy.
  std::uint64_t loop_crashed = 0;
  double loop_crashed_fraction = 0.0;
  std::uint64_t loop_digest = 0;
  // Heap metadata: heap addresses are unrandomised, so entropy does not
  // help; only the population's heap-integrity adopters trap it. Under a
  // W^X base the pivot lands on non-executable heap pages and the class
  // degrades to crashes instead of shells — both columns are kept so the
  // curve stays honest either way.
  std::uint64_t heap_compromised = 0;
  double heap_compromised_fraction = 0.0;
  std::uint64_t heap_crashed = 0;
  std::uint64_t heap_trapped = 0;
  std::uint64_t heap_digest = 0;
};

/// Sweeps diversity entropy, re-running the campaign per point (same seed,
/// same population otherwise) once per bug class. The returned curve is the
/// experiment's deliverable: per-bug-class compromise/DoS fraction vs
/// entropy bits — diversity starves the stack smash while leaving the
/// pointer-loop and heap-metadata classes untouched.
///
/// The (point, bug class) campaigns are embarrassingly parallel — each is a
/// self-contained virtual-time simulation off its own seed — and run across
/// `sweep_workers` threads (0 = one per hardware core, 1 = serial). Results
/// are assembled in point-then-class order regardless of completion order,
/// so the curve, its digests, and which error wins when several campaigns
/// fail are identical to the serial path.
util::Result<std::vector<SurvivalPoint>> RunSurvivalSweep(
    FleetConfig config, const std::vector<int>& entropy_bits,
    std::size_t sweep_workers = 0);

}  // namespace connlab::fleet
