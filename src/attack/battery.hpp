// The attacker's lab and volley builder (§III, §III-D): boot a local copy of
// the firmware, extract its profile the way the paper does with gdb and
// ropper, and pre-build the wire-ready volley for every requested
// technique. Every lab in connlab comes from here: the controlled,
// Pineapple and lure scenarios, the fleet, and the two labs below that fire
// batches of volleys at defended boots.
//
// A "volley" is the complete malicious DNS response the rogue server would
// send — built once, fired many times. A fleet delivers the same profiled
// exploit to millions of victims and the diversity census fires it at
// thousands of re-randomised boots, so payload generation happens exactly
// once per technique, not once per delivery.
#pragma once

#include <cstdint>
#include <vector>

#include "src/dns/craft.hpp"
#include "src/exploit/generator.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::attack {

struct Volley {
  exploit::Technique technique = exploit::Technique::kDosCrash;
  util::Bytes response_wire;       // the full malicious response
  std::size_t payload_bytes = 0;   // expanded buffer-image size
  std::size_t labels = 0;          // DNS labels in the crafted name
  dns::PayloadImage image{0};      // the buffer image the name expands to
  dns::LabelSeq label_seq;         // the crafted name, for rogue servers
};

struct VolleyBattery {
  exploit::TargetProfile profile;  // what the lab extraction recovered
  util::Bytes query_wire;          // the query every volley answers
  std::vector<Volley> volleys;     // one per requested technique, in order
  int probes = 0;                  // responses the extraction loop used
};

/// Extracts a profile from a lab boot of (`arch`, `lab_prot`, `lab_seed`,
/// `exec`) and builds one volley per technique. The lab instance is what
/// the attacker actually studies: pass a diversified / hardened config to
/// model an attacker profiling a captured production device, or the stock
/// config for the paper's controlled-environment chapter. Techniques whose
/// payload cannot be built for this profile are skipped (volleys keeps
/// input order of the ones that could); fails when extraction itself fails,
/// or with the first technique's own error when no technique survives.
util::Result<VolleyBattery> BuildVolleyBattery(
    isa::Arch arch, const loader::ProtectionConfig& lab_prot,
    std::uint64_t lab_seed, const std::vector<exploit::Technique>& techniques,
    const vm::ExecConfig& exec = {});

struct CanaryBruteForceReport {
  bool recovered = false;    // a guess survived the canary check
  std::uint32_t canary = 0;  // the surviving guard value
  std::uint64_t attempts = 0;  // malicious responses fired
  std::uint64_t aborts = 0;    // __stack_chk_fail traps observed
  bool shell = false;  // the surviving volley also carried the exploit home
};

/// Empirically brute-forces a narrowed canary against one booted victim
/// (the E12 brute-force-resistance curve): builds the W^X-level volley in a
/// lab without the canary, boots arch + W^X + canary(entropy_bits), and
/// fires the volley's image once per candidate guard value with the 4-byte
/// guess spliced in at the canary slot (every later frame offset shifts by
/// 4, exactly what the stack protector does to the layout). Each abort is
/// the oracle "wrong guess"; the first volley that survives the check
/// rides the intact exploit to a shell. Only narrowed canaries
/// (entropy_bits <= 24) are accepted — a full-width guard is the point of
/// the defense, and enumerating 2^32 volleys is the attack cost report E12
/// exists to show.
util::Result<CanaryBruteForceReport> BruteForceCanary(
    isa::Arch arch, int entropy_bits, std::uint64_t target_seed,
    std::uint64_t max_attempts);

/// Outcome census of one volley fired at `trials` independently
/// diversified boots of the same firmware.
struct DiversityTrialStats {
  int trials = 0;
  int shells = 0;   // the stale addresses still landed (exploit survived)
  int crashes = 0;  // stale address faulted (DoS, not RCE)
  int traps = 0;    // canary / CFI / parse-error stops (stacked defenses)
  int other = 0;    // halts, step limits, benign-looking returns

  [[nodiscard]] double survival_rate() const noexcept {
    return trials > 0 ? static_cast<double>(shells) / trials : 0.0;
  }
};

/// DAEDALUS-style stochastic diversity measured: builds the volley for
/// (`arch`, `base`) once from a *non-diversified* lab boot (the attacker
/// studies the stock firmware), then fires it at `trials` stochastic boots
/// seeded seed0, seed0+1, …  The paper's deterministic "exploit works" row
/// becomes a survival probability.
util::Result<DiversityTrialStats> MeasureDiversityResistance(
    isa::Arch arch, loader::ProtectionConfig base, int trials,
    std::uint64_t seed0);

}  // namespace connlab::attack
