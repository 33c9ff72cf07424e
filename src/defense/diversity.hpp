// DAEDALUS-style stochastic software diversity: every boot reshuffles the
// image's function order, pads inter-function gaps, and re-seats the libc
// entry points from a boot-seeded RNG. The attacker's lab profile still
// describes *a* build — just not the one the victim is running — so every
// hardcoded gadget, PLT, and libc address in a generated exploit is a bet,
// and exploit success becomes a probability measured over many boots
// instead of a certainty.
#pragma once

#include <cstdint>
#include <vector>

#include "src/exploit/generator.hpp"
#include "src/isa/isa.hpp"
#include "src/loader/boot.hpp"
#include "src/util/status.hpp"

namespace connlab::defense {

/// Outcome census of one exploit fired at `trials` independently
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

/// Measures how often the profile-derived exploit for (`arch`, `base`)
/// still lands when each victim boot re-randomises its layout: builds the
/// exploit once from a *non-diversified* lab boot (the attacker studies the
/// stock firmware), then fires the identical volley at `trials` stochastic
/// boots seeded seed0, seed0+1, …  The paper's deterministic "exploit
/// works" row becomes a survival probability.
util::Result<DiversityTrialStats> MeasureDiversityResistance(
    isa::Arch arch, loader::ProtectionConfig base, int trials,
    std::uint64_t seed0);

/// Multi-technique census over the same diversified boots: each trial boots
/// ONE re-randomised victim, snapshots it post-boot, and fires every
/// technique's volley against a snapshot-restored copy of that boot — so
/// techniques are compared against identical layouts, and the lab pays
/// `trials` loader runs instead of `techniques x trials`. Returns one stats
/// row per technique, in input order.
util::Result<std::vector<DiversityTrialStats>> MeasureDiversityResistanceMatrix(
    isa::Arch arch, loader::ProtectionConfig base, int trials,
    std::uint64_t seed0, const std::vector<exploit::Technique>& techniques);

}  // namespace connlab::defense
