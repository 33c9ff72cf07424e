#include "src/defense/diversity.hpp"

#include "src/attack/battery.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/defense/mitigation.hpp"
#include "src/loader/snapshot.hpp"

namespace connlab::defense {

util::Result<DiversityTrialStats> MeasureDiversityResistance(
    isa::Arch arch, loader::ProtectionConfig base, int trials,
    std::uint64_t seed0) {
  CONNLAB_ASSIGN_OR_RETURN(
      std::vector<DiversityTrialStats> rows,
      MeasureDiversityResistanceMatrix(arch, base, trials, seed0,
                                       {exploit::TechniqueFor(arch, base)}));
  return rows[0];
}

util::Result<std::vector<DiversityTrialStats>> MeasureDiversityResistanceMatrix(
    isa::Arch arch, loader::ProtectionConfig base, int trials,
    std::uint64_t seed0, const std::vector<exploit::Technique>& techniques) {
  if (trials < 1) return util::InvalidArgument("trials must be positive");
  if (techniques.empty()) {
    return util::InvalidArgument("need at least one technique");
  }

  // The attacker profiles the stock (non-diversified) firmware and builds
  // one volley per technique; diversity's whole claim is that these
  // volleys go stale.
  CONNLAB_ASSIGN_OR_RETURN(
      attack::VolleyBattery battery,
      attack::BuildVolleyBattery(arch, base, /*lab_seed=*/100, techniques));
  if (battery.volleys.size() != techniques.size()) {
    return util::FailedPrecondition(
        "not every technique is buildable for this profile");
  }

  loader::ProtectionConfig victim_prot = base;
  DefensePolicy::Diversity().Configure(victim_prot);

  std::vector<DiversityTrialStats> rows(techniques.size());
  for (DiversityTrialStats& row : rows) row.trials = trials;

  for (int t = 0; t < trials; ++t) {
    // One loader run per trial; every technique sees this exact boot via
    // snapshot restore, so the comparison isolates the technique.
    CONNLAB_ASSIGN_OR_RETURN(
        auto victim,
        loader::Boot(arch, victim_prot, seed0 + static_cast<std::uint64_t>(t)));
    const loader::Snapshot snap = loader::TakeSnapshot(*victim);

    for (std::size_t v = 0; v < battery.volleys.size(); ++v) {
      if (v > 0) {
        CONNLAB_RETURN_IF_ERROR(loader::RestoreSnapshot(*victim, snap));
      }
      // A fresh proxy per volley clears host-side pending state, exactly
      // like a fresh boot would.
      connman::DnsProxy proxy(*victim, connman::Version::k134);
      CONNLAB_ASSIGN_OR_RETURN(util::Bytes fwd,
                               proxy.AcceptClientQuery(battery.query_wire));
      (void)fwd;

      using Kind = connman::ProxyOutcome::Kind;
      switch (proxy.HandleServerResponse(battery.volleys[v].response_wire)
                  .kind) {
        case Kind::kShell: ++rows[v].shells; break;
        case Kind::kCrash: ++rows[v].crashes; break;
        case Kind::kAbort:
        case Kind::kCfiViolation:
        case Kind::kParseError: ++rows[v].traps; break;
        default: ++rows[v].other; break;
      }
    }
  }
  return rows;
}

}  // namespace connlab::defense
