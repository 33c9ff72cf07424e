#include "src/defense/diversity.hpp"

#include "src/attack/battery.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/defense/mitigation.hpp"

namespace connlab::defense {

util::Result<DiversityTrialStats> MeasureDiversityResistance(
    isa::Arch arch, loader::ProtectionConfig base, int trials,
    std::uint64_t seed0) {
  if (trials < 1) return util::InvalidArgument("trials must be positive");

  // The attacker profiles the stock (non-diversified) firmware and builds
  // one volley; diversity's whole claim is that this volley goes stale.
  CONNLAB_ASSIGN_OR_RETURN(
      attack::VolleyBattery battery,
      attack::BuildVolleyBattery(arch, base, /*lab_seed=*/100,
                                 {exploit::TechniqueFor(arch, base)}));
  if (battery.volleys.size() != 1) {
    return util::FailedPrecondition(
        "the technique is not buildable for this profile");
  }

  loader::ProtectionConfig victim_prot = base;
  DefensePolicy::Diversity().Configure(victim_prot);

  DiversityTrialStats stats;
  stats.trials = trials;
  for (int t = 0; t < trials; ++t) {
    CONNLAB_ASSIGN_OR_RETURN(
        auto victim,
        loader::Boot(arch, victim_prot, seed0 + static_cast<std::uint64_t>(t)));
    connman::DnsProxy proxy(*victim, connman::Version::k134);
    CONNLAB_ASSIGN_OR_RETURN(util::Bytes fwd,
                             proxy.AcceptClientQuery(battery.query_wire));
    (void)fwd;

    using Kind = connman::ProxyOutcome::Kind;
    switch (proxy.HandleServerResponse(battery.volleys[0].response_wire).kind) {
      case Kind::kShell: ++stats.shells; break;
      case Kind::kCrash: ++stats.crashes; break;
      case Kind::kAbort:
      case Kind::kCfiViolation:
      case Kind::kParseError: ++stats.traps; break;
      default: ++stats.other; break;
    }
  }
  return stats;
}

}  // namespace connlab::defense
