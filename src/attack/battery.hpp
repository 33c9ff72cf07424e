// Batch exploit preparation: extract one target profile in the attacker's
// lab and pre-build the wire-ready volley for every requested technique.
//
// A "volley" is the complete malicious DNS response the rogue server would
// send — built once, fired many times. This is the batch API the
// population-scale campaigns need: a fleet simulator delivers the same
// profiled exploit to millions of victims, and the diversity lab fires the
// same volleys at thousands of re-randomised boots, so payload generation
// must happen exactly once per technique, not once per delivery.
#pragma once

#include <cstdint>
#include <vector>

#include "src/exploit/generator.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::attack {

struct Volley {
  exploit::Technique technique = exploit::Technique::kDosCrash;
  util::Bytes response_wire;       // the full malicious response
  std::size_t payload_bytes = 0;   // expanded buffer-image size
  std::size_t labels = 0;          // DNS labels in the crafted name
};

struct VolleyBattery {
  exploit::TargetProfile profile;  // what the lab extraction recovered
  util::Bytes query_wire;          // the query every volley answers
  std::vector<Volley> volleys;     // one per requested technique, in order
  int probes = 0;                  // responses the extraction loop used
};

/// Extracts a profile from a lab boot of (`arch`, `lab_prot`, `lab_seed`)
/// and builds one volley per technique. The lab instance is what the
/// attacker actually studies: pass a diversified / hardened config to model
/// an attacker profiling a captured production device, or the stock config
/// for the paper's controlled-environment chapter. Techniques whose payload
/// cannot be built for this profile are skipped (volleys keeps input order
/// of the ones that could); fails only when extraction itself fails or no
/// technique survives.
util::Result<VolleyBattery> BuildVolleyBattery(
    isa::Arch arch, const loader::ProtectionConfig& lab_prot,
    std::uint64_t lab_seed, const std::vector<exploit::Technique>& techniques);

}  // namespace connlab::attack
