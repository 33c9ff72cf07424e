#include "src/defense/mitigation.hpp"

#include "src/defense/canary.hpp"
#include "src/defense/cfi.hpp"
#include "src/defense/diversity.hpp"
#include "src/defense/heap_integrity.hpp"

namespace connlab::defense {

std::string_view DefenseKindName(DefenseKind kind) noexcept {
  switch (kind) {
    case DefenseKind::kStackCanary: return "stack-canary";
    case DefenseKind::kShadowStackCfi: return "shadow-stack-cfi";
    case DefenseKind::kStochasticDiversity: return "stochastic-diversity";
    case DefenseKind::kHeapIntegrity: return "heap-integrity";
  }
  return "?";
}

util::Status Mitigation::Arm(loader::System& sys) const {
  (void)sys;
  return util::OkStatus();
}

std::shared_ptr<const Mitigation> MakeMitigation(DefenseKind kind) {
  switch (kind) {
    case DefenseKind::kStackCanary:
      return std::make_shared<StackCanary>();
    case DefenseKind::kShadowStackCfi:
      return std::make_shared<ShadowStackCfi>();
    case DefenseKind::kStochasticDiversity:
      return std::make_shared<StochasticDiversity>();
    case DefenseKind::kHeapIntegrity:
      return std::make_shared<HeapIntegrity>();
  }
  return nullptr;
}

DefensePolicy DefensePolicy::Canary(int entropy_bits) {
  DefensePolicy policy;
  policy.Add(std::make_shared<StackCanary>(entropy_bits));
  return policy;
}

DefensePolicy DefensePolicy::Cfi() {
  DefensePolicy policy;
  policy.Add(std::make_shared<ShadowStackCfi>());
  return policy;
}

DefensePolicy DefensePolicy::Diversity() {
  DefensePolicy policy;
  policy.Add(std::make_shared<StochasticDiversity>());
  return policy;
}

DefensePolicy DefensePolicy::HeapIntegrityChecks() {
  DefensePolicy policy;
  policy.Add(std::make_shared<HeapIntegrity>());
  return policy;
}

DefensePolicy DefensePolicy::All() {
  DefensePolicy policy;
  policy.Add(std::make_shared<StackCanary>())
      .Add(std::make_shared<ShadowStackCfi>())
      .Add(std::make_shared<StochasticDiversity>());
  return policy;
}

DefensePolicy& DefensePolicy::Add(std::shared_ptr<const Mitigation> mitigation) {
  if (mitigation != nullptr) mitigations_.push_back(std::move(mitigation));
  return *this;
}

bool DefensePolicy::Has(DefenseKind kind) const noexcept {
  for (const auto& m : mitigations_) {
    if (m->kind() == kind) return true;
  }
  return false;
}

void DefensePolicy::Configure(loader::ProtectionConfig& prot) const {
  for (const auto& m : mitigations_) m->Configure(prot);
}

util::Status DefensePolicy::Arm(loader::System& sys) const {
  for (const auto& m : mitigations_) {
    CONNLAB_RETURN_IF_ERROR(m->Arm(sys));
  }
  return util::OkStatus();
}

std::string DefensePolicy::Label() const {
  if (mitigations_.empty()) return "none";
  if (Has(DefenseKind::kStackCanary) && Has(DefenseKind::kShadowStackCfi) &&
      Has(DefenseKind::kStochasticDiversity)) {
    return "all";
  }
  std::string label;
  for (const auto& m : mitigations_) {
    if (!label.empty()) label += '+';
    label += m->name();
  }
  return label;
}

util::Result<std::unique_ptr<loader::System>> DefensePolicy::BootHardened(
    isa::Arch arch, loader::ProtectionConfig base, std::uint64_t seed,
    const vm::ExecConfig& exec) const {
  Configure(base);
  CONNLAB_ASSIGN_OR_RETURN(auto sys, loader::Boot(arch, base, seed, exec));
  CONNLAB_RETURN_IF_ERROR(Arm(*sys));
  return sys;
}

DefensePolicy PolicySpec::Build() const {
  DefensePolicy policy;
  if (canary_bits > 0) policy.Add(std::make_shared<StackCanary>(canary_bits));
  if (cfi) policy.Add(std::make_shared<ShadowStackCfi>());
  if (stochastic_diversity) policy.Add(std::make_shared<StochasticDiversity>());
  if (heap_integrity) policy.Add(std::make_shared<HeapIntegrity>());
  return policy;
}

std::string PolicySpec::Label() const {
  if (canary_bits <= 0 && !cfi && !stochastic_diversity && !heap_integrity) {
    return "none";
  }
  std::string label;
  if (canary_bits > 0) label = "canary" + std::to_string(canary_bits);
  if (cfi) {
    if (!label.empty()) label += '+';
    label += "CFI";
  }
  if (stochastic_diversity) {
    if (!label.empty()) label += '+';
    label += "diversity";
  }
  if (heap_integrity) {
    if (!label.empty()) label += '+';
    label += "heap-integrity";
  }
  return label;
}

std::vector<DefensePolicy> StandardPolicies() {
  std::vector<DefensePolicy> policies;
  policies.push_back(DefensePolicy::None());
  policies.push_back(DefensePolicy::Canary());
  policies.push_back(DefensePolicy::Cfi());
  policies.push_back(DefensePolicy::Diversity());
  policies.push_back(DefensePolicy::All());
  return policies;
}

}  // namespace connlab::defense
