#include "src/defense/mitigation.hpp"

#include <string_view>

namespace connlab::defense {

void DefensePolicy::Configure(loader::ProtectionConfig& prot) const {
  if (canary_bits > 0) {
    prot.canary = true;
    prot.canary_entropy_bits = canary_bits;
  }
  if (cfi) prot.cfi = true;
  if (stochastic_diversity) prot.stochastic_diversity = true;
  if (heap_integrity) prot.heap_integrity = true;
}

std::string DefensePolicy::Label() const {
  if (empty()) return "none";
  if (canary_bits > 0 && cfi && stochastic_diversity) return "all";
  std::string label;
  const auto add = [&label](std::string_view name) {
    if (!label.empty()) label += '+';
    label += name;
  };
  if (canary_bits > 0) add("canary");
  if (cfi) add("CFI");
  if (stochastic_diversity) add("diversity");
  if (heap_integrity) add("heap-integrity");
  return label;
}

std::vector<std::string> DefensePolicy::Describe() const {
  std::vector<std::string> lines;
  if (canary_bits > 0) {
    lines.push_back(
        "stack canary: per-boot random guard below the saved registers, " +
        std::to_string(canary_bits) +
        " bits of entropy; checked before the parse_response epilogue");
  }
  if (cfi) {
    lines.push_back(
        "shadow-stack CFI: returns must match an isolated shadow copy "
        "(CFI CaRE model); violations stop the CPU with kCfiViolation");
  }
  if (stochastic_diversity) {
    lines.push_back(
        "stochastic diversity: per-boot function shuffle, gap padding and "
        "libc re-seating (DAEDALUS model); hardcoded addresses go stale");
  }
  if (heap_integrity) {
    lines.push_back(
        "heap integrity: chunk-header canaries (size ^ per-boot secret) and "
        "safe-unlink fd/bk checks verified on every free; a mismatch raises "
        "the HeapCorruption VM stop before the unlink write fires");
  }
  return lines;
}

util::Result<std::unique_ptr<loader::System>> DefensePolicy::BootHardened(
    isa::Arch arch, loader::ProtectionConfig base, std::uint64_t seed,
    const vm::ExecConfig& exec) const {
  Configure(base);
  return loader::Boot(arch, base, seed, exec);
}

std::vector<DefensePolicy> StandardPolicies() {
  return {DefensePolicy::None(), DefensePolicy::Canary(), DefensePolicy::Cfi(),
          DefensePolicy::Diversity(), DefensePolicy::All()};
}

}  // namespace connlab::defense
