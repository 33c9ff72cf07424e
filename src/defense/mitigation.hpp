// The pluggable exploit-mitigation layer (§IV made first-class).
//
// A Mitigation is one concrete defense an IoT deployment could retrofit:
// it knows how to fold itself into a boot-time ProtectionConfig and how to
// arm/verify itself on a booted System. A DefensePolicy is a composable set
// of mitigations — the unit the attack matrix sweeps, so every scenario is
// graded as arch × protections × defense.
//
// The three concrete defenses mirror the related work the repo tracks:
// shadow-stack CFI (CFI CaRE), stack canaries with a brute-force-resistance
// knob, and DAEDALUS-style stochastic software diversity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/isa/isa.hpp"
#include "src/loader/boot.hpp"
#include "src/util/status.hpp"

namespace connlab::defense {

enum class DefenseKind : std::uint8_t {
  kStackCanary,
  kShadowStackCfi,
  kStochasticDiversity,
  kHeapIntegrity,
};

std::string_view DefenseKindName(DefenseKind kind) noexcept;

class Mitigation {
 public:
  virtual ~Mitigation() = default;

  [[nodiscard]] virtual DefenseKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Folds the mitigation into the protection config a victim boots with.
  virtual void Configure(loader::ProtectionConfig& prot) const = 0;

  /// Arms / verifies the mitigation on a booted system. The default is a
  /// no-op: most mitigations act entirely through Configure + the loader.
  virtual util::Status Arm(loader::System& sys) const;

  /// One-line description for reports and the defense lab.
  [[nodiscard]] virtual std::string Describe() const = 0;
};

/// Builds the default-parameter mitigation of a kind.
std::shared_ptr<const Mitigation> MakeMitigation(DefenseKind kind);

/// A composable set of mitigations applied to one victim boot.
class DefensePolicy {
 public:
  DefensePolicy() = default;

  static DefensePolicy None() { return {}; }
  static DefensePolicy Canary(int entropy_bits = 32);
  static DefensePolicy Cfi();
  static DefensePolicy Diversity();
  static DefensePolicy HeapIntegrityChecks();
  static DefensePolicy All();

  DefensePolicy& Add(std::shared_ptr<const Mitigation> mitigation);

  [[nodiscard]] bool empty() const noexcept { return mitigations_.empty(); }
  [[nodiscard]] bool Has(DefenseKind kind) const noexcept;
  [[nodiscard]] const std::vector<std::shared_ptr<const Mitigation>>&
  mitigations() const noexcept {
    return mitigations_;
  }

  /// Folds every mitigation into `prot` (what the victim boots with).
  void Configure(loader::ProtectionConfig& prot) const;

  /// Arms every mitigation on a booted system.
  util::Status Arm(loader::System& sys) const;

  /// Stable short label for report columns: "none", "canary", "CFI",
  /// "diversity", "all", or a "+"-joined combination.
  [[nodiscard]] std::string Label() const;

  /// Convenience: Configure + Boot + Arm in one step.
  util::Result<std::unique_ptr<loader::System>> BootHardened(
      isa::Arch arch, loader::ProtectionConfig base, std::uint64_t seed,
      const vm::ExecConfig& exec = {}) const;

 private:
  std::vector<std::shared_ptr<const Mitigation>> mitigations_;
};

/// The five policies every defense report sweeps, in report order:
/// none, canary, CFI, diversity, all.
std::vector<DefensePolicy> StandardPolicies();

/// A value-type description of a DefensePolicy — the batch/population form.
/// Where DefensePolicy composes live Mitigation objects, a PolicySpec is a
/// POD a population profile can sample per client and a snapshot pool can
/// use as a cache key: equal keys boot byte-identical protection configs.
struct PolicySpec {
  /// Canary entropy in bits; 0 disables the stack protector entirely.
  int canary_bits = 0;
  bool cfi = false;
  bool stochastic_diversity = false;
  bool heap_integrity = false;

  /// Stable compact key (canary bits are 0..32, so 6 bits suffice).
  [[nodiscard]] std::uint32_t Key() const noexcept {
    return static_cast<std::uint32_t>(canary_bits) |
           (cfi ? 1u << 6 : 0u) | (stochastic_diversity ? 1u << 7 : 0u) |
           (heap_integrity ? 1u << 8 : 0u);
  }
  /// Builds the equivalent composed policy.
  [[nodiscard]] DefensePolicy Build() const;
  /// Short label in DefensePolicy::Label() vocabulary ("none",
  /// "canary16+CFI", "diversity", ...).
  [[nodiscard]] std::string Label() const;

  bool operator==(const PolicySpec&) const = default;
};

}  // namespace connlab::defense
