// The defense policy: which retrofitted exploit mitigations a victim boots
// with (§IV made first-class).
//
// A DefensePolicy is one plain value. Each field is a defense an IoT
// deployment could retrofit, and each folds into the boot-time
// ProtectionConfig, the only thing the loader and the VM read. It is the
// unit the attack matrix sweeps, so every scenario is graded as
// arch × protections × defense, and the fleet samples one per client and
// keys its snapshot lanes on it: equal policies boot byte-identical
// protection configs.
//
// The defenses mirror the related work the repo tracks: shadow-stack CFI
// (CFI CaRE), stack canaries with a brute-force-resistance knob,
// DAEDALUS-style stochastic software diversity, and heap-integrity checks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/isa/isa.hpp"
#include "src/loader/boot.hpp"
#include "src/util/status.hpp"

namespace connlab::defense {

struct DefensePolicy {
  /// Stack canary entropy in bits; 0 disables the stack protector. The
  /// per-boot guard sits below the saved registers and is checked before
  /// the parse_response epilogue. Cost-down IoT firmware has shipped with
  /// narrowed guards, so the width is the brute-force-resistance knob
  /// (see StackCanary and BruteForceCanary).
  int canary_bits = 0;
  /// Shadow-stack control-flow integrity, after CFI CaRE: every call pushes
  /// the return address onto an isolated shadow stack (the host-side vector
  /// in vm::Cpu, standing in for TrustZone-protected memory), and every
  /// return — `ret` on VX86, `pop {…, pc}` on VARM, and the parse_response
  /// epilogue itself — must match the shadow top or the CPU stops with
  /// StopReason::kCfiViolation. The attacker can smash the guest stack at
  /// will; the shadow copy is simply not addressable from guest code.
  bool cfi = false;
  /// DAEDALUS-style stochastic diversity: every boot reshuffles the image's
  /// function order, pads inter-function gaps and re-seats the libc entry
  /// points, so hardcoded addresses in a profiled exploit go stale.
  bool stochastic_diversity = false;
  /// Heap-integrity checks (the embedded-mitigations survey's "heap
  /// protection" column): the guest allocator's chunk-header canaries and
  /// safe-unlink invariants are verified on every free, and a mismatch
  /// stops the VM with kHeapCorruption before the unlink write fires.
  /// Stack canaries and CFI never see the heap-metadata bug class; this is
  /// the defense that does. Services that attach a GuestHeap arm it.
  bool heap_integrity = false;

  static DefensePolicy None() { return {}; }
  static DefensePolicy Canary(int entropy_bits = 32) {
    return {.canary_bits = entropy_bits};
  }
  static DefensePolicy Cfi() { return {.cfi = true}; }
  static DefensePolicy Diversity() { return {.stochastic_diversity = true}; }
  static DefensePolicy HeapIntegrityChecks() {
    return {.heap_integrity = true};
  }
  static DefensePolicy All() {
    return {.canary_bits = 32, .cfi = true, .stochastic_diversity = true};
  }

  [[nodiscard]] bool empty() const noexcept {
    return canary_bits <= 0 && !cfi && !stochastic_diversity &&
           !heap_integrity;
  }

  /// Turns on every enabled defense in `prot` (what the victim boots with).
  void Configure(loader::ProtectionConfig& prot) const;

  /// Stable short label for report columns: "none", "canary", "CFI",
  /// "diversity", "heap-integrity", "all", or a "+"-joined combination.
  [[nodiscard]] std::string Label() const;

  /// One line per enabled defense, for reports and the defense lab.
  [[nodiscard]] std::vector<std::string> Describe() const;

  /// Convenience: Configure + Boot in one step.
  util::Result<std::unique_ptr<loader::System>> BootHardened(
      isa::Arch arch, loader::ProtectionConfig base, std::uint64_t seed,
      const vm::ExecConfig& exec = {}) const;

  /// Stable compact key (canary bits are 0..32, so 6 bits suffice).
  [[nodiscard]] std::uint32_t Key() const noexcept {
    return static_cast<std::uint32_t>(canary_bits) |
           (cfi ? 1u << 6 : 0u) | (stochastic_diversity ? 1u << 7 : 0u) |
           (heap_integrity ? 1u << 8 : 0u);
  }

  bool operator==(const DefensePolicy&) const = default;
};

/// The fleet's former name for the policy value, still spelled by
/// perfbench/replica_fleet.cpp.
using PolicySpec = DefensePolicy;

/// The five policies every defense report sweeps, in report order:
/// none, canary, CFI, diversity, all.
std::vector<DefensePolicy> StandardPolicies();

}  // namespace connlab::defense
