// The stack protector as a deployable mitigation, with the knob the paper's
// victims lacked: how much entropy the per-boot canary actually carries.
// Real Connman builds get a full 32-bit guard (minus the terminator-byte
// convention); cost-down IoT firmware has shipped with narrowed or static
// guards, so the lab exposes `entropy_bits` and an empirical brute-forcer
// that measures exactly how many response volleys a narrowed canary
// survives — the brute-force-resistance curve for E12.
#pragma once

#include <cstdint>

#include "src/isa/isa.hpp"
#include "src/util/status.hpp"

namespace connlab::defense {

/// The brute-force cost model of a stack canary `entropy_bits` wide (the
/// guard itself is DefensePolicy::canary_bits).
class StackCanary {
 public:
  explicit StackCanary(int entropy_bits = 32) : entropy_bits_(entropy_bits) {}

  [[nodiscard]] int entropy_bits() const noexcept { return entropy_bits_; }

  /// Mean number of overflow attempts before a blind brute force recovers
  /// the guard: half the 2^bits search space.
  [[nodiscard]] double ExpectedBruteForceAttempts() const noexcept;

 private:
  int entropy_bits_;
};

struct CanaryBruteForceReport {
  bool recovered = false;    // a guess survived the canary check
  std::uint32_t canary = 0;  // the surviving guard value
  std::uint64_t attempts = 0;  // malicious responses fired
  std::uint64_t aborts = 0;    // __stack_chk_fail traps observed
  bool shell = false;  // the surviving volley also carried the exploit home
};

/// Empirically brute-forces a narrowed canary against one booted victim:
/// boots arch + W^X + canary(entropy_bits), builds the W^X-level exploit
/// from a lab profile, and fires it once per candidate guard value with the
/// 4-byte guess spliced in at the canary slot (every later frame offset
/// shifts by 4, exactly what the stack protector does to the layout). Each
/// abort is the oracle "wrong guess"; the first volley that survives the
/// check rides the intact exploit to a shell. Only narrowed canaries
/// (entropy_bits <= 24) are accepted — a full-width guard is the point of
/// the defense, and enumerating 2^32 volleys is the attack cost report E12
/// exists to show.
util::Result<CanaryBruteForceReport> BruteForceCanary(
    isa::Arch arch, int entropy_bits, std::uint64_t target_seed,
    std::uint64_t max_attempts);

}  // namespace connlab::defense
