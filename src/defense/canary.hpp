// The stack protector as a deployable mitigation, with the knob the paper's
// victims lacked: how much entropy the per-boot canary actually carries.
// Real Connman builds get a full 32-bit guard (minus the terminator-byte
// convention); cost-down IoT firmware has shipped with narrowed or static
// guards, so the lab exposes `entropy_bits`. This is the cost model; the
// empirical brute-forcer that measures how many response volleys a
// narrowed canary survives (E12) is attack::BruteForceCanary.
#pragma once

#include <cmath>

namespace connlab::defense {

/// The brute-force cost model of a stack canary `entropy_bits` wide (the
/// guard itself is DefensePolicy::canary_bits).
class StackCanary {
 public:
  explicit StackCanary(int entropy_bits = 32) : entropy_bits_(entropy_bits) {}

  [[nodiscard]] int entropy_bits() const noexcept { return entropy_bits_; }

  /// Mean number of overflow attempts before a blind brute force recovers
  /// the guard: half the 2^bits search space.
  [[nodiscard]] double ExpectedBruteForceAttempts() const noexcept {
    return std::ldexp(1.0, entropy_bits_ - 1);
  }

 private:
  int entropy_bits_;
};

}  // namespace connlab::defense
