// "resolvd" — a GNUnet-flavoured recursive name expander with unchecked
// compression-pointer following (the GNUnet DNS parser blueprint: recursion
// per label/pointer, no loop guard, no hop budget). The bug class is
// control-flow-free: a self-referential pointer recurses until the guest
// stack mapping is exhausted (write fault), and a pointer past the packet
// reads out of the receive buffer's segment (read fault). No return address
// is ever overwritten, so canaries, CFI and diversity have nothing to
// catch — only the crash itself is observable. That is the bug class the
// six stack-smash attacks in the matrix do not cover.
#pragma once

#include "src/adapt/minimasq.hpp"
#include "src/dns/message.hpp"
#include "src/loader/boot.hpp"

namespace connlab::adapt {

class Resolvd {
 public:
  /// Guest stack bytes one expansion step consumes (the recursion frame:
  /// saved offset, saved registers, the label scratch — GNUnet's
  /// parse_name allocates per level).
  static constexpr std::uint32_t kFrameBytes = 64;

  explicit Resolvd(loader::System& sys)
      : sys_(sys), resume_(sys.Sym("connman.resume_ok")) {}

  /// The vulnerable path: expands the question name of `wire`, following
  /// compression pointers recursively with no visited-set and no hop
  /// budget. Each step writes a real kFrameBytes frame to the guest stack.
  /// Size signal: the expanded name bytes, never overflowed; gradient: the
  /// frames pushed (labels and pointer hops), the recursion depth.
  ServiceOutcome HandleQuery(util::ByteSpan wire);

  [[nodiscard]] loader::System& system() noexcept { return sys_; }

  /// The pointer-loop DoS packet: a query whose question name is a
  /// compression pointer to its own offset — one packet, unbounded
  /// recursion (Technique::kPointerLoopDos).
  static util::Bytes SelfPointerQuery(std::uint16_t id);
  /// The OOB-read variant: the pointer targets an offset far past the
  /// packet (and past the receive segment).
  static util::Bytes WildPointerQuery(std::uint16_t id);

 private:
  loader::System& sys_;
  util::Result<mem::GuestAddr> resume_;  // resolved once, at attach
};

}  // namespace connlab::adapt
