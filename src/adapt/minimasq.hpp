// "minimasq" — a dnsmasq-flavoured DNS forwarder with its own stack-based
// name-expansion overflow (CVE-2017-14493 analogue), used to reproduce §V:
// the Connman exploit code works against other DNS-based overflows "with
// minimal modification (basic changes such as changing variables to memory
// addresses suitable for the targeted vulnerability)".
//
// Differences from the Connman target, on purpose:
//  * 512-byte reply buffer (vs 1024) and 24 bytes of locals — different
//    ret offset;
//  * no parse_rr quirks and no cleanup slots — a plainer frame;
//  * laxer header validation (dnsmasq-style: id echo only).
// The exploit builders consume a TargetProfile, so retargeting is exactly
// the paper's "change the addresses" step.
#pragma once

#include <map>

#include "src/dns/message.hpp"
#include "src/exploit/profile.hpp"
#include "src/loader/boot.hpp"
#include "src/vm/cpu.hpp"

namespace connlab::adapt {

/// Shared outcome type for the adapted services.
struct ServiceOutcome {
  enum class Kind : std::uint8_t {
    kOk,
    kRejected,
    kCrash,
    kShell,
    kExec,
    kAbort,  // a mitigation trapped: canary, CFI or heap-integrity stop
    kOther,
  };
  Kind kind = Kind::kOther;
  std::string detail;
  vm::StopInfo stop;
  /// The size signal, measured by the service's own parser (the zoo's
  /// counterpart of connman::ProxyOutcome's name_bytes_written/overflowed):
  /// the bytes it wrote or was told to copy, whether they passed its
  /// buffer, and one gradient the edge map cannot see. Each service says
  /// what they mean for it; all are 0/false when it ignored the request.
  std::uint32_t bytes_written = 0;
  bool overflowed = false;
  std::uint32_t gradient = 0;
};

/// Guest steps a zoo service's epilogue may run before it counts as hung.
inline constexpr std::uint64_t kServiceStepBudget = 200000;

std::string_view ServiceOutcomeKindName(ServiceOutcome::Kind kind);

/// A request the service refused cleanly: nothing ran on the guest.
ServiceOutcome Rejected(std::string detail);

/// The shared StopInfo -> ServiceOutcome classification every adapted
/// service uses after running the guest.
ServiceOutcome ServiceOutcomeFromStop(const vm::StopInfo& stop);

/// A crash the service's host-side code hit in guest memory (a copy that
/// ran off a mapping, a read past the packet): the address space's fault
/// record becomes the stop, and is cleared.
ServiceOutcome ServiceOutcomeFromFault(mem::AddressSpace& space,
                                       std::string detail);

/// The zoo-service outcome in the connman::ProxyOutcome vocabulary the
/// attack-matrix tables and the victim pool's memo speak.
connman::ProxyOutcome::Kind ToProxyOutcomeKind(
    ServiceOutcome::Kind kind) noexcept;

/// The stack frame Minimasq's and HttpCamd's handlers return through: a
/// `buf_size`-byte buffer, `locals` bytes of locals, the callee-saved
/// registers and the return address, which sits just below the initial sp.
/// A request stages a fresh frame, the service copies into the buffer, and
/// Return runs the handler's epilogue on the guest CPU.
class HandlerFrame {
 public:
  HandlerFrame(loader::System& sys, std::uint32_t buf_size,
               std::uint32_t locals);

  /// Offset of the saved return address from buf[0].
  [[nodiscard]] std::uint32_t ret_offset() const noexcept {
    return ret_offset_;
  }
  /// Guest address of buf[0].
  [[nodiscard]] mem::GuestAddr base() const noexcept { return base_; }

  /// Zeroes the frame and the caller area above it, then plants the
  /// connman.resume_ok return. The error message names the failed step.
  util::Status Stage();

  /// The epilogue: reloads r4-r11 from the saved-register area on VARM,
  /// then returns through the return slot and classifies the run.
  ServiceOutcome Return();

 private:
  loader::System& sys_;
  util::Result<mem::GuestAddr> resume_;  // resolved once, at attach
  std::uint32_t saved_offset_;           // buf + locals
  std::uint32_t ret_offset_;
  mem::GuestAddr base_;
};

class Minimasq {
 public:
  static constexpr std::uint32_t kBufSize = 512;
  static constexpr std::uint32_t kLocals = 24;

  explicit Minimasq(loader::System& sys)
      : sys_(sys), frame_(sys, kBufSize, kLocals) {}

  /// Offset of the saved return address from buf[0] for this build.
  [[nodiscard]] std::uint32_t ret_offset() const noexcept {
    return frame_.ret_offset();
  }

  /// Registers a pending forward (dnsmasq tracks only the transaction id).
  util::Status ForwardQuery(util::ByteSpan wire);

  /// The vulnerable reply path: expands the first answer's name into the
  /// 512-byte stack buffer with no bound check, then returns through the
  /// guest frame. Size signal: the bytes the expansion wrote (0 when the
  /// reply is rejected before the answer name), overflowed past kBufSize;
  /// no gradient.
  ServiceOutcome HandleReply(util::ByteSpan wire);

  /// The "minimal modification": a TargetProfile for this service, derived
  /// from its geometry and the image's symbols/gadgets — everything the
  /// Connman exploit builders need, nothing else changed.
  [[nodiscard]] util::Result<exploit::TargetProfile> ProfileFor() const;

  [[nodiscard]] loader::System& system() noexcept { return sys_; }

 private:
  loader::System& sys_;
  HandlerFrame frame_;
  std::map<std::uint16_t, bool> pending_;
};

}  // namespace connlab::adapt
