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
};

std::string_view ServiceOutcomeKindName(ServiceOutcome::Kind kind);

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

class Minimasq {
 public:
  static constexpr std::uint32_t kBufSize = 512;
  static constexpr std::uint32_t kLocals = 24;

  explicit Minimasq(loader::System& sys);

  /// Offset of the saved return address from buf[0] for this build.
  [[nodiscard]] std::uint32_t ret_offset() const noexcept;

  /// Registers a pending forward (dnsmasq tracks only the transaction id).
  util::Status ForwardQuery(util::ByteSpan wire);

  /// The vulnerable reply path: expands the first answer's name into the
  /// 512-byte stack buffer with no bound check, then returns through the
  /// guest frame.
  ServiceOutcome HandleReply(util::ByteSpan wire);

  /// The "minimal modification": a TargetProfile for this service, derived
  /// from its geometry and the image's symbols/gadgets — everything the
  /// Connman exploit builders need, nothing else changed.
  [[nodiscard]] util::Result<exploit::TargetProfile> ProfileFor() const;

  [[nodiscard]] loader::System& system() noexcept { return sys_; }

 private:
  loader::System& sys_;
  mem::GuestAddr frame_base_;
  util::Result<mem::GuestAddr> resume_;  // resolved once, at attach
  std::map<std::uint16_t, bool> pending_;
  std::uint64_t budget_ = 200000;
};

}  // namespace connlab::adapt
