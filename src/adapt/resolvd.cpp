#include "src/adapt/resolvd.hpp"

#include "src/dns/name.hpp"

namespace connlab::adapt {

namespace {

/// Host safety net only: the guest stack faults long before this (the
/// largest stack maps ~2k frames), so hitting it means a layout bug, not
/// the simulated DoS.
constexpr std::uint32_t kHostHopCeiling = 1u << 20;

}  // namespace

util::Bytes Resolvd::SelfPointerQuery(std::uint16_t id) {
  util::ByteWriter w;
  w.WriteU16BE(id);
  w.WriteU16BE(0x0100);  // rd, qr=0
  w.WriteU16BE(1);       // qdcount
  w.WriteU16BE(0);
  w.WriteU16BE(0);
  w.WriteU16BE(0);
  // Question name at offset 12: a pointer to offset 12 — itself.
  w.WriteU8(0xC0);
  w.WriteU8(0x0C);
  w.WriteU16BE(1);  // qtype A
  w.WriteU16BE(1);  // qclass IN
  return std::move(w).Take();
}

util::Bytes Resolvd::WildPointerQuery(std::uint16_t id) {
  util::ByteWriter w;
  w.WriteU16BE(id);
  w.WriteU16BE(0x0100);
  w.WriteU16BE(1);
  w.WriteU16BE(0);
  w.WriteU16BE(0);
  w.WriteU16BE(0);
  // Pointer to offset 0x3FF0: far past the packet and the receive segment.
  w.WriteU8(0xFF);
  w.WriteU8(0xF0);
  w.WriteU16BE(1);
  w.WriteU16BE(1);
  return std::move(w).Take();
}

ServiceOutcome Resolvd::HandleQuery(util::ByteSpan wire) {
  ServiceOutcome outcome;
  last_hops_ = 0;
  last_expanded_ = 0;
  if (wire.size() < dns::kHeaderSize) {
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "short packet";
    return outcome;
  }
  if ((wire[2] & 0x80) != 0) {
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "not a query";
    return outcome;
  }
  const std::uint16_t qdcount =
      static_cast<std::uint16_t>((wire[4] << 8) | wire[5]);
  if (qdcount == 0) {
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "no question";
    return outcome;
  }

  auto& space = sys_.space;
  const mem::GuestAddr rx = sys_.layout.scratch_base;
  if (wire.size() > sys_.layout.scratch_size) {
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "packet larger than receive buffer";
    return outcome;
  }
  if (!space.WriteBytes(rx, wire).ok()) {
    outcome.detail = "failed to stage packet";
    return outcome;
  }

  // The recursive expansion. Every label and every pointer hop "recurses":
  // a kFrameBytes frame lands on the guest stack, and the packet offset is
  // re-read through guest memory — exactly the two resources the missing
  // guards are supposed to protect (stack depth, packet bounds).
  std::uint32_t pos = dns::kHeaderSize;
  mem::GuestAddr sp = sys_.layout.initial_sp();
  const util::Bytes frame(kFrameBytes, 0);
  while (last_hops_ < kHostHopCeiling) {
    auto len = space.ReadU8(rx + pos);
    if (!len.ok()) {
      return ServiceOutcomeFromFault(
          space, "compression pointer read out of bounds at offset " +
                     std::to_string(pos));
    }
    if (len.value() == 0) break;

    // "Recurse": push a frame. When the stack mapping runs out, this is
    // the stack-exhaustion write fault the pointer loop drives.
    sp -= kFrameBytes;
    if (!space.WriteBytes(sp, frame).ok() || !space.WriteU32(sp, pos).ok()) {
      return ServiceOutcomeFromFault(
          space, "recursive expansion exhausted the stack after " +
                     std::to_string(last_hops_) + " frames");
    }
    ++last_hops_;

    if ((len.value() & dns::kCompressionFlags) == dns::kCompressionFlags) {
      auto lo = space.ReadU8(rx + pos + 1);
      if (!lo.ok()) {
        return ServiceOutcomeFromFault(space, "truncated compression pointer");
      }
      // The bug: no visited-set, no hop budget — follow unconditionally.
      pos = (static_cast<std::uint32_t>(len.value() & 0x3F) << 8) |
            lo.value();
      continue;
    }
    last_expanded_ += len.value() + 1u;
    pos += 1u + len.value();
  }

  // Benign completion: hand the expanded name to the guest resume path so
  // the run produces real guest coverage.
  if (!resume_.ok()) {
    outcome.detail = "resume symbol missing";
    return outcome;
  }
  auto& cpu = *sys_.cpu;
  cpu.ClearEvents();
  cpu.set_sp(sys_.layout.initial_sp());
  cpu.set_pc(resume_.value());
  outcome = ServiceOutcomeFromStop(cpu.Run(budget_));
  if (outcome.kind == ServiceOutcome::Kind::kOk) {
    outcome.detail = "name expanded: " + std::to_string(last_expanded_) +
                     " bytes in " + std::to_string(last_hops_) + " steps";
  }
  return outcome;
}

util::Result<exploit::TargetProfile> Resolvd::ProfileFor() const {
  exploit::TargetProfile profile;
  profile.arch = sys_.arch;
  profile.prot = sys_.prot;
  profile.buffer_addr = sys_.layout.scratch_base;
  return profile;
}

}  // namespace connlab::adapt
