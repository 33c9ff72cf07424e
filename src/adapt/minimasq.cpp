#include "src/adapt/minimasq.hpp"

#include "src/dns/name.hpp"

namespace connlab::adapt {

std::string_view ServiceOutcomeKindName(ServiceOutcome::Kind kind) {
  switch (kind) {
    case ServiceOutcome::Kind::kOk: return "ok";
    case ServiceOutcome::Kind::kRejected: return "rejected";
    case ServiceOutcome::Kind::kCrash: return "crash";
    case ServiceOutcome::Kind::kShell: return "root-shell";
    case ServiceOutcome::Kind::kExec: return "exec";
    case ServiceOutcome::Kind::kAbort: return "abort";
    case ServiceOutcome::Kind::kOther: return "other";
  }
  return "?";
}

ServiceOutcome Rejected(std::string detail) {
  ServiceOutcome outcome;
  outcome.kind = ServiceOutcome::Kind::kRejected;
  outcome.detail = std::move(detail);
  return outcome;
}

ServiceOutcome ServiceOutcomeFromStop(const vm::StopInfo& stop) {
  ServiceOutcome outcome;
  outcome.stop = stop;
  switch (stop.reason) {
    case vm::StopReason::kHalted:
      outcome.kind = ServiceOutcome::Kind::kOk;
      outcome.detail = "reply processed";
      break;
    case vm::StopReason::kShellSpawned:
      outcome.kind = ServiceOutcome::Kind::kShell;
      outcome.detail = stop.detail;
      break;
    case vm::StopReason::kProcessExec:
      outcome.kind = ServiceOutcome::Kind::kExec;
      outcome.detail = stop.detail;
      break;
    case vm::StopReason::kFault:
      outcome.kind = ServiceOutcome::Kind::kCrash;
      outcome.detail = stop.detail;
      break;
    case vm::StopReason::kAbort:
    case vm::StopReason::kCfiViolation:
    case vm::StopReason::kHeapCorruption:
      outcome.kind = ServiceOutcome::Kind::kAbort;
      outcome.detail = stop.detail;
      break;
    default:
      outcome.kind = ServiceOutcome::Kind::kOther;
      outcome.detail = stop.ToString();
      break;
  }
  return outcome;
}

ServiceOutcome ServiceOutcomeFromFault(mem::AddressSpace& space,
                                       std::string detail) {
  ServiceOutcome outcome;
  outcome.kind = ServiceOutcome::Kind::kCrash;
  outcome.detail = std::move(detail);
  outcome.stop.reason = vm::StopReason::kFault;
  outcome.stop.fault = space.last_fault();
  space.ClearFault();
  return outcome;
}

connman::ProxyOutcome::Kind ToProxyOutcomeKind(
    ServiceOutcome::Kind kind) noexcept {
  using In = ServiceOutcome::Kind;
  using Out = connman::ProxyOutcome::Kind;
  switch (kind) {
    case In::kOk: return Out::kParsedOk;
    case In::kRejected: return Out::kDroppedInvalid;
    case In::kCrash: return Out::kCrash;
    case In::kShell: return Out::kShell;
    case In::kExec: return Out::kExec;
    case In::kAbort: return Out::kAbort;
    case In::kOther: return Out::kOther;
  }
  return Out::kOther;
}

HandlerFrame::HandlerFrame(loader::System& sys, std::uint32_t buf_size,
                           std::uint32_t locals)
    : sys_(sys),
      resume_(sys.Sym("connman.resume_ok")),
      saved_offset_(buf_size + locals),
      // Saved registers like the main target: 16 bytes on VX86, r4-r11 on
      // VARM.
      ret_offset_(saved_offset_ + (sys.arch == isa::Arch::kVX86 ? 16u : 32u)),
      base_(sys.layout.initial_sp() - (ret_offset_ + 4)) {}

util::Status HandlerFrame::Stage() {
  auto& space = sys_.space;
  const std::uint32_t region = sys_.layout.stack_top - base_;
  if (!space.Fill(base_, region, 0).ok()) {
    return util::Internal("failed to stage frame");
  }
  if (!resume_.ok() ||
      !space.WriteU32(base_ + ret_offset_, resume_.value()).ok()) {
    return util::Internal("failed to plant return");
  }
  return util::OkStatus();
}

ServiceOutcome HandlerFrame::Return() {
  auto& space = sys_.space;
  auto& cpu = *sys_.cpu;
  cpu.ClearEvents();
  if (sys_.arch == isa::Arch::kVARM) {
    for (std::uint32_t i = 0; i < 8; ++i) {
      cpu.set_reg(static_cast<std::uint8_t>(isa::kR4 + i),
                  space.ReadU32(base_ + saved_offset_ + 4 * i).value_or(0));
    }
  }
  auto ret = space.ReadU32(base_ + ret_offset_);
  if (!ret.ok()) {
    ServiceOutcome outcome;
    outcome.detail = "return slot unreadable";
    return outcome;
  }
  cpu.set_sp(base_ + ret_offset_ + 4);
  cpu.set_pc(ret.value());
  return ServiceOutcomeFromStop(cpu.Run(kServiceStepBudget));
}

util::Status Minimasq::ForwardQuery(util::ByteSpan wire) {
  // The reply check needs only the id, so only the header is read.
  if (wire.size() < dns::kHeaderSize) return util::Malformed("short query");
  if ((wire[2] & 0x80) != 0) return util::InvalidArgument("not a query");
  pending_[static_cast<std::uint16_t>((wire[0] << 8) | wire[1])] = true;
  return util::OkStatus();
}

ServiceOutcome Minimasq::HandleReply(util::ByteSpan wire) {
  if (wire.size() < dns::kHeaderSize) return Rejected("short packet");
  const std::uint16_t id =
      static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
  if (!pending_.contains(id) || (wire[2] & 0x80) == 0) {
    return Rejected("id/flag mismatch");
  }
  const std::uint16_t qdcount =
      static_cast<std::uint16_t>((wire[4] << 8) | wire[5]);
  const std::uint16_t ancount =
      static_cast<std::uint16_t>((wire[6] << 8) | wire[7]);

  // Stage a fresh frame: zeroed region, benign saved regs, sentinel return.
  if (util::Status staged = frame_.Stage(); !staged.ok()) {
    ServiceOutcome outcome;
    outcome.detail = staged.message();
    return outcome;
  }

  // Skip questions (well-formed walker for the skip, like dnsmasq).
  std::size_t pos = dns::kHeaderSize;
  for (int q = 0; q < qdcount; ++q) {
    auto name = dns::DecodeName(wire, pos);
    if (!name.ok()) return Rejected("bad question");
    pos += name.value().wire_len + 4;
  }

  // The vulnerable expansion of the first answer's name: no bound check on
  // the 512-byte buffer. Every outcome from here on reports what it wrote.
  std::uint32_t written = 0;
  const auto measured = [&written](ServiceOutcome outcome) {
    outcome.bytes_written = written;
    outcome.overflowed = written > kBufSize;
    return outcome;
  };
  auto& space = sys_.space;
  if (ancount > 0) {
    while (pos < wire.size()) {
      const std::uint8_t len = wire[pos];
      if (len == 0) break;
      if ((len & dns::kCompressionFlags) != 0) {
        return measured(Rejected("pointer in reply name (unsupported)"));
      }
      if (pos + 1 + len > wire.size()) break;
      const util::ByteSpan label = wire.subspan(pos, 1 + len);
      if (!space.WriteBytes(frame_.base() + written, label).ok()) {
        return measured(
            ServiceOutcomeFromFault(space, "expansion ran off the stack"));
      }
      written += 1 + len;
      pos += 1 + len;
    }
  }

  // Epilogue through the guest frame.
  ServiceOutcome outcome = measured(frame_.Return());
  if (outcome.kind == ServiceOutcome::Kind::kOk) pending_.erase(id);
  return outcome;
}

util::Result<exploit::TargetProfile> Minimasq::ProfileFor() const {
  exploit::TargetProfile profile;
  profile.ret_offset = ret_offset();  // the "changed variable"
  profile.buffer_addr = frame_.base();
  CONNLAB_RETURN_IF_ERROR(exploit::FillImageAddresses(sys_, profile));
  // No parse_rr quirks and no cleanup slots in this service: the fixup
  // maps stay empty — the payloads simply have fewer constraints.
  return profile;
}

}  // namespace connlab::adapt
