#include "src/adapt/minimasq.hpp"

#include "src/dns/name.hpp"
#include "src/gadget/finder.hpp"
#include "src/gadget/memstr.hpp"
#include "src/isa/varm.hpp"

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

Minimasq::Minimasq(loader::System& sys)
    : sys_(sys), resume_(sys.Sym("connman.resume_ok")) {
  frame_base_ = sys_.layout.initial_sp() - (ret_offset() + 4);
}

std::uint32_t Minimasq::ret_offset() const noexcept {
  const std::uint32_t saved =
      sys_.arch == isa::Arch::kVX86 ? 16u : 32u;  // like the main target
  return kBufSize + kLocals + saved;
}

util::Status Minimasq::ForwardQuery(util::ByteSpan wire) {
  CONNLAB_ASSIGN_OR_RETURN(dns::Message query, dns::Decode(wire));
  if (query.header.qr) return util::InvalidArgument("not a query");
  pending_[query.header.id] = true;
  return util::OkStatus();
}

ServiceOutcome Minimasq::HandleReply(util::ByteSpan wire) {
  ServiceOutcome outcome;
  if (wire.size() < dns::kHeaderSize) {
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "short packet";
    return outcome;
  }
  const std::uint16_t id =
      static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
  if (!pending_.contains(id) || (wire[2] & 0x80) == 0) {
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "id/flag mismatch";
    return outcome;
  }
  const std::uint16_t qdcount =
      static_cast<std::uint16_t>((wire[4] << 8) | wire[5]);
  const std::uint16_t ancount =
      static_cast<std::uint16_t>((wire[6] << 8) | wire[7]);

  // Stage a fresh frame: zeroed region, benign saved regs, sentinel return.
  auto& space = sys_.space;
  const std::uint32_t region = sys_.layout.stack_top - frame_base_;
  if (!space.WriteBytes(frame_base_, util::Bytes(region, 0)).ok()) {
    outcome.detail = "failed to stage frame";
    return outcome;
  }
  if (!resume_.ok() ||
      !space.WriteU32(frame_base_ + ret_offset(), resume_.value()).ok()) {
    outcome.detail = "failed to plant return";
    return outcome;
  }

  // Skip questions (well-formed walker for the skip, like dnsmasq).
  std::size_t pos = dns::kHeaderSize;
  for (int q = 0; q < qdcount; ++q) {
    auto name = dns::DecodeName(wire, pos);
    if (!name.ok()) {
      outcome.kind = ServiceOutcome::Kind::kRejected;
      outcome.detail = "bad question";
      return outcome;
    }
    pos += name.value().wire_len + 4;
  }

  // The vulnerable expansion of the first answer's name: no bound check on
  // the 512-byte buffer.
  if (ancount > 0) {
    std::uint32_t written = 0;
    while (pos < wire.size()) {
      const std::uint8_t len = wire[pos];
      if (len == 0) break;
      if ((len & dns::kCompressionFlags) != 0) {
        outcome.kind = ServiceOutcome::Kind::kRejected;
        outcome.detail = "pointer in reply name (unsupported)";
        return outcome;
      }
      if (pos + 1 + len > wire.size()) break;
      util::Bytes chunk(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                        wire.begin() + static_cast<std::ptrdiff_t>(pos + 1 + len));
      if (!space.WriteBytes(frame_base_ + written, chunk).ok()) {
        outcome.kind = ServiceOutcome::Kind::kCrash;
        outcome.detail = "expansion ran off the stack";
        outcome.stop.reason = vm::StopReason::kFault;
        outcome.stop.fault = space.last_fault();
        space.ClearFault();
        return outcome;
      }
      written += 1 + len;
      pos += 1 + len;
    }
  }

  // Epilogue through the guest frame.
  auto& cpu = *sys_.cpu;
  cpu.ClearEvents();
  if (sys_.arch == isa::Arch::kVARM) {
    for (int i = 0; i < 8; ++i) {
      cpu.set_reg(static_cast<std::uint8_t>(isa::kR4 + i),
                  space.ReadU32(frame_base_ + kBufSize + kLocals +
                                4 * static_cast<std::uint32_t>(i))
                      .value_or(0));
    }
  }
  auto ret = space.ReadU32(frame_base_ + ret_offset());
  if (!ret.ok()) {
    outcome.detail = "return slot unreadable";
    return outcome;
  }
  cpu.set_sp(frame_base_ + ret_offset() + 4);
  cpu.set_pc(ret.value());
  ServiceOutcome result = ServiceOutcomeFromStop(cpu.Run(budget_));
  if (result.kind == ServiceOutcome::Kind::kOk) pending_.erase(id);
  return result;
}

util::Result<exploit::TargetProfile> Minimasq::ProfileFor() const {
  exploit::TargetProfile profile;
  profile.arch = sys_.arch;
  profile.prot = sys_.prot;
  profile.ret_offset = ret_offset();          // the "changed variable"
  profile.buffer_addr = frame_base_;
  CONNLAB_ASSIGN_OR_RETURN(profile.plt_memcpy, sys_.Sym("plt.memcpy"));
  CONNLAB_ASSIGN_OR_RETURN(profile.plt_execlp, sys_.Sym("plt.execlp"));
  CONNLAB_ASSIGN_OR_RETURN(profile.bss, sys_.Sym("bss.start"));
  CONNLAB_ASSIGN_OR_RETURN(profile.libc_system, sys_.Sym("libc.system"));
  CONNLAB_ASSIGN_OR_RETURN(profile.libc_exit, sys_.Sym("libc.exit"));
  CONNLAB_ASSIGN_OR_RETURN(profile.libc_binsh, sys_.Sym("libc.str.bin_sh"));
  gadget::Finder finder(sys_);
  if (sys_.arch == isa::Arch::kVX86) {
    CONNLAB_ASSIGN_OR_RETURN(gadget::Gadget pppr, finder.FindPopRet(4));
    profile.gadget_pop_ret4 = pppr.addr;
  } else {
    const std::uint16_t need = isa::varm::Mask(
        {isa::kR0, isa::kR1, isa::kR2, isa::kR3, isa::kR5, isa::kR6, isa::kR7});
    CONNLAB_ASSIGN_OR_RETURN(gadget::Gadget pops, finder.FindPopRegsPc(need));
    profile.gadget_pop_regs = pops.addr;
    profile.gadget_pop_mask = pops.instrs.front().reg_mask;
    CONNLAB_ASSIGN_OR_RETURN(gadget::Gadget blx, finder.FindBlx(isa::kR3));
    profile.gadget_blx_r3 = blx.addr;
  }
  gadget::MemStr memstr(sys_);
  for (char c : std::string("/bin/sh")) {
    CONNLAB_ASSIGN_OR_RETURN(mem::GuestAddr addr, memstr.FindChar(c));
    profile.char_addrs[c] = addr;
  }
  // No parse_rr quirks and no cleanup slots in this service: the fixup
  // maps stay empty — the payloads simply have fewer constraints.
  return profile;
}

}  // namespace connlab::adapt
