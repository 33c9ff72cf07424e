#include "src/connman/dnsproxy.hpp"

#include <cstdio>

#include "src/dns/name.hpp"
#include "src/dns/record.hpp"
#include "src/obs/obs.hpp"
#include "src/util/log.hpp"

namespace connlab::connman {

namespace {
constexpr std::uint8_t kCompression = dns::kCompressionFlags;
constexpr int kMaxPointerHops = 10;  // matches dnsproxy.c's recursion cap
}  // namespace

std::string_view VersionName(Version v) noexcept {
  return v == Version::k134 ? "1.34 (vulnerable)" : "1.35 (patched)";
}

std::string_view OutcomeKindName(ProxyOutcome::Kind kind) noexcept {
  using Kind = ProxyOutcome::Kind;
  switch (kind) {
    case Kind::kDroppedInvalid: return "dropped-invalid";
    case Kind::kParseError: return "parse-error";
    case Kind::kParsedOk: return "parsed-ok";
    case Kind::kCrash: return "crash";
    case Kind::kShell: return "root-shell";
    case Kind::kExec: return "exec";
    case Kind::kAbort: return "abort";
    case Kind::kCfiViolation: return "cfi-violation";
    case Kind::kOther: return "other";
  }
  return "?";
}

std::string ProxyOutcome::ToString() const {
  std::string out(OutcomeKindName(kind));
  if (!detail.empty()) out += ": " + detail;
  if (stop.reason != vm::StopReason::kRunning) {
    out += " [" + stop.ToString() + "]";
  }
  return out;
}

DnsProxy::DnsProxy(loader::System& sys, Version version)
    : sys_(sys),
      version_(version),
      frame_(FrameFor(sys.prot, sys.arch)),
      frame_base_(FrameBase(sys.layout, frame_)),
      copy_label_(sys.Sym("connman.copy_label")),
      copy_done_(sys.Sym("connman.copy_done")),
      resume_ok_(sys.Sym("connman.resume_ok")),
      parse_response_pc_(sys.Sym("connman.parse_response").value_or(0)),
      get_name_pc_(sys.Sym("connman.get_name").value_or(0)),
      parse_rr_pc_(sys.Sym("connman.parse_rr").value_or(0)) {
  // Sentinel the guest copy routine returns to; stops the CPU so the
  // native parser can continue. Idempotent across proxies on one system.
  if (copy_done_.ok() && !sys_.cpu->IsHostFn(copy_done_.value())) {
    (void)sys_.cpu->RegisterHostFn(
        copy_done_.value(), "connman.copy_done", [](vm::Cpu& cpu) {
          cpu.RequestStop(vm::StopReason::kHalted, "label copied");
          return util::OkStatus();
        });
  }
}

util::Result<util::Bytes> DnsProxy::AcceptClientQuery(util::ByteSpan wire) {
  if (wire.size() < dns::kHeaderSize) return util::Malformed("short query");
  if ((wire[2] & 0x80) != 0) return util::InvalidArgument("not a query");
  if (wire[4] != 0 || wire[5] != 1) {
    return util::InvalidArgument("dnsproxy forwards single-question queries");
  }
  CONNLAB_ASSIGN_OR_RETURN(const std::size_t name_len,
                           dns::FlatNameLength(wire, dns::kHeaderSize));
  const std::size_t question_end = dns::kHeaderSize + name_len + 4;
  if (question_end > wire.size()) return util::Malformed("truncated question");
  const auto id = static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
  pending_[id].assign(wire.begin() + dns::kHeaderSize,
                      wire.begin() + static_cast<std::ptrdiff_t>(question_end));
  ++stats_.queries;
  return util::Bytes(wire.begin(), wire.end());
}

DnsProxy::GetNameStatus DnsProxy::GuestCopy(mem::GuestAddr dst,
                                            mem::GuestAddr src,
                                            std::uint32_t len) {
  auto& cpu = *sys_.cpu;
  if (!copy_label_.ok() || !copy_done_.ok()) return GetNameStatus::kGuestFault;
  const mem::GuestAddr done = copy_done_.value();

  // Callee frames live below parse_response's buffer, like real ones.
  const mem::GuestAddr sp = frame_base_ - 0x40;
  if (sys_.arch == isa::Arch::kVX86) {
    // cdecl, staged in one checked write: the return address at the new
    // sp, the arguments above it left to right — what pushing the args
    // right-to-left and then the return address leaves.
    const std::uint32_t words[4] = {done, dst, src, len};
    std::uint8_t frame[16];
    for (std::size_t i = 0; i < 16; ++i) {
      frame[i] = static_cast<std::uint8_t>(words[i / 4] >> (8 * (i % 4)));
    }
    if (!sys_.space.WriteBytes(sp - 16, frame).ok()) {
      return GetNameStatus::kGuestFault;
    }
    cpu.set_sp(sp - 16);
  } else {
    cpu.set_sp(sp);
    cpu.set_reg(isa::kR0, dst);
    cpu.set_reg(isa::kR1, src);
    cpu.set_reg(isa::kR2, len);
    cpu.set_reg(isa::kLR, done);
  }
  // The shadow stack (CFI builds) must tolerate this legitimate call. Only
  // VX86 needs the entry: its copy routine returns via the checked `ret`;
  // VARM returns via `bx lr`, which CFI CaRE leaves to the link register.
  if (cpu.shadow_stack_enabled() && sys_.arch == isa::Arch::kVX86) {
    cpu.ShadowPush(done);
  }
  cpu.set_pc(copy_label_.value());
  const vm::StopInfo stop = cpu.Run(/*max_steps=*/64 + 8ull * len);
  if (stop.reason == vm::StopReason::kHalted && stop.detail == "label copied") {
    return GetNameStatus::kOk;
  }
  guest_copy_stop_ = stop;
  return GetNameStatus::kGuestFault;
}

DnsProxy::GetNameStatus DnsProxy::GetName(util::ByteSpan wire,
                                          std::size_t offset,
                                          std::size_t* end_offset,
                                          std::uint32_t* name_len) {
  std::size_t pos = offset;
  bool jumped = false;
  int hops = 0;
  const mem::GuestAddr buf = frame_base_;

  while (true) {
    if (pos >= wire.size()) return GetNameStatus::kWireError;
    const std::uint8_t len = wire[pos];
    if ((len & kCompression) == kCompression) {
      if (pos + 1 >= wire.size()) return GetNameStatus::kWireError;
      if (++hops > kMaxPointerHops) return GetNameStatus::kWireError;
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | wire[pos + 1];
      if (!jumped) {
        *end_offset = pos + 2;
        jumped = true;
      }
      if (target >= wire.size()) return GetNameStatus::kWireError;
      pos = target;
      continue;
    }
    if ((len & kCompression) != 0) return GetNameStatus::kWireError;
    if (len == 0) {
      if (!jumped) *end_offset = pos + 1;
      return GetNameStatus::kOk;
    }
    if (pos + 1 + len > wire.size()) return GetNameStatus::kWireError;

    if (version_ == Version::k135) {
      // The August 2017 fix: refuse to expand past the buffer (the +2
      // covers the length byte and the look-ahead byte of the copy).
      if (*name_len + static_cast<std::uint32_t>(len) + 2 > kNameBufSize) {
        return GetNameStatus::kTooLong;
      }
    }

    // The vulnerable copy (paper Listing 1):
    //   name[(*name_len)++] = label_len;
    //   memcpy(name + *name_len, p + 1, label_len + 1);
    //   *name_len += label_len;
    // i.e. one length byte, `len` content bytes, plus one look-ahead byte
    // (the next length byte; overwritten by the next iteration, or left as
    // the terminating 0). On the wire those len+2 bytes are contiguous at
    // `pos`, so the copy is a straight guest-to-guest move from the packet
    // buffer on the heap into the stack buffer.
    const std::uint32_t chunk_len = static_cast<std::uint32_t>(len) + 2;
    if (guest_copy_) {
      const GetNameStatus st =
          GuestCopy(buf + *name_len,
                    sys_.layout.heap_base + static_cast<std::uint32_t>(pos),
                    chunk_len);
      if (st != GetNameStatus::kOk) return st;
    } else {
      util::Bytes chunk;
      chunk.reserve(chunk_len);
      chunk.push_back(len);
      chunk.insert(chunk.end(),
                   wire.begin() + static_cast<std::ptrdiff_t>(pos + 1),
                   wire.begin() + static_cast<std::ptrdiff_t>(pos + 1 + len));
      chunk.push_back(pos + 1 + len < wire.size() ? wire[pos + 1 + len] : 0);
      if (!sys_.space.WriteBytes(buf + *name_len, chunk).ok()) {
        return GetNameStatus::kGuestFault;  // ran off the stack: SIGSEGV
      }
    }
    *name_len += 1 + len;
    pos += 1 + len;
  }
}

util::Status DnsProxy::PrepareFrame() {
  auto& space = sys_.space;
  const auto& layout = sys_.layout;
  // Zero the frame and the caller area above it (the region a fresh call
  // chain would occupy).
  CONNLAB_RETURN_IF_ERROR(
      space.Fill(frame_base_, layout.stack_top - frame_base_, 0));

  if (frame_.canary) {
    CONNLAB_RETURN_IF_ERROR(space.WriteU32(
        frame_base_ + frame_.canary_offset(), sys_.canary_value));
  }
  // Benign saved registers.
  const std::uint32_t saved = frame_.saved_regs_offset();
  for (std::uint32_t i = 0; i < frame_.saved_regs_size(); i += 4) {
    CONNLAB_RETURN_IF_ERROR(
        space.WriteU32(frame_base_ + saved + i, 0xC0DE0000u + i));
  }
  // Legitimate return address: the resume sentinel. Under CFI the shadow
  // stack records it as the only valid return target for this frame.
  if (!resume_ok_.ok()) return resume_ok_.status();
  const mem::GuestAddr resume = resume_ok_.value();
  CONNLAB_RETURN_IF_ERROR(
      space.WriteU32(frame_base_ + frame_.ret_offset(), resume));
  if (sys_.cpu->shadow_stack_enabled()) {
    sys_.cpu->ShadowClear();
    sys_.cpu->ShadowPush(resume);
  }

  if (sys_.arch == isa::Arch::kVARM) {
    // parse_rr's pointer slots in the caller frame: benign values point
    // into .scratch (these are the values gdb shows and the exploits echo).
    const mem::GuestAddr chain = frame_base_ + frame_.chain_offset();
    CONNLAB_RETURN_IF_ERROR(space.WriteU32(
        chain + kArmParseRrSlot0, layout.scratch_base + kScratchPtr0Off));
    CONNLAB_RETURN_IF_ERROR(space.WriteU32(
        chain + kArmParseRrSlot1, layout.scratch_base + kScratchPtr1Off));
  }
  return util::OkStatus();
}

vm::StopInfo DnsProxy::SynthesizeFaultStop(const char* where,
                                           mem::GuestAddr pc) {
  vm::StopInfo stop;
  stop.reason = vm::StopReason::kFault;
  stop.detail = where;
  stop.pc = pc;
  if (sys_.space.last_fault().has_value()) {
    stop.fault = sys_.space.last_fault();
    sys_.space.ClearFault();
  }
  return stop;
}

ProxyOutcome DnsProxy::HandleServerResponse(util::ByteSpan wire) {
  using Kind = ProxyOutcome::Kind;
  ++stats_.responses;
  ProxyOutcome outcome;

  // --- Sanity checks a real response must pass ("appear legitimate") -----
  if (wire.size() < dns::kHeaderSize) {
    ++stats_.dropped;
    outcome.kind = Kind::kDroppedInvalid;
    outcome.detail = "short packet";
    return outcome;
  }
  const std::uint16_t id =
      static_cast<std::uint16_t>((wire[0] << 8) | wire[1]);
  const std::uint16_t flags =
      static_cast<std::uint16_t>((wire[2] << 8) | wire[3]);
  const std::uint16_t qdcount =
      static_cast<std::uint16_t>((wire[4] << 8) | wire[5]);
  const std::uint16_t ancount =
      static_cast<std::uint16_t>((wire[6] << 8) | wire[7]);

  auto pending_it = pending_.find(id);
  if (pending_it == pending_.end() || (flags & 0x8000) == 0 || qdcount != 1) {
    ++stats_.dropped;
    outcome.kind = Kind::kDroppedInvalid;
    outcome.detail = "no matching query / not a response";
    return outcome;
  }
  const util::Bytes& question = pending_it->second;
  const std::size_t qlen = question.size();
  if (wire.size() < dns::kHeaderSize + qlen ||
      !std::equal(question.begin(), question.end(),
                  wire.begin() + dns::kHeaderSize)) {
    ++stats_.dropped;
    outcome.kind = Kind::kDroppedInvalid;
    outcome.detail = "question echo mismatch";
    return outcome;
  }

  // --- Stage the packet and the guest frame ------------------------------
  if (wire.size() > sys_.layout.heap_size) {
    ++stats_.dropped;
    outcome.kind = Kind::kDroppedInvalid;
    outcome.detail = "oversized datagram";
    return outcome;
  }
  if (!sys_.space.WriteBytes(sys_.layout.heap_base, wire).ok() ||
      !PrepareFrame().ok()) {
    outcome.kind = Kind::kOther;
    outcome.detail = "failed to stage guest state";
    return outcome;
  }
  sys_.cpu->ClearEvents();

  // --- parse_response over the answer section ----------------------------
  std::size_t pos = dns::kHeaderSize + qlen;
  std::string qname;  // decoded from the question when an answer is cached
  bool parse_error = false;
  std::string parse_detail;

  for (int rec = 0; rec < ancount && !parse_error; ++rec) {
    std::uint32_t name_len = 0;  // buffer reused per record
    std::size_t end = pos;
    const GetNameStatus st = GetName(wire, pos, &end, &name_len);
    outcome.name_bytes_written += name_len;
    outcome.overflowed |= name_len + 1 > kNameBufSize;
    switch (st) {
      case GetNameStatus::kOk:
        break;
      case GetNameStatus::kWireError:
        parse_error = true;
        parse_detail = "record name runs off packet";
        continue;
      case GetNameStatus::kTooLong:
        parse_error = true;
        parse_detail = "get_name: name exceeds buffer (patched bound check)";
        continue;
      case GetNameStatus::kGuestFault:
        // The copy ran off the top of the stack mapping: immediate crash.
        ++stats_.crashes;
        outcome.kind = Kind::kCrash;
        outcome.detail = "overflow ran off the stack in get_name";
        if (guest_copy_stop_.has_value()) {
          outcome.stop = *guest_copy_stop_;   // the faulting strb, verbatim
          guest_copy_stop_.reset();
        } else {
          outcome.stop = SynthesizeFaultStop("get_name", get_name_pc_);
        }
        return outcome;
    }
    pos = end;
    // Fixed RR fields.
    if (pos + 10 > wire.size()) {
      parse_error = true;
      parse_detail = "truncated RR header";
      continue;
    }
    const std::uint16_t type =
        static_cast<std::uint16_t>((wire[pos] << 8) | wire[pos + 1]);
    const std::uint32_t ttl =
        (static_cast<std::uint32_t>(wire[pos + 4]) << 24) |
        (static_cast<std::uint32_t>(wire[pos + 5]) << 16) |
        (static_cast<std::uint32_t>(wire[pos + 6]) << 8) |
        static_cast<std::uint32_t>(wire[pos + 7]);
    const std::uint16_t rdlen =
        static_cast<std::uint16_t>((wire[pos + 8] << 8) | wire[pos + 9]);
    pos += 10;
    if (pos + rdlen > wire.size()) {
      parse_error = true;
      parse_detail = "truncated rdata";
      continue;
    }
    const auto type_a = static_cast<std::uint16_t>(dns::Type::kA);
    const auto type_aaaa = static_cast<std::uint16_t>(dns::Type::kAAAA);
    if ((type == type_a && rdlen == 4) || (type == type_aaaa && rdlen == 16)) {
      if (qname.empty()) {
        auto name = dns::DecodeName(question, 0);
        if (name.ok()) qname = std::move(name.value().dotted);
      }
      CacheEntry entry;
      entry.hostname = qname;
      entry.ipv6 = type == type_aaaa;
      entry.rdata.assign(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                         wire.begin() + static_cast<std::ptrdiff_t>(pos + rdlen));
      entry.expires_at = now_ + ttl;
      outcome.cached.push_back(std::move(entry));
    }
    pos += rdlen;
  }

  // --- VARM parse_rr quirks (run on both versions; see frame.hpp) --------
  if (sys_.arch == isa::Arch::kVARM && ancount > 0) {
    const mem::GuestAddr chain = frame_base_ + frame_.chain_offset();
    for (std::uint32_t slot : {kArmParseRrSlot0, kArmParseRrSlot1}) {
      auto ptr = sys_.space.ReadU32(chain + slot);
      if (!ptr.ok()) {
        outcome.kind = Kind::kOther;
        outcome.detail = "parse_rr slot unreadable";
        return outcome;
      }
      if (ptr.value() == 0) {
        // NULL slot: parse_rr treats the record as invalid and bails out
        // through its own clean path — the hijacked epilogue never runs.
        ++stats_.dropped;
        outcome.kind = Kind::kParseError;
        outcome.detail = "parse_rr rejected record (NULL bookkeeping slot)";
        return outcome;
      }
      // The mvn.w store: writes through the slot pointer.
      if (!sys_.space.WriteU32(ptr.value(), ~0x000055AAu).ok()) {
        ++stats_.crashes;
        outcome.kind = Kind::kCrash;
        outcome.detail = "parse_rr stored through corrupted pointer slot";
        outcome.stop = SynthesizeFaultStop("parse_rr", parse_rr_pc_);
        return outcome;
      }
    }
    // A subsequent legitimate function reference writes its bookkeeping
    // into the chain region: 8 bytes at +120 (heap pointer + length).
    util::ByteWriter clobber;
    clobber.WriteU32LE(sys_.layout.heap_base + 0x200);
    clobber.WriteU32LE(0x14);
    if (!sys_.space.WriteBytes(chain + kArmChainClobberOffset,
                               clobber.bytes()).ok()) {
      outcome.kind = Kind::kOther;
      outcome.detail = "clobber write failed";
      return outcome;
    }

    // Cleanup before the epilogue: two local slots hold buffer pointers
    // that are released if non-NULL. Overflow junk here means a wild
    // dereference — ARM exploits must write NULLs (paper §III-A2).
    for (std::uint32_t slot_off : {frame_.null_slot0(), frame_.null_slot1()}) {
      auto v = sys_.space.ReadU32(frame_base_ + slot_off);
      if (v.ok() && v.value() != 0 && !sys_.space.ReadU32(v.value()).ok()) {
        ++stats_.crashes;
        outcome.kind = Kind::kCrash;
        outcome.detail = "cleanup dereferenced stale pointer slot";
        outcome.stop = SynthesizeFaultStop("parse_response",
                                           parse_response_pc_);
        return outcome;
      }
    }
  }

  // --- Stack protector (if this build has one) ----------------------------
  if (frame_.canary) {
    auto canary = sys_.space.ReadU32(frame_base_ + frame_.canary_offset());
    if (!canary.ok() || canary.value() != sys_.canary_value) {
      OBS_COUNT("defense.canary_traps");
      sys_.cpu->PushEvent(vm::EventKind::kCanaryAbort,
                          "*** stack smashing detected ***: connmand terminated");
      outcome.kind = Kind::kAbort;
      outcome.detail = "stack canary mismatch";
      outcome.stop.reason = vm::StopReason::kAbort;
      outcome.stop.detail = "__stack_chk_fail";
      outcome.stop.pc = parse_response_pc_;
      return outcome;
    }
  }

  if (parse_error) {
    // Real connman logs and drops the packet; the daemon keeps running.
    ++stats_.dropped;
    outcome.kind = Kind::kParseError;
    outcome.detail = parse_detail;
    return outcome;
  }

  outcome.detail = "parse complete";
  ProxyOutcome final = RunEpilogueAndClassify(std::move(outcome));
  if (final.kind == Kind::kParsedOk) {
    for (const CacheEntry& entry : final.cached) {
      cache_.Insert(entry.hostname, entry.rdata, entry.ipv6,
                    static_cast<std::uint32_t>(entry.expires_at - now_), now_);
    }
    final.reply_to_client.assign(wire.begin(), wire.end());
    pending_.erase(id);
    ++stats_.parsed_ok;
  } else if (final.kind == Kind::kCrash) {
    ++stats_.crashes;
  } else if (final.kind == Kind::kShell) {
    ++stats_.shells;
  }
  return final;
}

ProxyOutcome DnsProxy::RunEpilogueAndClassify(ProxyOutcome outcome) {
  using Kind = ProxyOutcome::Kind;
  auto& cpu = *sys_.cpu;
  auto& space = sys_.space;

  // Function epilogue, against the (possibly smashed) guest frame.
  const mem::GuestAddr saved = frame_base_ + frame_.saved_regs_offset();
  const mem::GuestAddr ret_slot = frame_base_ + frame_.ret_offset();
  auto ret = space.ReadU32(ret_slot);
  if (!ret.ok()) {
    outcome.kind = Kind::kOther;
    outcome.detail = "return slot unreadable";
    return outcome;
  }
  // parse_response's own return is shadow-checked under CFI — the first
  // and decisive control transfer every technique hijacks.
  if (cpu.shadow_stack_enabled() && !cpu.ShadowCheckReturn(ret.value())) {
    OBS_COUNT("defense.cfi_traps");
    cpu.PushEvent(vm::EventKind::kCfiViolation,
                  "CFI: parse_response return target rejected");
    outcome.kind = Kind::kCfiViolation;
    outcome.detail = "CFI violation on function return";
    outcome.stop.reason = vm::StopReason::kCfiViolation;
    outcome.stop.detail = "cfi";
    outcome.stop.pc = ret.value();
    return outcome;
  }
  if (sys_.arch == isa::Arch::kVX86) {
    // pop ebx; pop esi; pop edi; pop ebp; ret
    cpu.set_reg(isa::kEBX, space.ReadU32(saved + 0).value_or(0));
    cpu.set_reg(isa::kESI, space.ReadU32(saved + 4).value_or(0));
    cpu.set_reg(isa::kEDI, space.ReadU32(saved + 8).value_or(0));
    cpu.set_reg(isa::kEBP, space.ReadU32(saved + 12).value_or(0));
  } else {
    // pop {r4-r11, pc}
    for (int i = 0; i < 8; ++i) {
      cpu.set_reg(static_cast<std::uint8_t>(isa::kR4 + i),
                  space.ReadU32(saved + 4 * static_cast<std::uint32_t>(i))
                      .value_or(0));
    }
  }
  cpu.set_sp(frame_base_ + frame_.chain_offset());
  cpu.set_pc(ret.value());

  const vm::StopInfo stop = cpu.Run(budget_);
  outcome.stop = stop;
  switch (stop.reason) {
    case vm::StopReason::kHalted:
      if (stop.detail == "response processed") {
        outcome.kind = Kind::kParsedOk;
        outcome.detail = "cached and forwarded";
      } else {
        outcome.kind = Kind::kOther;
        outcome.detail = "unexpected halt: " + stop.detail;
      }
      break;
    case vm::StopReason::kShellSpawned:
      outcome.kind = Kind::kShell;
      outcome.detail = stop.detail;
      break;
    case vm::StopReason::kProcessExec:
      outcome.kind = Kind::kExec;
      outcome.detail = stop.detail;
      break;
    case vm::StopReason::kFault:
      outcome.kind = Kind::kCrash;
      outcome.detail = "control-flow crash: " + stop.detail;
      break;
    case vm::StopReason::kAbort:
      outcome.kind = Kind::kAbort;
      outcome.detail = stop.detail;
      break;
    case vm::StopReason::kCfiViolation:
      outcome.kind = Kind::kCfiViolation;
      outcome.detail = stop.detail;
      break;
    case vm::StopReason::kExited:
      outcome.kind = Kind::kOther;
      outcome.detail = "daemon exited";
      break;
    default:
      outcome.kind = Kind::kOther;
      outcome.detail = "run ended: " + stop.ToString();
      break;
  }
  return outcome;
}

}  // namespace connlab::connman
