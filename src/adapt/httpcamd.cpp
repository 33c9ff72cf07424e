#include "src/adapt/httpcamd.hpp"

#include <cstdlib>

#include "src/gadget/finder.hpp"
#include "src/gadget/memstr.hpp"
#include "src/isa/varm.hpp"

namespace connlab::adapt {

HttpCamd::HttpCamd(loader::System& sys)
    : sys_(sys), resume_(sys.Sym("connman.resume_ok")) {
  frame_base_ = sys_.layout.initial_sp() - (ret_offset() + 4);
}

std::uint32_t HttpCamd::ret_offset() const noexcept {
  const std::uint32_t saved = sys_.arch == isa::Arch::kVX86 ? 16u : 32u;
  return kBufSize + kLocals + saved;
}

util::Bytes HttpCamd::WrapInRequest(util::ByteSpan payload,
                                    const std::string& path) {
  util::ByteWriter w;
  w.WriteString("POST " + path + " HTTP/1.0\r\n");
  w.WriteString("Host: camera.lan\r\n");
  w.WriteString("Content-Length: " + std::to_string(payload.size()) + "\r\n");
  w.WriteString("\r\n");
  w.WriteBytes(payload);
  return std::move(w).Take();
}

ServiceOutcome HttpCamd::HandleRequest(util::ByteSpan request) {
  ServiceOutcome outcome;
  last_response_.clear();
  const std::string text(request.begin(), request.end());

  // Request line + headers end at the first blank line.
  const std::size_t headers_end = text.find("\r\n\r\n");
  if (headers_end == std::string::npos || text.compare(0, 5, "POST ") != 0) {
    if (text.compare(0, 4, "GET ") == 0) {
      last_response_ = "HTTP/1.0 200 OK\r\n\r\ncamd ready";
      outcome.kind = ServiceOutcome::Kind::kOk;
      outcome.detail = "GET served";
      return outcome;
    }
    last_response_ = "HTTP/1.0 400 Bad Request\r\n\r\n";
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "malformed request";
    return outcome;
  }
  const std::size_t clen_pos = text.find("Content-Length:");
  if (clen_pos == std::string::npos || clen_pos > headers_end) {
    last_response_ = "HTTP/1.0 411 Length Required\r\n\r\n";
    outcome.kind = ServiceOutcome::Kind::kRejected;
    outcome.detail = "no content-length";
    return outcome;
  }
  // The bug: Content-Length is trusted, the body is memcpy'd into a
  // 256-byte stack buffer.
  const std::size_t content_length = static_cast<std::size_t>(
      std::strtoul(text.c_str() + clen_pos + 15, nullptr, 10));
  const std::size_t body_start = headers_end + 4;
  const std::size_t body_avail = request.size() - body_start;
  const std::size_t body_len =
      content_length < body_avail ? content_length : body_avail;

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

  const util::ByteSpan body(request.data() + body_start, body_len);
  if (!space.WriteBytes(frame_base_, body).ok()) {
    outcome.kind = ServiceOutcome::Kind::kCrash;
    outcome.detail = "body copy ran off the stack";
    outcome.stop.reason = vm::StopReason::kFault;
    outcome.stop.fault = space.last_fault();
    space.ClearFault();
    return outcome;
  }

  // Handler returns through the guest frame.
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
  outcome = ServiceOutcomeFromStop(cpu.Run(budget_));
  if (outcome.kind == ServiceOutcome::Kind::kOk) {
    last_response_ = "HTTP/1.0 200 OK\r\n\r\nconfig updated";
    outcome.detail = "request served";
  }
  return outcome;
}

util::Result<exploit::TargetProfile> HttpCamd::ProfileFor() const {
  exploit::TargetProfile profile;
  profile.arch = sys_.arch;
  profile.prot = sys_.prot;
  profile.ret_offset = ret_offset();
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
  return profile;
}

}  // namespace connlab::adapt
