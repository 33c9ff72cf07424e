#include "src/gadget/finder.hpp"

#include <bit>

#include "src/isa/disasm.hpp"
#include "src/isa/vx86.hpp"

namespace connlab::gadget {

std::string Gadget::ToString(isa::Arch arch) const {
  std::string out;
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (i > 0) out += "; ";
    out += instrs[i].ToString(arch);
  }
  return out;
}

Finder::Finder(const loader::System& sys) : arch_(sys.arch) {
  for (const loader::SectionInfo& section : sys.sections) {
    if (section.name == ".text") {
      text_base_ = section.base;
      auto data = sys.space.DebugRead(section.base, section.size);
      if (data.ok()) text_ = std::move(data).value();
      break;
    }
  }
}

bool Finder::IsTerminator(const isa::Instr& ins) const {
  if (arch_ == isa::Arch::kVX86) return ins.op == isa::Op::kRet;
  if (ins.op == isa::Op::kPop) {
    return (ins.reg_mask & (1u << isa::kPC)) != 0;
  }
  return ins.op == isa::Op::kBlx || ins.op == isa::Op::kBx;
}

bool Finder::IsChainable(const isa::Instr& ins) const {
  // Instructions that make sense inside a gadget body (no control flow,
  // no syscalls/halts — those end usefulness for chaining).
  switch (ins.op) {
    case isa::Op::kNop:
    case isa::Op::kMovImm:
    case isa::Op::kMovReg:
    case isa::Op::kMovT:
    case isa::Op::kLoad:
    case isa::Op::kStore:
    case isa::Op::kLoadByte:
    case isa::Op::kStoreByte:
    case isa::Op::kAddImm:
    case isa::Op::kSubImm:
    case isa::Op::kAddReg:
    case isa::Op::kXorReg:
    case isa::Op::kMvn:
    case isa::Op::kPush:
    case isa::Op::kPushImm:
    case isa::Op::kPop:
    case isa::Op::kLdrLit:
    case isa::Op::kLdrInd:
      return true;
    default:
      return false;
  }
}

std::vector<Gadget> Finder::FindAll(int max_instrs) const {
  std::vector<Gadget> out;
  const std::size_t step = arch_ == isa::Arch::kVARM ? 4 : 1;
  for (std::size_t start = 0; start < text_.size(); start += step) {
    // About half of VX86's byte offsets hold no opcode; skip them before
    // Decode builds an error Status for each.
    if (arch_ == isa::Arch::kVX86 &&
        isa::vx86::InstrLength(text_[start]) == 0) {
      continue;
    }
    Gadget gadget;
    gadget.addr = text_base_ + static_cast<mem::GuestAddr>(start);
    std::size_t pos = start;
    bool valid = false;
    for (int n = 0; n < max_instrs; ++n) {
      auto decoded = isa::Decode(arch_, text_, pos);
      if (!decoded.ok()) break;
      const isa::Instr& ins = decoded.value();
      gadget.instrs.push_back(ins);
      pos += ins.length;
      if (IsTerminator(ins)) {
        // A VARM pop-into-pc mid-body is itself the terminator; but a pop
        // {…,pc} can only be the *last* instruction — which it is here.
        valid = true;
        break;
      }
      if (!IsChainable(ins)) break;
    }
    if (valid) out.push_back(std::move(gadget));
  }
  return out;
}

util::Result<Gadget> Finder::FindPopRet(int pop_count) const {
  if (arch_ != isa::Arch::kVX86) {
    return util::FailedPrecondition("pop...ret gadgets are a VX86 shape");
  }
  Gadget gadget;
  for (std::size_t start = 0; start < text_.size(); ++start) {
    if (isa::vx86::InstrLength(text_[start]) == 0) continue;  // no opcode
    gadget.instrs.clear();
    std::size_t pos = start;
    for (int n = 0; n <= pop_count; ++n) {
      auto decoded = isa::Decode(arch_, text_, pos);
      const isa::Op want = n < pop_count ? isa::Op::kPop : isa::Op::kRet;
      if (!decoded.ok() || decoded.value().op != want) break;
      gadget.instrs.push_back(decoded.value());
      pos += decoded.value().length;
    }
    // Only the last of the pop_count + 1 instructions may be the ret.
    if (!gadget.instrs.empty() && gadget.instrs.back().op == isa::Op::kRet) {
      gadget.addr = text_base_ + static_cast<mem::GuestAddr>(start);
      return gadget;
    }
  }
  return util::NotFound("no pop^" + std::to_string(pop_count) + ";ret gadget");
}

util::Result<Gadget> Finder::FindPopRegsPc(std::uint16_t required_mask) const {
  if (arch_ != isa::Arch::kVARM) {
    return util::FailedPrecondition("pop {…, pc} gadgets are a VARM shape");
  }
  const std::uint16_t want =
      static_cast<std::uint16_t>(required_mask | (1u << isa::kPC));
  Gadget best;
  int best_pops = 17;
  for (std::size_t start = 0; start < text_.size(); start += 4) {
    auto decoded = isa::Decode(arch_, text_, start);
    if (!decoded.ok()) continue;
    const isa::Instr& ins = decoded.value();
    if (ins.op != isa::Op::kPop || (ins.reg_mask & want) != want) continue;
    const int pops = std::popcount(ins.reg_mask);
    if (pops < best_pops) {  // strictly fewer: the earliest wins a tie
      best.addr = text_base_ + static_cast<mem::GuestAddr>(start);
      best.instrs.assign(1, ins);
      best_pops = pops;
    }
  }
  if (best.instrs.empty()) {
    return util::NotFound("no covering pop {…, pc} gadget");
  }
  return best;
}

util::Result<Gadget> Finder::FindBlx(std::uint8_t reg) const {
  if (arch_ != isa::Arch::kVARM) {
    return util::FailedPrecondition("blx gadgets are a VARM shape");
  }
  for (std::size_t start = 0; start + 4 <= text_.size(); start += 4) {
    auto decoded = isa::Decode(arch_, text_, start);
    if (!decoded.ok()) continue;
    if (decoded.value().op != isa::Op::kBlx || decoded.value().ra != reg) {
      continue;
    }
    Gadget gadget;
    gadget.addr = text_base_ + static_cast<mem::GuestAddr>(start);
    gadget.instrs.push_back(decoded.value());
    // Include up to two following instructions: how execution continues
    // when the callee returns just past the blx.
    std::size_t pos = start + 4;
    for (int i = 0; i < 2 && pos + 4 <= text_.size(); ++i) {
      auto next = isa::Decode(arch_, text_, pos);
      if (!next.ok()) break;
      gadget.instrs.push_back(next.value());
      pos += next.value().length;
      if (IsTerminator(next.value())) break;
    }
    return gadget;
  }
  return util::NotFound("no blx gadget for that register");
}

}  // namespace connlab::gadget
