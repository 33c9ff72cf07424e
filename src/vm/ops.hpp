// One definition per guest op: each function below is one op's whole effect
// on a Cpu (registers, zf, guest memory, the shadow stack, and the stop or
// fault record with its detail). The interpreter's ExecVX86/ExecVARM
// (vm/cpu.cpp) and the superblock handlers (vm/superblock.cpp) both
// dispatch to them. The callers' half of the contract:
//   - before an op that can fault, stop or read r15, pc holds the op's
//     fall-through address, and on VARM so does r15: fault and stop
//     records take that pc, and `push {pc}`, `str pc` and `bx pc` read it;
//   - an op that returns bool returns false when it stopped the CPU;
//   - an op that branches moves pc itself (and r15 on VARM, via Branch). A
//     VARM op whose destination is r15 writes r15 alone: the interpreter
//     reads r15 back into pc after every VARM op, and block formation
//     leaves those forms to the interpreter.
// tests/test_ops.cpp is the oracle for every op here. Cpu::RunCopyPasses
// applies the byte-copy loop's ops in bulk; CpuBulkCopy.* is its oracle.
#pragma once

#include <bit>
#include <cstdint>

#include "src/isa/isa.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/cpu.hpp"
#include "src/vm/syscalls.hpp"

#define CL_OP [[gnu::always_inline]] static inline

namespace connlab::vm {

/// Each ISA's direct-branch target: VX86 branches carry the absolute
/// target, VARM ones a signed word offset from the fall-through.
[[gnu::always_inline]] inline mem::GuestAddr BranchTarget(
    isa::Arch arch, const isa::Instr& i, mem::GuestAddr pc_next) {
  return arch == isa::Arch::kVX86
             ? i.imm
             : pc_next + static_cast<std::int32_t>(i.imm) * 4;
}

/// The ops that do the same on both ISAs, and the memory and syscall
/// primitives the per-ISA ops build on.
struct OpsCommon {
  using In = isa::Instr;
  CL_OP void MovReg(Cpu& c, const In& i) { c.regs_[i.ra] = c.regs_[i.rb]; }
  CL_OP void AddReg(Cpu& c, const In& i) {
    c.regs_[i.ra] = c.regs_[i.rb] + c.regs_[i.rc];
  }
  CL_OP void CmpImm(Cpu& c, const In& i) { c.zf_ = c.regs_[i.ra] == i.imm; }
  /// Records the fault of the access that just failed.
  CL_OP bool Fails(Cpu& c, const char* detail) {
    c.Fault(detail);
    return false;
  }
  /// The word at `addr` into `out`, which a fault leaves as it was.
  CL_OP bool Read(Cpu& c, std::uint32_t addr, std::uint32_t& out,
                  const char* fault) {
    auto value = c.space_->ReadU32(addr);
    if (!value.ok()) return Fails(c, fault);
    out = value.value();
    return true;
  }
  CL_OP bool Write(Cpu& c, std::uint32_t addr, std::uint32_t value,
                   const char* fault) {
    return c.space_->WriteU32(addr, value).ok() || Fails(c, fault);
  }
  /// ldb/ldrb zero-extend the byte at rb + imm; stb/strb store ra's low
  /// byte there.
  CL_OP bool LoadByte(Cpu& c, const In& i) {
    auto value = c.space_->ReadU8(c.regs_[i.rb] + i.imm);
    if (!value.ok()) return Fails(c, "ldrb failed");
    c.regs_[i.ra] = value.value();
    return true;
  }
  CL_OP bool StoreByte(Cpu& c, const In& i) {
    const auto byte = static_cast<std::uint8_t>(c.regs_[i.ra] & 0xFF);
    return c.space_->WriteU8(c.regs_[i.rb] + i.imm, byte).ok() ||
           Fails(c, "strb failed");
  }
  /// A syscall that fails without stopping the CPU faults with its status.
  CL_OP void Syscall(Cpu& c) {
    const util::Status status = DispatchSyscall(c);
    if (!status.ok() && !c.stopped()) c.Fault(status.ToString());
  }
};

/// The ops of one ISA; an op foreign to the ISA is never called for it.
template <isa::Arch A>
struct Ops : OpsCommon {
  static constexpr bool kX86 = A == isa::Arch::kVX86;

  /// Moves pc to `target`; r15 follows it on VARM.
  CL_OP void Branch(Cpu& c, std::uint32_t target) {
    c.pc_ = target;
    if constexpr (!kX86) c.regs_[isa::kPC] = target;
  }

  /// VX86 mov reg, imm32; VARM movw, which clears the top half.
  CL_OP void MovImm(Cpu& c, const In& i) {
    c.regs_[i.ra] = kX86 ? i.imm : i.imm & 0xFFFF;
  }
  /// add/sub imm: VX86 steps ra in place, VARM writes ra = rb +/- imm.
  CL_OP void AddImm(Cpu& c, const In& i) {
    c.regs_[i.ra] = c.regs_[kX86 ? i.ra : i.rb] + i.imm;
  }
  CL_OP void SubImm(Cpu& c, const In& i) {
    c.regs_[i.ra] = c.regs_[kX86 ? i.ra : i.rb] - i.imm;
  }
  CL_OP void XorReg(Cpu& c, const In& i) { c.regs_[i.ra] ^= c.regs_[i.rb]; }
  CL_OP void MovT(Cpu& c, const In& i) {
    c.regs_[i.ra] = (c.regs_[i.ra] & 0xFFFF) | (i.imm << 16);
  }
  CL_OP void Mvn(Cpu& c, const In& i) { c.regs_[i.ra] = ~c.regs_[i.rb]; }

  CL_OP bool Load(Cpu& c, const In& i) {
    return Read(c, c.regs_[i.rb] + i.imm, c.regs_[i.ra],
                kX86 ? "load failed" : "ldr failed");
  }
  CL_OP bool Store(Cpu& c, const In& i) {
    return Write(c, c.regs_[i.rb] + i.imm, c.regs_[i.ra],
                 kX86 ? "store failed" : "str failed");
  }
  /// ldrl: the word imm bytes past the fall-through.
  CL_OP bool LdrLit(Cpu& c, const In& i, std::uint32_t pc_next) {
    return Read(c, pc_next + static_cast<std::int32_t>(i.imm), c.regs_[i.ra],
                "ldrl failed");
  }
  CL_OP bool LdrInd(Cpu& c, const In& i) {
    return Read(c, c.regs_[i.rb], c.regs_[i.ra], "ldri failed");
  }

  /// VX86 push; a fault leaves esp as it was.
  CL_OP bool Push(Cpu& c, std::uint32_t value, const char* fault) {
    const std::uint32_t next = c.regs_[isa::kESP] - 4;
    if (!Write(c, next, value, fault)) return false;
    c.regs_[isa::kESP] = next;
    return true;
  }
  CL_OP bool PushReg(Cpu& c, const In& i) {
    return Push(c, c.regs_[i.ra], "push failed");
  }
  CL_OP bool PushImm(Cpu& c, const In& i) {
    return Push(c, i.imm, "push failed");
  }
  /// VX86 pop: esp steps before the destination write (`pop esp` keeps the
  /// popped value).
  CL_OP bool Pop(Cpu& c, const In& i) {
    std::uint32_t value = 0;
    if (!Read(c, c.regs_[isa::kESP], value, "pop failed")) return false;
    c.regs_[isa::kESP] += 4;
    c.regs_[i.ra] = value;
    return true;
  }
  /// VARM push {mask}: descending, lowest register at the lowest address. A
  /// fault leaves sp as it was and the earlier stores in place.
  CL_OP bool PushList(Cpu& c, const In& i) {
    const std::uint32_t sp =
        c.regs_[isa::kSP] -
        4 * static_cast<std::uint32_t>(std::popcount(i.reg_mask));
    std::uint32_t addr = sp;
    for (int r = 0; r < 16; ++r) {
      if (((i.reg_mask >> r) & 1) == 0) continue;
      if (!Write(c, addr, c.regs_[r], "push failed")) return false;
      addr += 4;
    }
    c.regs_[isa::kSP] = sp;
    return true;
  }
  /// VARM pop {mask}: ascending, each register written as it is loaded. A
  /// popped sp is ignored (unpredictable on real ARM); a popped pc is a
  /// return, the `pop {..., pc}` gadget mechanism.
  CL_OP bool PopList(Cpu& c, const In& i) {
    std::uint32_t addr = c.regs_[isa::kSP];
    std::uint32_t target = 0;
    for (int r = 0; r < 16; ++r) {
      if (((i.reg_mask >> r) & 1) == 0) continue;
      std::uint32_t value = 0;
      if (!Read(c, addr, value, "pop failed")) return false;
      addr += 4;
      if (r == isa::kPC) {
        target = value;
      } else if (r != isa::kSP) {
        c.regs_[r] = value;
      }
    }
    c.regs_[isa::kSP] = addr;
    return ((i.reg_mask >> isa::kPC) & 1) == 0 ||
           Return(c, target, "CFI violation on pop {pc}");
  }

  CL_OP void Jmp(Cpu& c, const In& i, std::uint32_t pc_next) {
    Branch(c, BranchTarget(A, i, pc_next));
  }
  /// jz/beq and jnz/bne: true when taken.
  CL_OP bool Jz(Cpu& c, const In& i, std::uint32_t pc_next) {
    if (c.zf_) Jmp(c, i, pc_next);
    return c.zf_;
  }
  CL_OP bool Jnz(Cpu& c, const In& i, std::uint32_t pc_next) {
    if (!c.zf_) Jmp(c, i, pc_next);
    return !c.zf_;
  }
  /// VX86 call: the return address goes on the stack, then on the shadow
  /// stack.
  CL_OP bool Call(Cpu& c, const In& i, std::uint32_t pc_next) {
    if (!Push(c, pc_next, "call push failed")) return false;
    c.ShadowPush(pc_next);
    Jmp(c, i, pc_next);
    return true;
  }
  /// VARM bl/blx: the return address goes in lr, then on the shadow stack.
  /// blx links first, so `blx lr` branches to the new link.
  CL_OP void Link(Cpu& c, std::uint32_t pc_next) {
    c.regs_[isa::kLR] = pc_next;
    c.ShadowPush(pc_next);
  }
  CL_OP void Bl(Cpu& c, const In& i, std::uint32_t pc_next) {
    Link(c, pc_next);
    Jmp(c, i, pc_next);
  }
  CL_OP void Blx(Cpu& c, const In& i, std::uint32_t pc_next) {
    Link(c, pc_next);
    Branch(c, c.regs_[i.ra]);
  }
  CL_OP void Bx(Cpu& c, const In& i) { Branch(c, c.regs_[i.ra]); }
  CL_OP bool JmpInd(Cpu& c, const In& i) {
    std::uint32_t target = 0;
    if (!Read(c, i.imm, target, "indirect jump load failed")) return false;
    Branch(c, target);
    return true;
  }
  CL_OP bool Ret(Cpu& c) {
    std::uint32_t target = 0;
    if (!Read(c, c.regs_[isa::kESP], target, "ret pop failed")) return false;
    c.regs_[isa::kESP] += 4;
    return Return(c, target, "CFI violation on ret");
  }
  /// The shadow-stack return check (the CFI CaRE model). With the shadow
  /// stack on, a return to its top entry pops it and branches, and any
  /// other return traps and stops; with it off every return branches.
  CL_OP bool Return(Cpu& c, std::uint32_t target, const char* detail) {
    if (c.ShadowCheckReturn(target)) {
      Branch(c, target);
      return true;
    }
    OBS_COUNT("defense.cfi_traps");
    c.PushEvent(EventKind::kCfiViolation, "CFI: return address mismatch");
    c.RequestStop(StopReason::kCfiViolation, detail);
    return false;
  }
  /// hlt leaves pc on itself.
  CL_OP void Hlt(Cpu& c, const In& i, std::uint32_t pc_next) {
    Branch(c, pc_next - i.length);
    c.RequestStop(StopReason::kHalted, "hlt");
  }
};

}  // namespace connlab::vm

#undef CL_OP
