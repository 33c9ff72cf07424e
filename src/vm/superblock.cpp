// Superblock tier: block compilation and the computed-goto executor.
//
// Everything here lives in Cpu member functions so handlers touch the
// register file, address space, shadow stack and coverage state directly —
// the handler bodies are line-for-line transcriptions of the interpreter's
// ExecVX86/ExecVARM cases (vm/cpu.cpp), with the per-instruction dispatch,
// fetch, decode and generation checks hoisted to block granularity. When in
// doubt about semantics, the interpreter is the single source of truth and
// the differential suite (tests/test_differential.cpp) is the referee.
#include "src/vm/superblock.hpp"

#include <algorithm>
#include <memory>

#include "src/isa/disasm.hpp"
#include "src/isa/vx86.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/cpu.hpp"
#include "src/vm/syscalls.hpp"

namespace connlab::vm {

namespace {

/// Handler indices into the label table ExecSuperblock hands out in query
/// mode. The order must match the kLabels initializer exactly (enforced by
/// the static_assert next to it).
enum SbHandler : std::uint8_t {
  kHExit = 0,
  kHCopyLoopBranch,  // closing branch of a byte-copy loop, either ISA
  // VX86
  kHXNop,
  kHXMovImm,
  kHXMovReg,
  kHXXorReg,
  kHXAddImm,
  kHXSubImm,
  kHXAddReg,
  kHXCmpImm,
  kHXLoad,
  kHXStore,
  kHXLoadByte,
  kHXStoreByte,
  kHXPush,
  kHXPushImm,
  kHXPop,
  kHXCall,
  kHXRet,
  kHXJmp,
  kHXJz,
  kHXJnz,
  kHXJmpInd,
  kHXSyscall,
  kHXHlt,
  // VARM
  kHAMovReg,
  kHAMovImm,
  kHAMovT,
  kHAMvn,
  kHAAddImm,
  kHASubImm,
  kHAAddReg,
  kHACmpImm,
  kHALoad,
  kHAStore,
  kHALoadByte,
  kHAStoreByte,
  kHALdrLit,
  kHALdrInd,
  kHAPush,
  kHAPop,
  kHAPopPc,
  kHABl,
  kHABlx,
  kHABx,
  kHAJmp,
  kHAJz,
  kHAJnz,
  kHASyscall,
  kHAHlt,
  kHandlerCount,
};

/// Builder verdict for one decoded instruction: which handler runs it, and
/// whether it ends the block. Only unconditional control transfers end a
/// block; conditional branches are side exits that fall through into the
/// next op when not taken. index < 0 means "not superblockable" — the
/// block ends before this pc and the interpreter executes it (including the
/// cannot-execute fault for ops foreign to the arch).
struct HandlerPick {
  int index = -1;
  bool terminator = false;
};

HandlerPick PickVX86(const isa::Instr& ins) noexcept {
  using isa::Op;
  switch (ins.op) {
    case Op::kNop: return {kHXNop, false};
    case Op::kMovImm: return {kHXMovImm, false};
    case Op::kMovReg: return {kHXMovReg, false};
    case Op::kXorReg: return {kHXXorReg, false};
    case Op::kAddImm: return {kHXAddImm, false};
    case Op::kSubImm: return {kHXSubImm, false};
    case Op::kAddReg: return {kHXAddReg, false};
    case Op::kCmpImm: return {kHXCmpImm, false};
    case Op::kLoad: return {kHXLoad, false};
    case Op::kStore: return {kHXStore, false};
    case Op::kLoadByte: return {kHXLoadByte, false};
    case Op::kStoreByte: return {kHXStoreByte, false};
    case Op::kPush: return {kHXPush, false};
    case Op::kPushImm: return {kHXPushImm, false};
    case Op::kPop: return {kHXPop, false};
    case Op::kCall: return {kHXCall, true};
    case Op::kRet: return {kHXRet, true};
    case Op::kJmp: return {kHXJmp, true};
    case Op::kJz: return {kHXJz, false};
    case Op::kJnz: return {kHXJnz, false};
    case Op::kJmpInd: return {kHXJmpInd, true};
    case Op::kSyscall: return {kHXSyscall, true};
    case Op::kHlt: return {kHXHlt, true};
    default: return {};
  }
}

HandlerPick PickVARM(const isa::Instr& ins) noexcept {
  using isa::Op;
  // Pure ALU handlers skip the pc/r15 mirror between sync points, so any
  // r15 operand makes them interpreter-only: writing ra == pc is a control
  // transfer, and reading r15 would observe the skipped mirror. Handlers
  // that can fault re-sync pc and r15 first, so r15 *sources* are fine
  // there; r15 *destinations* still are not (set_reg would branch).
  const bool alu_r15 = ins.ra == isa::kPC || ins.rb == isa::kPC ||
                       ins.rc == isa::kPC;
  switch (ins.op) {
    case Op::kMovReg: return alu_r15 ? HandlerPick{} : HandlerPick{kHAMovReg, false};
    case Op::kMovImm: return alu_r15 ? HandlerPick{} : HandlerPick{kHAMovImm, false};
    case Op::kMovT: return alu_r15 ? HandlerPick{} : HandlerPick{kHAMovT, false};
    case Op::kMvn: return alu_r15 ? HandlerPick{} : HandlerPick{kHAMvn, false};
    case Op::kAddImm: return alu_r15 ? HandlerPick{} : HandlerPick{kHAAddImm, false};
    case Op::kSubImm: return alu_r15 ? HandlerPick{} : HandlerPick{kHASubImm, false};
    case Op::kAddReg: return alu_r15 ? HandlerPick{} : HandlerPick{kHAAddReg, false};
    case Op::kCmpImm: return alu_r15 ? HandlerPick{} : HandlerPick{kHACmpImm, false};
    case Op::kLoad:
      return ins.ra == isa::kPC ? HandlerPick{} : HandlerPick{kHALoad, false};
    case Op::kLoadByte:
      return ins.ra == isa::kPC ? HandlerPick{} : HandlerPick{kHALoadByte, false};
    case Op::kLdrLit:
      return ins.ra == isa::kPC ? HandlerPick{} : HandlerPick{kHALdrLit, false};
    case Op::kLdrInd:
      return ins.ra == isa::kPC ? HandlerPick{} : HandlerPick{kHALdrInd, false};
    case Op::kStore: return {kHAStore, false};
    case Op::kStoreByte: return {kHAStoreByte, false};
    case Op::kPush: return {kHAPush, false};
    case Op::kPop:
      // pop {..., pc} is a control transfer (and the CFI check point);
      // plain pops stay in-block.
      return (ins.reg_mask & (1u << isa::kPC)) != 0
                 ? HandlerPick{kHAPopPc, true}
                 : HandlerPick{kHAPop, false};
    case Op::kBl: return {kHABl, true};
    case Op::kBlx: return {kHABlx, true};
    case Op::kBx: return {kHABx, true};
    case Op::kJmp: return {kHAJmp, true};
    case Op::kJz: return {kHAJz, false};
    case Op::kJnz: return {kHAJnz, false};
    case Op::kSyscall: return {kHASyscall, true};
    case Op::kHlt: return {kHAHlt, true};
    default: return {};
  }
}

/// Ops per pass of a byte-copy loop block.
constexpr std::uint32_t kCopyLoopOps = 8;

/// True when `block` is the self-looping byte copy
/// `cmp n,0; jz out; ldb t,[s+a]; stb t,[d+b]; add d,1; add s,1; sub n,1;
/// jmp entry` with n, t, s and d four distinct registers (vm/superblock.hpp).
bool IsByteCopyLoop(const Superblock& block, isa::Arch arch) noexcept {
  using isa::Op;
  if (block.count != kCopyLoopOps) return false;
  const auto ins = [&block](int i) -> const isa::Instr& {
    return block.ops[static_cast<std::size_t>(i)].instr;
  };
  // VARM's three-operand add/sub must step their own register.
  const auto steps_by_one = [&](int i, Op op, std::uint8_t reg) {
    return ins(i).op == op && ins(i).ra == reg && ins(i).imm == 1 &&
           (arch == isa::Arch::kVX86 || ins(i).rb == reg);
  };
  const std::uint8_t n = ins(0).ra;
  const std::uint8_t t = ins(2).ra;
  const std::uint8_t s = ins(2).rb;
  const std::uint8_t d = ins(3).rb;
  const SbOp& back = block.ops[kCopyLoopOps - 1];
  const mem::GuestAddr target =
      arch == isa::Arch::kVX86
          ? back.instr.imm
          : back.pc_next + static_cast<std::int32_t>(back.instr.imm) * 4;
  return ins(0).op == Op::kCmpImm && ins(0).imm == 0 &&
         ins(1).op == Op::kJz && ins(2).op == Op::kLoadByte &&
         ins(3).op == Op::kStoreByte && ins(3).ra == t &&
         steps_by_one(4, Op::kAddImm, d) && steps_by_one(5, Op::kAddImm, s) &&
         steps_by_one(6, Op::kSubImm, n) && back.instr.op == Op::kJmp &&
         target == block.entry && n != t && n != s && n != d && t != s &&
         t != d && s != d;
}

}  // namespace

void Cpu::FlushSuperblocks() noexcept {
  if (sb_ != nullptr) sb_->Flush();
}

const Superblock* Cpu::SuperblockFor(const mem::Segment* seg,
                                     mem::GuestAddr entry) {
  SuperblockCache::SegBlocks& store = sb_->For(seg);
  auto it = store.blocks.find(entry);
  if (it != store.blocks.end()) return &it->second;

  const void* const* labels = ExecSuperblock(nullptr, nullptr, 0, 0);

  Superblock block;
  block.entry = entry;
  mem::GuestAddr pc = entry;
  bool ends_in_terminator = false;
  while (block.ops.size() < Superblock::kMaxOps) {
    // Host-function trampolines and breakpoint'd pcs end the region: the
    // interpreter dispatches the former, the Run() loop traps the latter.
    // (An entry breakpoint was already handled by Run() before we got here;
    // changing either set flushes all blocks.)
    if (!host_fns_.empty() && host_fns_.contains(pc)) break;
    if (pc != entry && breakpoints_.contains(pc)) break;
    const std::uint32_t first_len =
        arch_ == isa::Arch::kVARM ? isa::kVARMInstrSize : 1u;
    if (!seg->ContainsRange(pc, first_len)) break;
    std::uint32_t len = first_len;
    if (arch_ == isa::Arch::kVX86) {
      len = isa::vx86::InstrLength(seg->At(pc));
      if (len == 0 || !seg->ContainsRange(pc, len)) break;
    }
    auto decoded = isa::Decode(arch_, seg->SpanAt(pc, len), 0);
    if (!decoded.ok()) break;
    const isa::Instr& ins = decoded.value();
    const HandlerPick pick =
        arch_ == isa::Arch::kVX86 ? PickVX86(ins) : PickVARM(ins);
    if (pick.index < 0) break;
    SbOp op;
    op.handler = labels[pick.index];
    op.instr = ins;
    op.pc = pc;
    op.pc_next = pc + ins.length;
    op.cov_loc = CoverageLocation(pc);
    block.ops.push_back(op);
    pc = op.pc_next;
    if (pick.terminator) {
      ends_in_terminator = true;
      break;
    }
  }
  block.count = static_cast<std::uint32_t>(block.ops.size());
  if (block.usable()) {
    if (!ends_in_terminator) {
      // The region fell through (length cap / segment edge / unsuperblockable
      // successor, possibly right after a side exit): append the exit
      // sentinel that re-syncs pc and leaves.
      SbOp exit_op;
      exit_op.handler = labels[kHExit];
      exit_op.pc = pc;
      exit_op.pc_next = pc;
      block.ops.push_back(exit_op);
    }
    if (IsByteCopyLoop(block, arch_)) {
      block.ops.back().handler = labels[kHCopyLoopBranch];
    }
    ++sb_->compiles;
  }
  // Unusable blocks are inserted too: they negative-cache this entry pc so
  // the interpreter region is not re-scanned every visit.
  auto [pos, inserted] = store.blocks.emplace(entry, std::move(block));
  return &pos->second;
}

bool Cpu::TrySuperblocks(std::uint64_t remaining) {
  // Tracing wants a disassembly string per retired instruction; only the
  // interpreter produces those.
  if (trace_limit_ != 0) return false;
  if (sb_ == nullptr) sb_ = std::make_unique<SuperblockCache>();
  bool executed = false;
  for (;;) {
    SuperblockCache::Slot& slot = sb_->SlotFor(pc_, sb_slot_shift_);
    const Superblock* block;
    const mem::Segment* seg;
    std::uint64_t gen;
    if (slot.block != nullptr && slot.pc == pc_ &&
        slot.seg->generation() == slot.gen) {
      block = slot.block;
      seg = slot.seg;
      gen = slot.gen;
    } else {
      const std::uint32_t probe_len =
          arch_ == isa::Arch::kVARM ? isa::kVARMInstrSize : 1u;
      auto head = space_->FetchSegment(pc_, probe_len);
      if (!head.ok()) {
        // Unfetchable pc (unmapped, W^X, or a host fn living at a
        // non-executable address): clear the probe's fault record and let
        // the interpreter path produce the authoritative outcome.
        space_->ClearFault();
        ++sb_->fallbacks;
        return executed;
      }
      seg = head.value();
      block = SuperblockFor(seg, pc_);
      gen = seg->generation();
      slot.pc = pc_;
      slot.gen = gen;
      slot.seg = seg;
      slot.block = block;
    }
    if (!block->usable() ||
        static_cast<std::uint64_t>(block->count) > remaining) {
      // Interpreter region, or fewer budget steps left than the block would
      // retire — the interpreter tail preserves exact step-limit semantics.
      ++sb_->fallbacks;
      return executed;
    }
    ++sb_->hits;
    const std::uint64_t before = steps_;
    ExecSuperblock(block, seg, gen, steps_ + remaining);
    executed = true;
    remaining -= steps_ - before;
#ifndef CONNLAB_OBS_DISABLED
    obs_batch_.superblock_steps += steps_ - before;  // self-loops included
#endif
    if (stop_.reason != StopReason::kRunning || remaining == 0 ||
        !breakpoints_.empty()) {
      return true;  // Run() re-evaluates its stop conditions
    }
  }
}

// Per-op bookkeeping at handler entry: the AFL edge update and retired-step
// count, exactly as Step() does before executing an instruction. The exit
// sentinel is the one handler that must NOT run this (it retires nothing).
#define CL_ENTER()                                                          \
  do {                                                                      \
    if (cov_bitmap_ != nullptr) RecordCoverageEdge(op->cov_loc);            \
    ++steps_;                                                               \
  } while (0)

// Fall through to the next op in the block.
#define CL_NEXT()                             \
  do {                                        \
    ++op;                                     \
    goto* const_cast<void*>(op->handler);     \
  } while (0)

// Fall through after a guest store: if the store landed in the code segment
// the block was decoded from (shellcode patching itself), the remaining ops
// are stale — exit to the interpreter, which re-fetches through the
// generation-checked front door. op already points at the next op, whose pc
// field is exactly the resume address.
#define CL_SMC_NEXT()                         \
  do {                                        \
    ++op;                                     \
    if (seg->generation() != entry_gen) {     \
      ++sb_->invalidations;                   \
      goto h_exit;                            \
    }                                         \
    goto* const_cast<void*>(op->handler);     \
  } while (0)

// The interpreter's ExecVARM runs under set_pc(pc_next) — pc_ and its r15
// mirror both hold the fall-through address before any observable action.
// VARM handlers that can fault, push pc, or read r15 re-create that state.
#define CL_SET_PC_ARM(value)       \
  do {                             \
    const std::uint32_t cl_pc = (value); \
    pc_ = cl_pc;                   \
    regs_[isa::kPC] = cl_pc;       \
  } while (0)

// Every per-entry precondition a self-loop re-entry must still meet: block
// store still valid (generation unchanged), nothing stopped, no breakpoints
// to honour, budget for a full pass of the block.
#define CL_CAN_REENTER()                                             \
  (seg->generation() == entry_gen &&                                \
   stop_.reason == StopReason::kRunning && breakpoints_.empty() &&  \
   steps_ + block->count <= steps_cap)

// Direct-branch exit (terminators and taken side exits alike): a branch
// back to this block's own entry (the tight-loop shape) re-enters threaded
// code without returning through the dispatch loop whenever
// CL_CAN_REENTER() holds. Anything else hands control back to
// TrySuperblocks.
#define CL_BRANCH(target_val, SYNC_PC)                   \
  do {                                                   \
    const mem::GuestAddr cl_t = (target_val);            \
    SYNC_PC(cl_t);                                       \
    if (cl_t == block->entry && CL_CAN_REENTER()) {      \
      ++sb_->hits;                                       \
      op = block->ops.data();                            \
      goto* const_cast<void*>(op->handler);              \
    }                                                    \
    return nullptr;                                      \
  } while (0)
#define CL_SET_PC_X86(value) (pc_ = (value))

const void* const* Cpu::ExecSuperblock(const Superblock* block,
                                       const mem::Segment* seg,
                                       std::uint64_t entry_gen,
                                       std::uint64_t steps_cap) {
  // Label address table, indexed by SbHandler. Built once (function-local
  // static); query mode (block == nullptr) hands it to the block builder.
  static const void* const kLabels[] = {
      &&h_exit, &&h_copy_loop_branch,
      // VX86
      &&x_nop, &&x_mov_imm, &&x_mov_reg, &&x_xor_reg, &&x_add_imm,
      &&x_sub_imm, &&x_add_reg, &&x_cmp_imm, &&x_load, &&x_store,
      &&x_load_byte, &&x_store_byte, &&x_push, &&x_push_imm, &&x_pop,
      &&x_call, &&x_ret, &&x_jmp, &&x_jz, &&x_jnz, &&x_jmp_ind, &&x_syscall,
      &&x_hlt,
      // VARM
      &&a_mov_reg, &&a_mov_imm, &&a_mov_t, &&a_mvn, &&a_add_imm, &&a_sub_imm,
      &&a_add_reg, &&a_cmp_imm, &&a_load, &&a_store, &&a_load_byte,
      &&a_store_byte, &&a_ldr_lit, &&a_ldr_ind, &&a_push, &&a_pop,
      &&a_pop_pc, &&a_bl, &&a_blx, &&a_bx, &&a_jmp, &&a_jz, &&a_jnz,
      &&a_syscall, &&a_hlt,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kHandlerCount);
  if (block == nullptr) return kLabels;

  const SbOp* op = block->ops.data();
  goto* const_cast<void*>(op->handler);

// --- Shared -----------------------------------------------------------------

h_exit:
  // Block boundary without a control transfer (exit sentinel or an SMC
  // bailout): re-sync the architectural pc to the next unexecuted
  // instruction and hand control back to the Run() loop.
  set_pc(op->pc);
  return nullptr;

h_copy_loop_branch:
  // The closing `jmp/b entry` of a byte-copy loop: CL_BRANCH's self-loop
  // re-entry, with bulk passes retired first. The bulk never stores into
  // `seg` and leaves a pass of budget, so CL_CAN_REENTER() still holds
  // after it.
  CL_ENTER();
  set_pc(block->entry);
  if (CL_CAN_REENTER()) {
    RunCopyPasses(*block, seg, steps_cap);
    ++sb_->hits;
    op = block->ops.data();
    goto* const_cast<void*>(op->handler);
  }
  return nullptr;

// --- VX86 handlers (mirror ExecVX86 case for case) ---------------------------

x_nop:
  CL_ENTER();
  CL_NEXT();

x_mov_imm:
  CL_ENTER();
  regs_[op->instr.ra] = op->instr.imm;
  CL_NEXT();

x_mov_reg:
  CL_ENTER();
  regs_[op->instr.ra] = regs_[op->instr.rb];
  CL_NEXT();

x_xor_reg:
  CL_ENTER();
  regs_[op->instr.ra] ^= regs_[op->instr.rb];
  CL_NEXT();

x_add_imm:
  CL_ENTER();
  regs_[op->instr.ra] += op->instr.imm;
  CL_NEXT();

x_sub_imm:
  CL_ENTER();
  regs_[op->instr.ra] -= op->instr.imm;
  CL_NEXT();

x_add_reg:
  CL_ENTER();
  regs_[op->instr.ra] = regs_[op->instr.rb] + regs_[op->instr.rc];
  CL_NEXT();

x_cmp_imm:
  CL_ENTER();
  zf_ = regs_[op->instr.ra] == op->instr.imm;
  CL_NEXT();

x_load: {
  CL_ENTER();
  pc_ = op->pc_next;  // fault pc is the fall-through, as in the interpreter
  auto value = space_->ReadU32(regs_[op->instr.rb] + op->instr.imm);
  if (!value.ok()) {
    Fault("load failed");
    return nullptr;
  }
  regs_[op->instr.ra] = value.value();
  CL_NEXT();
}

x_store: {
  CL_ENTER();
  pc_ = op->pc_next;
  auto status =
      space_->WriteU32(regs_[op->instr.rb] + op->instr.imm, regs_[op->instr.ra]);
  if (!status.ok()) {
    Fault("store failed");
    return nullptr;
  }
  CL_SMC_NEXT();
}

x_load_byte: {
  CL_ENTER();
  pc_ = op->pc_next;
  auto value = space_->ReadU8(regs_[op->instr.rb] + op->instr.imm);
  if (!value.ok()) {
    Fault("ldrb failed");
    return nullptr;
  }
  regs_[op->instr.ra] = value.value();
  CL_NEXT();
}

x_store_byte: {
  CL_ENTER();
  pc_ = op->pc_next;
  auto status = space_->WriteU8(
      regs_[op->instr.rb] + op->instr.imm,
      static_cast<std::uint8_t>(regs_[op->instr.ra] & 0xFF));
  if (!status.ok()) {
    Fault("strb failed");
    return nullptr;
  }
  CL_SMC_NEXT();
}

x_push: {
  CL_ENTER();
  pc_ = op->pc_next;
  const std::uint32_t next_sp = regs_[isa::kESP] - 4;
  auto status = space_->WriteU32(next_sp, regs_[op->instr.ra]);
  if (!status.ok()) {
    Fault("push failed");  // sp untouched on failure, as in Cpu::Push
    return nullptr;
  }
  regs_[isa::kESP] = next_sp;
  CL_SMC_NEXT();
}

x_push_imm: {
  CL_ENTER();
  pc_ = op->pc_next;
  const std::uint32_t next_sp = regs_[isa::kESP] - 4;
  auto status = space_->WriteU32(next_sp, op->instr.imm);
  if (!status.ok()) {
    Fault("push failed");
    return nullptr;
  }
  regs_[isa::kESP] = next_sp;
  CL_SMC_NEXT();
}

x_pop: {
  CL_ENTER();
  pc_ = op->pc_next;
  auto value = space_->ReadU32(regs_[isa::kESP]);
  if (!value.ok()) {
    Fault("pop failed");
    return nullptr;
  }
  regs_[isa::kESP] += 4;  // Pop() bumps sp before the destination write
  regs_[op->instr.ra] = value.value();
  CL_NEXT();
}

x_call: {
  CL_ENTER();
  pc_ = op->pc_next;
  const std::uint32_t next_sp = regs_[isa::kESP] - 4;
  auto status = space_->WriteU32(next_sp, op->pc_next);
  if (!status.ok()) {
    Fault("call push failed");
    return nullptr;
  }
  regs_[isa::kESP] = next_sp;
  if (shadow_enabled_) shadow_.push_back(op->pc_next);
  // A self-call re-enters this block — recursion really is the tight-loop
  // shape.
  CL_BRANCH(op->instr.imm, CL_SET_PC_X86);
}

x_ret: {
  CL_ENTER();
  pc_ = op->pc_next;
  auto target = space_->ReadU32(regs_[isa::kESP]);
  if (!target.ok()) {
    Fault("ret pop failed");
    return nullptr;
  }
  regs_[isa::kESP] += 4;
  if (!ShadowCheckReturn(target.value())) {
    OBS_COUNT("defense.cfi_traps");
    PushEvent(EventKind::kCfiViolation, "CFI: return address mismatch");
    RequestStop(StopReason::kCfiViolation, "CFI violation on ret");
    return nullptr;
  }
  pc_ = target.value();
  return nullptr;
}

x_jmp:
  CL_ENTER();
  CL_BRANCH(op->instr.imm, CL_SET_PC_X86);

// Conditional branches are side exits: taken leaves through CL_BRANCH,
// not taken falls through to the next op (or the exit sentinel).
x_jz:
  CL_ENTER();
  if (zf_) {
    CL_BRANCH(op->instr.imm, CL_SET_PC_X86);
  }
  CL_NEXT();

x_jnz:
  CL_ENTER();
  if (!zf_) {
    CL_BRANCH(op->instr.imm, CL_SET_PC_X86);
  }
  CL_NEXT();

x_jmp_ind: {
  CL_ENTER();
  pc_ = op->pc_next;
  auto target = space_->ReadU32(op->instr.imm);
  if (!target.ok()) {
    Fault("indirect jump load failed");
    return nullptr;
  }
  pc_ = target.value();
  return nullptr;
}

x_syscall: {
  CL_ENTER();
  pc_ = op->pc_next;
  util::Status status = DispatchSyscall(*this);
  if (!status.ok() && !stopped()) Fault(status.ToString());
  return nullptr;
}

x_hlt:
  CL_ENTER();
  pc_ = op->pc;  // halt leaves pc on the hlt itself
  RequestStop(StopReason::kHalted, "hlt");
  return nullptr;

// --- VARM handlers (mirror ExecVARM case for case) ---------------------------

a_mov_reg:
  CL_ENTER();
  regs_[op->instr.ra] = regs_[op->instr.rb];
  CL_NEXT();

a_mov_imm:
  CL_ENTER();
  regs_[op->instr.ra] = op->instr.imm & 0xFFFF;
  CL_NEXT();

a_mov_t:
  CL_ENTER();
  regs_[op->instr.ra] =
      (regs_[op->instr.ra] & 0xFFFF) | (op->instr.imm << 16);
  CL_NEXT();

a_mvn:
  CL_ENTER();
  regs_[op->instr.ra] = ~regs_[op->instr.rb];
  CL_NEXT();

a_add_imm:
  CL_ENTER();
  regs_[op->instr.ra] = regs_[op->instr.rb] + op->instr.imm;
  CL_NEXT();

a_sub_imm:
  CL_ENTER();
  regs_[op->instr.ra] = regs_[op->instr.rb] - op->instr.imm;
  CL_NEXT();

a_add_reg:
  CL_ENTER();
  regs_[op->instr.ra] = regs_[op->instr.rb] + regs_[op->instr.rc];
  CL_NEXT();

a_cmp_imm:
  CL_ENTER();
  zf_ = regs_[op->instr.ra] == op->instr.imm;
  CL_NEXT();

a_load: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  auto value = space_->ReadU32(regs_[op->instr.rb] + op->instr.imm);
  if (!value.ok()) {
    Fault("ldr failed");
    return nullptr;
  }
  regs_[op->instr.ra] = value.value();  // ra != pc by construction
  CL_NEXT();
}

a_store: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  auto status =
      space_->WriteU32(regs_[op->instr.rb] + op->instr.imm, regs_[op->instr.ra]);
  if (!status.ok()) {
    Fault("str failed");
    return nullptr;
  }
  CL_SMC_NEXT();
}

a_load_byte: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  auto value = space_->ReadU8(regs_[op->instr.rb] + op->instr.imm);
  if (!value.ok()) {
    Fault("ldrb failed");
    return nullptr;
  }
  regs_[op->instr.ra] = value.value();
  CL_NEXT();
}

a_store_byte: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  auto status = space_->WriteU8(
      regs_[op->instr.rb] + op->instr.imm,
      static_cast<std::uint8_t>(regs_[op->instr.ra] & 0xFF));
  if (!status.ok()) {
    Fault("strb failed");
    return nullptr;
  }
  CL_SMC_NEXT();
}

a_ldr_lit: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  const mem::GuestAddr addr =
      op->pc_next + static_cast<std::int32_t>(op->instr.imm);
  auto value = space_->ReadU32(addr);
  if (!value.ok()) {
    Fault("ldrl failed");
    return nullptr;
  }
  regs_[op->instr.ra] = value.value();
  CL_NEXT();
}

a_ldr_ind: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  auto value = space_->ReadU32(regs_[op->instr.rb]);
  if (!value.ok()) {
    Fault("ldri failed");
    return nullptr;
  }
  regs_[op->instr.ra] = value.value();
  CL_NEXT();
}

a_push: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);  // push {..., pc} stores the fall-through
  const std::uint16_t mask = op->instr.reg_mask;
  int count = 0;
  for (int i = 0; i < 16; ++i) count += (mask >> i) & 1;
  std::uint32_t addr = regs_[isa::kSP] - 4 * static_cast<std::uint32_t>(count);
  const std::uint32_t new_sp = addr;
  for (int i = 0; i < 16; ++i) {
    if (((mask >> i) & 1) == 0) continue;
    auto status = space_->WriteU32(addr, regs_[i]);
    if (!status.ok()) {
      Fault("push failed");  // sp untouched on failure, earlier stores stand
      return nullptr;
    }
    addr += 4;
  }
  regs_[isa::kSP] = new_sp;
  CL_SMC_NEXT();
}

a_pop: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  const std::uint16_t mask = op->instr.reg_mask;  // bit 15 clear (a_pop_pc)
  std::uint32_t addr = regs_[isa::kSP];
  for (int i = 0; i < 16; ++i) {
    if (((mask >> i) & 1) == 0) continue;
    auto value = space_->ReadU32(addr);
    if (!value.ok()) {
      Fault("pop failed");
      return nullptr;
    }
    addr += 4;
    if (i != isa::kSP) regs_[i] = value.value();  // popping sp: value ignored
  }
  regs_[isa::kSP] = addr;
  CL_NEXT();
}

a_pop_pc: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  const std::uint16_t mask = op->instr.reg_mask;
  std::uint32_t addr = regs_[isa::kSP];
  std::uint32_t new_pc = op->pc_next;
  for (int i = 0; i < 16; ++i) {
    if (((mask >> i) & 1) == 0) continue;
    auto value = space_->ReadU32(addr);
    if (!value.ok()) {
      Fault("pop failed");
      return nullptr;
    }
    addr += 4;
    if (i == isa::kPC) {
      new_pc = value.value();
    } else if (i != isa::kSP) {
      regs_[i] = value.value();
    }
  }
  regs_[isa::kSP] = addr;
  if (!ShadowCheckReturn(new_pc)) {
    OBS_COUNT("defense.cfi_traps");
    PushEvent(EventKind::kCfiViolation, "CFI: return address mismatch");
    RequestStop(StopReason::kCfiViolation, "CFI violation on pop {pc}");
    return nullptr;
  }
  CL_SET_PC_ARM(new_pc);
  return nullptr;
}

a_bl:
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  regs_[isa::kLR] = op->pc_next;
  if (shadow_enabled_) shadow_.push_back(op->pc_next);
  CL_BRANCH(op->pc_next + static_cast<std::int32_t>(op->instr.imm) * 4,
            CL_SET_PC_ARM);

a_blx:
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);  // blx pc / blx lr read the synced values
  regs_[isa::kLR] = op->pc_next;
  if (shadow_enabled_) shadow_.push_back(op->pc_next);
  CL_SET_PC_ARM(regs_[op->instr.ra]);
  return nullptr;

a_bx:
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  CL_SET_PC_ARM(regs_[op->instr.ra]);
  return nullptr;

a_jmp:
  CL_ENTER();
  CL_BRANCH(op->pc_next + static_cast<std::int32_t>(op->instr.imm) * 4,
            CL_SET_PC_ARM);

a_jz:
  CL_ENTER();
  if (zf_) {
    CL_BRANCH(op->pc_next + static_cast<std::int32_t>(op->instr.imm) * 4,
              CL_SET_PC_ARM);
  }
  CL_NEXT();

a_jnz:
  CL_ENTER();
  if (!zf_) {
    CL_BRANCH(op->pc_next + static_cast<std::int32_t>(op->instr.imm) * 4,
              CL_SET_PC_ARM);
  }
  CL_NEXT();

a_syscall: {
  CL_ENTER();
  CL_SET_PC_ARM(op->pc_next);
  util::Status status = DispatchSyscall(*this);
  if (!status.ok() && !stopped()) Fault(status.ToString());
  return nullptr;
}

a_hlt:
  CL_ENTER();
  CL_SET_PC_ARM(op->pc);  // halt leaves pc on the hlt itself
  RequestStop(StopReason::kHalted, "hlt");
  return nullptr;
}

void Cpu::RunCopyPasses(const Superblock& block, const mem::Segment* code,
                        std::uint64_t steps_cap) {
  const SbOp* ops = block.ops.data();
  const isa::Instr& load = ops[2].instr;
  const isa::Instr& store = ops[3].instr;
  const std::uint8_t n = ops[0].instr.ra;
  // Whole passes only while n != 0, with one pass of budget left over.
  std::uint64_t k = std::min<std::uint64_t>(
      regs_[n], (steps_cap - steps_ - kCopyLoopOps) / kCopyLoopOps);
  if (k == 0) return;
  const mem::GuestAddr src = regs_[load.rb] + load.imm;
  const mem::GuestAddr dst = regs_[store.rb] + store.imm;
  const mem::AddressSpace::Extent from =
      space_->Accessible(src, mem::AccessKind::kRead);
  const mem::AddressSpace::Extent to =
      space_->Accessible(dst, mem::AccessKind::kWrite);
  if (to.seg == code) return;  // stores into the block take the SMC exit
  k = std::min<std::uint64_t>({k, from.len, to.len});
  if (k == 0) return;
  const auto len = static_cast<std::uint32_t>(k);
  to.seg->CopyForward(dst, from.seg->SpanAt(src, len).data(), len);

  regs_[load.rb] += len;
  regs_[store.rb] += len;
  regs_[n] -= len;
  regs_[load.ra] = to.seg->At(dst + len - 1);  // the last byte copied
  zf_ = false;                                 // every pass compared n != 0
  steps_ += kCopyLoopOps * k;
  sb_->hits += k;
  sb_->bulk_passes += k;
  if (cov_bitmap_ != nullptr) {
    // Every pass records the same eight edges: a pass starts and ends with
    // cov_prev_ at the closing branch's location.
    std::uint32_t prev = cov_prev_;
    for (std::uint32_t i = 0; i < kCopyLoopOps; ++i) {
      const std::uint32_t index = (ops[i].cov_loc ^ prev) & cov_mask_;
      std::uint8_t& cell = cov_bitmap_[index];
      if (cell == 0) LogCoverageCell(index);
      cell = static_cast<std::uint8_t>(
          std::min<std::uint64_t>(0xFF, cell + k));
      prev = ops[i].cov_loc >> 1;
    }
  }
}

#undef CL_ENTER
#undef CL_NEXT
#undef CL_SMC_NEXT
#undef CL_SET_PC_ARM
#undef CL_SET_PC_X86
#undef CL_CAN_REENTER
#undef CL_BRANCH

}  // namespace connlab::vm
