// Superblock tier: block compilation and the computed-goto executor.
//
// Everything here lives in Cpu member functions so handlers touch the
// register file, address space and coverage state directly. Each handler is
// a dispatcher over its op's one definition in vm/ops.hpp, which the
// interpreter's ExecVX86/ExecVARM (vm/cpu.cpp) dispatch to as well; the tier
// adds only its own work: block formation, pc set before an op that can
// fault, side exits, self-loop re-entry, the mid-block SMC exit and the
// generation, stop, budget and breakpoint checks. tests/test_ops.cpp pins
// the op semantics; tests/test_differential.cpp checks the tier's own work.
#include "src/vm/superblock.hpp"

#include <algorithm>
#include <memory>

#include "src/isa/disasm.hpp"
#include "src/isa/vx86.hpp"
#include "src/vm/cpu.hpp"
#include "src/vm/ops.hpp"

namespace connlab::vm {

namespace {

/// Handler indices into the label table ExecSuperblock hands out in query
/// mode. The order must match the kLabels initializer exactly (enforced by
/// the static_assert next to it).
enum SbHandler : std::uint8_t {
  kHExit = 0,
  kHCopyLoopBranch,  // closing branch of a byte-copy loop, either ISA
  // Both ISAs
  kHMovReg,
  kHAddReg,
  kHCmpImm,
  // VX86
  kHXNop,
  kHXMovImm,
  kHXXorReg,
  kHXAddImm,
  kHXSubImm,
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
  kHAMovImm,
  kHAMovT,
  kHAMvn,
  kHAAddImm,
  kHASubImm,
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
    case Op::kMovReg: return {kHMovReg, false};
    case Op::kXorReg: return {kHXXorReg, false};
    case Op::kAddImm: return {kHXAddImm, false};
    case Op::kSubImm: return {kHXSubImm, false};
    case Op::kAddReg: return {kHAddReg, false};
    case Op::kCmpImm: return {kHCmpImm, false};
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
  // Pure ALU handlers leave pc and r15 stale, so any r15 operand makes
  // them interpreter-only: writing ra == pc is a control transfer, and
  // reading r15 would see the stale value. Handlers that can fault set pc
  // and r15 first, so r15 *sources* are fine there; r15 *destinations*
  // still are not (the interpreter reads r15 back into pc after the op).
  const bool alu_r15 = ins.ra == isa::kPC || ins.rb == isa::kPC ||
                       ins.rc == isa::kPC;
  switch (ins.op) {
    case Op::kMovReg: return alu_r15 ? HandlerPick{} : HandlerPick{kHMovReg, false};
    case Op::kMovImm: return alu_r15 ? HandlerPick{} : HandlerPick{kHAMovImm, false};
    case Op::kMovT: return alu_r15 ? HandlerPick{} : HandlerPick{kHAMovT, false};
    case Op::kMvn: return alu_r15 ? HandlerPick{} : HandlerPick{kHAMvn, false};
    case Op::kAddImm: return alu_r15 ? HandlerPick{} : HandlerPick{kHAAddImm, false};
    case Op::kSubImm: return alu_r15 ? HandlerPick{} : HandlerPick{kHASubImm, false};
    case Op::kAddReg: return alu_r15 ? HandlerPick{} : HandlerPick{kHAddReg, false};
    case Op::kCmpImm: return alu_r15 ? HandlerPick{} : HandlerPick{kHCmpImm, false};
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
  const mem::GuestAddr target = BranchTarget(arch, back.instr, back.pc_next);
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
// An op that can fault, stop or read r15 enters with CL_ENTER_PC_X86/ARM,
// which also move pc, and VARM's r15, to the op's fall-through, as the
// interpreter's set_pc(pc_next) does. Elsewhere pc and r15 are left stale.
#define CL_ENTER()                                                          \
  do {                                                                      \
    if (cov_bitmap_ != nullptr) RecordCoverageEdge(op->cov_loc);            \
    ++steps_;                                                               \
  } while (0)
#define CL_ENTER_PC_X86() \
  do {                    \
    CL_ENTER();           \
    pc_ = op->pc_next;    \
  } while (0)
#define CL_ENTER_PC_ARM()                \
  do {                                   \
    CL_ENTER();                          \
    pc_ = regs_[isa::kPC] = op->pc_next; \
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

// Every per-entry precondition a self-loop re-entry must still meet: block
// store still valid (generation unchanged), nothing stopped, no breakpoints
// to honour, budget for a full pass of the block.
#define CL_CAN_REENTER()                                             \
  (seg->generation() == entry_gen &&                                \
   stop_.reason == StopReason::kRunning && breakpoints_.empty() &&  \
   steps_ + block->count <= steps_cap)

// Direct-branch exit, after the op moved pc (terminators and taken side
// exits alike): a branch back to this block's own entry (the tight-loop
// shape) re-enters threaded code without returning through the dispatch
// loop whenever CL_CAN_REENTER() holds. Anything else hands control back
// to TrySuperblocks.
#define CL_BRANCH()                                  \
  do {                                               \
    if (pc_ == block->entry && CL_CAN_REENTER()) {   \
      ++sb_->hits;                                   \
      op = block->ops.data();                        \
      goto* const_cast<void*>(op->handler);          \
    }                                                \
    return nullptr;                                  \
  } while (0)

const void* const* Cpu::ExecSuperblock(const Superblock* block,
                                       const mem::Segment* seg,
                                       std::uint64_t entry_gen,
                                       std::uint64_t steps_cap) {
  // Label address table, indexed by SbHandler. Built once (function-local
  // static); query mode (block == nullptr) hands it to the block builder.
  static const void* const kLabels[] = {
      &&h_exit, &&h_copy_loop_branch,
      // Both ISAs
      &&s_mov_reg, &&s_add_reg, &&s_cmp_imm,
      // VX86
      &&x_nop, &&x_mov_imm, &&x_xor_reg, &&x_add_imm, &&x_sub_imm, &&x_load,
      &&x_store, &&x_load_byte, &&x_store_byte, &&x_push, &&x_push_imm,
      &&x_pop, &&x_call, &&x_ret, &&x_jmp, &&x_jz, &&x_jnz, &&x_jmp_ind,
      &&x_syscall, &&x_hlt,
      // VARM
      &&a_mov_imm, &&a_mov_t, &&a_mvn, &&a_add_imm, &&a_sub_imm, &&a_load,
      &&a_store, &&a_load_byte, &&a_store_byte, &&a_ldr_lit, &&a_ldr_ind,
      &&a_push, &&a_pop, &&a_pop_pc, &&a_bl, &&a_blx, &&a_bx, &&a_jmp,
      &&a_jz, &&a_jnz, &&a_syscall, &&a_hlt,
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kHandlerCount);
  if (block == nullptr) return kLabels;

  using X = Ops<isa::Arch::kVX86>;
  using A = Ops<isa::Arch::kVARM>;
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

// The ops whose effect is the same on both ISAs (VARM's r15 forms never
// reach them).

s_mov_reg:
  CL_ENTER();
  OpsCommon::MovReg(*this, op->instr);
  CL_NEXT();

s_add_reg:
  CL_ENTER();
  OpsCommon::AddReg(*this, op->instr);
  CL_NEXT();

s_cmp_imm:
  CL_ENTER();
  OpsCommon::CmpImm(*this, op->instr);
  CL_NEXT();

// --- VX86 -------------------------------------------------------------------

x_nop:
  CL_ENTER();
  CL_NEXT();

x_mov_imm:
  CL_ENTER();
  X::MovImm(*this, op->instr);
  CL_NEXT();

x_xor_reg:
  CL_ENTER();
  X::XorReg(*this, op->instr);
  CL_NEXT();

x_add_imm:
  CL_ENTER();
  X::AddImm(*this, op->instr);
  CL_NEXT();

x_sub_imm:
  CL_ENTER();
  X::SubImm(*this, op->instr);
  CL_NEXT();

x_load:
  CL_ENTER_PC_X86();
  if (!X::Load(*this, op->instr)) return nullptr;
  CL_NEXT();

x_store:
  CL_ENTER_PC_X86();
  if (!X::Store(*this, op->instr)) return nullptr;
  CL_SMC_NEXT();

x_load_byte:
  CL_ENTER_PC_X86();
  if (!X::LoadByte(*this, op->instr)) return nullptr;
  CL_NEXT();

x_store_byte:
  CL_ENTER_PC_X86();
  if (!X::StoreByte(*this, op->instr)) return nullptr;
  CL_SMC_NEXT();

x_push:
  CL_ENTER_PC_X86();
  if (!X::PushReg(*this, op->instr)) return nullptr;
  CL_SMC_NEXT();

x_push_imm:
  CL_ENTER_PC_X86();
  if (!X::PushImm(*this, op->instr)) return nullptr;
  CL_SMC_NEXT();

x_pop:
  CL_ENTER_PC_X86();
  if (!X::Pop(*this, op->instr)) return nullptr;
  CL_NEXT();

x_call:
  CL_ENTER_PC_X86();
  if (!X::Call(*this, op->instr, op->pc_next)) return nullptr;
  CL_BRANCH();  // a self-call re-enters: recursion is the tight-loop shape

x_ret:
  CL_ENTER_PC_X86();
  X::Ret(*this);
  return nullptr;

x_jmp:
  CL_ENTER();
  X::Jmp(*this, op->instr, op->pc_next);
  CL_BRANCH();

// Conditional branches are side exits: taken leaves through CL_BRANCH,
// not taken falls through to the next op (or the exit sentinel).
x_jz:
  CL_ENTER();
  if (X::Jz(*this, op->instr, op->pc_next)) CL_BRANCH();
  CL_NEXT();

x_jnz:
  CL_ENTER();
  if (X::Jnz(*this, op->instr, op->pc_next)) CL_BRANCH();
  CL_NEXT();

x_jmp_ind:
  CL_ENTER_PC_X86();
  X::JmpInd(*this, op->instr);
  return nullptr;

x_syscall:
  CL_ENTER_PC_X86();
  X::Syscall(*this);
  return nullptr;

x_hlt:
  CL_ENTER();
  X::Hlt(*this, op->instr, op->pc_next);
  return nullptr;

// --- VARM -------------------------------------------------------------------

a_mov_imm:
  CL_ENTER();
  A::MovImm(*this, op->instr);
  CL_NEXT();

a_mov_t:
  CL_ENTER();
  A::MovT(*this, op->instr);
  CL_NEXT();

a_mvn:
  CL_ENTER();
  A::Mvn(*this, op->instr);
  CL_NEXT();

a_add_imm:
  CL_ENTER();
  A::AddImm(*this, op->instr);
  CL_NEXT();

a_sub_imm:
  CL_ENTER();
  A::SubImm(*this, op->instr);
  CL_NEXT();

a_load:
  CL_ENTER_PC_ARM();
  if (!A::Load(*this, op->instr)) return nullptr;
  CL_NEXT();

a_store:
  CL_ENTER_PC_ARM();
  if (!A::Store(*this, op->instr)) return nullptr;
  CL_SMC_NEXT();

a_load_byte:
  CL_ENTER_PC_ARM();
  if (!A::LoadByte(*this, op->instr)) return nullptr;
  CL_NEXT();

a_store_byte:
  CL_ENTER_PC_ARM();
  if (!A::StoreByte(*this, op->instr)) return nullptr;
  CL_SMC_NEXT();

a_ldr_lit:
  CL_ENTER_PC_ARM();
  if (!A::LdrLit(*this, op->instr, op->pc_next)) return nullptr;
  CL_NEXT();

a_ldr_ind:
  CL_ENTER_PC_ARM();
  if (!A::LdrInd(*this, op->instr)) return nullptr;
  CL_NEXT();

a_push:
  CL_ENTER_PC_ARM();
  if (!A::PushList(*this, op->instr)) return nullptr;
  CL_SMC_NEXT();

a_pop:  // no pc in the list (a_pop_pc)
  CL_ENTER_PC_ARM();
  if (!A::PopList(*this, op->instr)) return nullptr;
  CL_NEXT();

a_pop_pc:
  CL_ENTER_PC_ARM();
  A::PopList(*this, op->instr);
  return nullptr;

a_bl:
  CL_ENTER();
  A::Bl(*this, op->instr, op->pc_next);
  CL_BRANCH();

a_blx:
  CL_ENTER_PC_ARM();  // blx pc reads it
  A::Blx(*this, op->instr, op->pc_next);
  return nullptr;

a_bx:
  CL_ENTER_PC_ARM();  // bx pc reads it
  A::Bx(*this, op->instr);
  return nullptr;

a_jmp:
  CL_ENTER();
  A::Jmp(*this, op->instr, op->pc_next);
  CL_BRANCH();

a_jz:
  CL_ENTER();
  if (A::Jz(*this, op->instr, op->pc_next)) CL_BRANCH();
  CL_NEXT();

a_jnz:
  CL_ENTER();
  if (A::Jnz(*this, op->instr, op->pc_next)) CL_BRANCH();
  CL_NEXT();

a_syscall:
  CL_ENTER_PC_ARM();
  A::Syscall(*this);
  return nullptr;

a_hlt:
  CL_ENTER();
  A::Hlt(*this, op->instr, op->pc_next);
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
#undef CL_ENTER_PC_X86
#undef CL_ENTER_PC_ARM
#undef CL_NEXT
#undef CL_SMC_NEXT
#undef CL_CAN_REENTER
#undef CL_BRANCH

}  // namespace connlab::vm
