// Per-op golden tests: the oracle for the VM's op semantics.
//
// Every op each ISA executes, and its faulting and edge forms, runs on the
// plain interpreter and on the superblock tier. Both runs must leave the
// outcome written here by hand from the encoding tables in src/isa/vx86.hpp
// and src/isa/varm.hpp: every register, pc, zf, retired steps, every byte
// of guest memory, the shadow stack, the event log and the full stop record
// (reason, pc, detail, exit code, fault kind, address and text). No outcome
// is captured from a run, so a semantics edit fails here even when both
// tiers make it alike.
//
// Layout of every case:
//   .text   0x1000 r-x   `filler; op...; hlt`, with a lone hlt at 0x1100
//   .rodata 0x3000 r--
//   .data   0x4000 rw-
//   stack   0x8000 rw-   sp = 0x9000
// 0x2000 and 0x6000 are unmapped. The filler (VX86 `nop`, VARM `mov r1, r1`)
// puts the op second in its block, so the op is at 0x1001 on VX86 and at
// 0x1004 on VARM. Registers start at zero (sp aside), zf clear and the
// shadow stack off. VARM's r15 always reads the pc.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/isa/varm.hpp"
#include "src/isa/vx86.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/cpu.hpp"

namespace connlab::vm {
namespace {

using isa::Arch;
using mem::AccessKind;
namespace x = isa::vx86;
namespace v = isa::varm;

constexpr mem::GuestAddr kTarget = 0x1100;  // the lone hlt branches land on

/// One case: the start state besides the layout above, and its outcome.
struct Golden {
  explicit Golden(Arch a) : arch(a) {}

  Arch arch;
  util::ByteWriter code;  // the op under test; the hlt is appended after it
  mem::Perm text_perm = mem::kPermRX;
  std::map<std::uint8_t, std::uint32_t> regs;
  bool zf = false;
  bool cfi = false;                   // the shadow stack is on
  std::vector<std::uint32_t> shadow;  // its entries at the start
  std::vector<std::pair<mem::GuestAddr, util::Bytes>> plant;

  // The outcome: the registers and the memory bytes the op changes, and zf
  // and the shadow stack when they change.
  std::map<std::uint8_t, std::uint32_t> want_regs;
  std::vector<std::pair<mem::GuestAddr, util::Bytes>> want_mem;
  std::optional<bool> want_zf;
  std::optional<std::vector<std::uint32_t>> want_shadow;
  std::vector<std::string> want_events;
  std::uint64_t want_cfi_traps = 0;
  std::uint32_t want_pc = 0;
  std::uint64_t want_steps = 0;
  StopReason want_reason = StopReason::kHalted;
  std::string want_detail;
  std::uint32_t want_exit_code = 0;
  std::optional<mem::FaultInfo> want_fault;
  /// A superblock handler retires the op. Off for the VARM r15 forms that
  /// block formation leaves to the interpreter.
  bool tier = true;

  /// The run ends on the hlt at `pc` after `steps` steps.
  void Halts(std::uint32_t pc, std::uint64_t steps) {
    want_pc = pc;
    want_steps = steps;
    want_reason = StopReason::kHalted;
    want_detail = "hlt";
  }
  /// The op faults with `detail`: the filler and the op retired, pc is the
  /// op's fall-through, and the fault record is (kind, addr, text).
  void Faults(std::uint32_t pc, std::string detail, AccessKind kind,
              mem::GuestAddr addr, std::string text) {
    want_pc = pc;
    want_steps = 2;
    want_reason = StopReason::kFault;
    want_detail = std::move(detail);
    want_fault = mem::FaultInfo{kind, addr, std::move(text)};
  }
};

util::Bytes Hlt(Arch arch) {
  util::ByteWriter w;
  if (arch == Arch::kVX86) {
    x::EncHlt(w);
  } else {
    v::EncHlt(w);
  }
  return w.bytes();
}

/// Patches `bytes` at guest address `addr` into the segment images.
void Patch(const mem::AddressSpace& space, std::vector<util::Bytes>& images,
           mem::GuestAddr addr, const util::Bytes& bytes) {
  for (std::size_t i = 0; i < space.segments().size(); ++i) {
    const mem::Segment& seg = *space.segments()[i];
    if (!seg.ContainsRange(addr, static_cast<std::uint32_t>(bytes.size()))) {
      continue;
    }
    std::copy(bytes.begin(), bytes.end(),
              images[i].begin() + (addr - seg.base()));
    return;
  }
  ADD_FAILURE() << "no segment holds " << addr;
}

std::uint64_t Counter(const obs::Scope& scope, const std::string& name) {
  const auto counters = scope.Metrics().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// Runs `g` on the interpreter and on the superblock tier, and checks each
/// run against the outcome `g` gives.
void Expect(const Golden& g) {
  for (const bool superblocks : {false, true}) {
    SCOPED_TRACE(superblocks ? "superblock tier" : "interpreter");
    obs::Scope scope;
    {
      mem::AddressSpace space;
      ASSERT_TRUE(space.Map(".text", 0x1000, 0x1000, g.text_perm).ok());
      ASSERT_TRUE(space.Map(".rodata", 0x3000, 0x1000, mem::kPermR).ok());
      ASSERT_TRUE(space.Map(".data", 0x4000, 0x1000, mem::kPermRW).ok());
      ASSERT_TRUE(space.Map("stack", 0x8000, 0x1000, mem::kPermRW).ok());
      util::ByteWriter text;
      if (g.arch == Arch::kVX86) {
        x::EncNop(text);
      } else {
        v::EncNop(text);
      }
      text.WriteBytes(g.code.bytes());
      text.WriteBytes(Hlt(g.arch));
      ASSERT_TRUE(space.DebugWrite(0x1000, text.bytes()).ok());
      ASSERT_TRUE(space.DebugWrite(kTarget, Hlt(g.arch)).ok());
      for (const auto& [addr, bytes] : g.plant) {
        ASSERT_TRUE(space.DebugWrite(addr, bytes).ok());
      }
      std::vector<util::Bytes> want_images;
      for (const auto& seg : space.segments()) {
        want_images.push_back(seg->data());
      }
      for (const auto& [addr, bytes] : g.want_mem) {
        Patch(space, want_images, addr, bytes);
      }

      Cpu cpu(g.arch, space, {.superblocks = superblocks});
      cpu.set_pc(0x1000);
      cpu.set_sp(0x9000);
      for (const auto& [reg, value] : g.regs) cpu.set_reg(reg, value);
      cpu.set_zf(g.zf);
      cpu.set_shadow_stack_enabled(g.cfi);
      for (const std::uint32_t entry : g.shadow) cpu.ShadowPush(entry);

      std::array<std::uint32_t, 16> want_regs{};
      want_regs[g.arch == Arch::kVX86 ? std::uint8_t{isa::kESP}
                                         : std::uint8_t{isa::kSP}] = 0x9000;
      for (const auto& [reg, value] : g.regs) want_regs[reg] = value;
      for (const auto& [reg, value] : g.want_regs) want_regs[reg] = value;
      if (g.arch == Arch::kVARM) want_regs[isa::kPC] = g.want_pc;

      const StopInfo stop = cpu.Run(1000);
      for (std::uint8_t i = 0; i < 16; ++i) {
        EXPECT_EQ(cpu.reg(i), want_regs[i]) << "register " << int{i};
      }
      EXPECT_EQ(cpu.pc(), g.want_pc);
      EXPECT_EQ(cpu.zf(), g.want_zf.value_or(g.zf));
      EXPECT_EQ(stop.reason, g.want_reason);
      EXPECT_EQ(stop.pc, g.want_pc);
      EXPECT_EQ(stop.detail, g.want_detail);
      EXPECT_EQ(stop.steps, g.want_steps);
      EXPECT_EQ(stop.exit_code, g.want_exit_code);
      ASSERT_EQ(stop.fault.has_value(), g.want_fault.has_value());
      if (stop.fault.has_value()) {
        EXPECT_EQ(stop.fault->kind, g.want_fault->kind);
        EXPECT_EQ(stop.fault->addr, g.want_fault->addr);
        EXPECT_EQ(stop.fault->detail, g.want_fault->detail);
      }
      for (std::size_t i = 0; i < space.segments().size(); ++i) {
        EXPECT_TRUE(space.segments()[i]->data() == want_images[i])
            << "segment " << space.segments()[i]->name();
      }
      EXPECT_EQ(cpu.SaveState().shadow, g.want_shadow.value_or(g.shadow));
      std::vector<std::string> events;
      for (const Event& e : cpu.events()) events.push_back(e.ToString());
      EXPECT_EQ(events, g.want_events);
    }  // ~Cpu flushes the batched counters
    EXPECT_EQ(Counter(scope, "defense.cfi_traps"), g.want_cfi_traps);
    // Tier residency, exactly: on the tier a block retires every step (a
    // one-op block is a block, the hlts included), apart from the op itself
    // when it is one of the VARM r15 forms only the interpreter runs.
    if (superblocks) {
      EXPECT_EQ(Counter(scope, "vm.steps.interp"), g.tier ? 0u : 1u);
    } else {
      EXPECT_EQ(Counter(scope, "vm.steps.superblock"), 0u);
    }
  }
}

Golden X86() { return Golden(Arch::kVX86); }
Golden Arm() { return Golden(Arch::kVARM); }

// --- VX86: one case per op (op at 0x1001) ------------------------------------

TEST(OpGoldenVX86, Nop) {
  Golden g = X86();
  x::EncNop(g.code);
  g.Halts(0x1002, 3);
  Expect(g);
}

TEST(OpGoldenVX86, MovImm) {
  Golden g = X86();
  x::EncMovImm(g.code, isa::kEAX, 0x12345678);
  g.want_regs = {{isa::kEAX, 0x12345678}};
  g.Halts(0x1007, 3);
  Expect(g);
}

TEST(OpGoldenVX86, MovReg) {
  Golden g = X86();
  x::EncMovReg(g.code, isa::kECX, isa::kEBX);
  g.regs = {{isa::kEBX, 0xCAFEBABE}};
  g.want_regs = {{isa::kECX, 0xCAFEBABE}};
  g.Halts(0x1004, 3);
  Expect(g);
}

TEST(OpGoldenVX86, XorReg) {
  Golden g = X86();
  x::EncXorReg(g.code, isa::kEAX, isa::kEBX);
  g.regs = {{isa::kEAX, 0xF0F0F0F0}, {isa::kEBX, 0xFF00FF00}};
  g.want_regs = {{isa::kEAX, 0x0FF00FF0}};
  g.Halts(0x1004, 3);
  Expect(g);
}

TEST(OpGoldenVX86, AddImmWraps) {
  Golden g = X86();
  x::EncAddImm(g.code, isa::kEAX, 0x10);
  g.regs = {{isa::kEAX, 0xFFFFFFF8}};
  g.want_regs = {{isa::kEAX, 0x00000008}};
  g.Halts(0x1007, 3);
  Expect(g);
}

TEST(OpGoldenVX86, SubImmWraps) {
  Golden g = X86();
  x::EncSubImm(g.code, isa::kEAX, 0x10);
  g.regs = {{isa::kEAX, 0x8}};
  g.want_regs = {{isa::kEAX, 0xFFFFFFF8}};
  g.Halts(0x1007, 3);
  Expect(g);
}

TEST(OpGoldenVX86, AddReg) {
  Golden g = X86();
  x::EncAddReg(g.code, isa::kEAX, isa::kEBX, isa::kECX);
  g.regs = {{isa::kEBX, 0x11111111}, {isa::kECX, 0x22222222}};
  g.want_regs = {{isa::kEAX, 0x33333333}};
  g.Halts(0x1005, 3);
  Expect(g);
}

TEST(OpGoldenVX86, CmpImmSetsZf) {
  Golden g = X86();
  x::EncCmpImm(g.code, isa::kEAX, 0x42);
  g.regs = {{isa::kEAX, 0x42}};
  g.want_zf = true;
  g.Halts(0x1007, 3);
  Expect(g);
}

TEST(OpGoldenVX86, Load) {
  Golden g = X86();
  x::EncLoad(g.code, isa::kEAX, isa::kEBX, 8);
  g.regs = {{isa::kEBX, 0x4000}};
  g.plant = {{0x4008, {0x44, 0x33, 0x22, 0x11}}};
  g.want_regs = {{isa::kEAX, 0x11223344}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVX86, Store) {
  Golden g = X86();
  x::EncStore(g.code, isa::kEAX, isa::kEBX, 8);
  g.regs = {{isa::kEAX, 0x11223344}, {isa::kEBX, 0x4000}};
  g.want_mem = {{0x4008, {0x44, 0x33, 0x22, 0x11}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVX86, LoadByteZeroExtends) {
  Golden g = X86();
  x::EncLoadByte(g.code, isa::kEAX, isa::kEBX, 9);
  g.regs = {{isa::kEAX, 0xFFFFFFFF}, {isa::kEBX, 0x4000}};
  g.plant = {{0x4009, {0xAB}}};
  g.want_regs = {{isa::kEAX, 0xAB}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVX86, StoreByteTruncates) {
  Golden g = X86();
  x::EncStoreByte(g.code, isa::kEAX, isa::kEBX, 9);
  g.regs = {{isa::kEAX, 0x123456AB}, {isa::kEBX, 0x4000}};
  g.want_mem = {{0x4009, {0xAB}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVX86, PushReg) {
  Golden g = X86();
  x::EncPushReg(g.code, isa::kEAX);
  g.regs = {{isa::kEAX, 0xDEADBEEF}};
  g.want_regs = {{isa::kESP, 0x8FFC}};
  g.want_mem = {{0x8FFC, {0xEF, 0xBE, 0xAD, 0xDE}}};
  g.Halts(0x1003, 3);
  Expect(g);
}

TEST(OpGoldenVX86, PushImm) {
  Golden g = X86();
  x::EncPushImm(g.code, 0x01020304);
  g.want_regs = {{isa::kESP, 0x8FFC}};
  g.want_mem = {{0x8FFC, {0x04, 0x03, 0x02, 0x01}}};
  g.Halts(0x1006, 3);
  Expect(g);
}

TEST(OpGoldenVX86, PopReg) {
  Golden g = X86();
  x::EncPopReg(g.code, isa::kEAX);
  g.regs = {{isa::kESP, 0x8FFC}};
  g.plant = {{0x8FFC, {0x78, 0x56, 0x34, 0x12}}};
  g.want_regs = {{isa::kEAX, 0x12345678}, {isa::kESP, 0x9000}};
  g.Halts(0x1003, 3);
  Expect(g);
}

TEST(OpGoldenVX86, CallPushesReturnAndShadow) {
  Golden g = X86();
  x::EncCall(g.code, kTarget);  // returns to 0x1006
  g.cfi = true;
  g.want_regs = {{isa::kESP, 0x8FFC}};
  g.want_mem = {{0x8FFC, {0x06, 0x10, 0x00, 0x00}}};
  g.want_shadow = std::vector<std::uint32_t>{0x1006};
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVX86, RetPopsMatchingShadow) {
  Golden g = X86();
  x::EncRet(g.code);
  g.cfi = true;
  g.shadow = {kTarget};
  g.regs = {{isa::kESP, 0x8FFC}};
  g.plant = {{0x8FFC, {0x00, 0x11, 0x00, 0x00}}};
  g.want_regs = {{isa::kESP, 0x9000}};
  g.want_shadow = std::vector<std::uint32_t>{};
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVX86, Jmp) {
  Golden g = X86();
  x::EncJmp(g.code, kTarget);
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVX86, JzTaken) {
  Golden g = X86();
  x::EncJz(g.code, kTarget);
  g.zf = true;
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVX86, JnzTaken) {
  Golden g = X86();
  x::EncJnz(g.code, kTarget);
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVX86, JmpIndirect) {
  Golden g = X86();
  x::EncJmpInd(g.code, 0x4010);
  g.plant = {{0x4010, {0x00, 0x11, 0x00, 0x00}}};
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVX86, SyscallExit) {
  Golden g = X86();
  x::EncSyscall(g.code);
  g.regs = {{isa::kEAX, 1}, {isa::kEBX, 7}};
  g.want_pc = 0x1002;
  g.want_steps = 2;
  g.want_reason = StopReason::kExited;
  g.want_detail = "exit syscall";
  g.want_exit_code = 7;
  g.want_events = {"[step 2 pc=0x00001002] exit: exit(7)"};
  Expect(g);
}

TEST(OpGoldenVX86, HltLeavesPcOnItself) {
  Golden g = X86();
  x::EncHlt(g.code);
  g.Halts(0x1001, 2);
  Expect(g);
}

// --- VX86: faulting and edge forms ------------------------------------------

TEST(OpGoldenVX86, JzNotTaken) {
  Golden g = X86();
  x::EncJz(g.code, kTarget);
  g.Halts(0x1006, 3);
  Expect(g);
}

TEST(OpGoldenVX86, JnzNotTaken) {
  Golden g = X86();
  x::EncJnz(g.code, kTarget);
  g.zf = true;
  g.Halts(0x1006, 3);
  Expect(g);
}

TEST(OpGoldenVX86, CmpImmClearsZf) {
  Golden g = X86();
  x::EncCmpImm(g.code, isa::kEAX, 0x42);
  g.regs = {{isa::kEAX, 0x41}};
  g.zf = true;
  g.want_zf = false;
  g.Halts(0x1007, 3);
  Expect(g);
}

TEST(OpGoldenVX86, LoadUnmappedFaults) {
  Golden g = X86();
  x::EncLoad(g.code, isa::kEAX, isa::kEBX, 4);
  g.regs = {{isa::kEBX, 0x5FFC}};
  g.Faults(0x1008, "load failed", AccessKind::kRead, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVX86, StoreUnmappedFaults) {
  Golden g = X86();
  x::EncStore(g.code, isa::kEAX, isa::kEBX, 0);
  g.regs = {{isa::kEBX, 0x6000}};
  g.Faults(0x1008, "store failed", AccessKind::kWrite, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVX86, StoreReadOnlyFaults) {
  Golden g = X86();
  x::EncStore(g.code, isa::kEAX, isa::kEBX, 0);
  g.regs = {{isa::kEBX, 0x3000}};
  g.Faults(0x1008, "store failed", AccessKind::kWrite, 0x3000,
           "no write permission on .rodata (r--) at 0x00003000");
  Expect(g);
}

TEST(OpGoldenVX86, LoadByteUnmappedFaults) {
  Golden g = X86();
  x::EncLoadByte(g.code, isa::kEAX, isa::kEBX, 0);
  g.regs = {{isa::kEBX, 0x6000}};
  g.Faults(0x1008, "ldrb failed", AccessKind::kRead, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVX86, StoreByteUnmappedFaults) {
  Golden g = X86();
  x::EncStoreByte(g.code, isa::kEAX, isa::kEBX, 0);
  g.regs = {{isa::kEBX, 0x6000}};
  g.Faults(0x1008, "strb failed", AccessKind::kWrite, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVX86, StoreByteReadOnlyFaults) {
  Golden g = X86();
  x::EncStoreByte(g.code, isa::kEAX, isa::kEBX, 0);
  g.regs = {{isa::kEBX, 0x3000}};
  g.Faults(0x1008, "strb failed", AccessKind::kWrite, 0x3000,
           "no write permission on .rodata (r--) at 0x00003000");
  Expect(g);
}

TEST(OpGoldenVX86, PushOffTheStackFaults) {
  Golden g = X86();
  x::EncPushReg(g.code, isa::kEAX);
  g.regs = {{isa::kESP, 0x8000}};
  g.Faults(0x1003, "push failed", AccessKind::kWrite, 0x7FFC,
           "unmapped address 0x00007ffc");
  Expect(g);
}

TEST(OpGoldenVX86, PushImmOffTheStackFaults) {
  Golden g = X86();
  x::EncPushImm(g.code, 0x01020304);
  g.regs = {{isa::kESP, 0x8000}};
  g.Faults(0x1006, "push failed", AccessKind::kWrite, 0x7FFC,
           "unmapped address 0x00007ffc");
  Expect(g);
}

TEST(OpGoldenVX86, PopOffTheStackFaults) {
  Golden g = X86();
  x::EncPopReg(g.code, isa::kEAX);
  g.Faults(0x1003, "pop failed", AccessKind::kRead, 0x9000,
           "unmapped address 0x00009000");
  Expect(g);
}

TEST(OpGoldenVX86, CallOffTheStackFaultsBeforeTheShadowPush) {
  Golden g = X86();
  x::EncCall(g.code, kTarget);
  g.cfi = true;
  g.regs = {{isa::kESP, 0x8000}};
  g.Faults(0x1006, "call push failed", AccessKind::kWrite, 0x7FFC,
           "unmapped address 0x00007ffc");
  Expect(g);
}

TEST(OpGoldenVX86, RetOffTheStackFaults) {
  Golden g = X86();
  x::EncRet(g.code);
  g.Faults(0x1002, "ret pop failed", AccessKind::kRead, 0x9000,
           "unmapped address 0x00009000");
  Expect(g);
}

TEST(OpGoldenVX86, RetAgainstMismatchingShadowTraps) {
  Golden g = X86();
  x::EncRet(g.code);
  g.cfi = true;
  g.shadow = {0x2222};
  g.regs = {{isa::kESP, 0x8FFC}};
  g.plant = {{0x8FFC, {0x00, 0x11, 0x00, 0x00}}};
  g.want_regs = {{isa::kESP, 0x9000}};
  g.want_pc = 0x1002;
  g.want_steps = 2;
  g.want_reason = StopReason::kCfiViolation;
  g.want_detail = "CFI violation on ret";
  g.want_events = {
      "[step 2 pc=0x00001002] cfi-violation: CFI: return address mismatch"};
  g.want_cfi_traps = 1;
  Expect(g);
}

TEST(OpGoldenVX86, JmpIndirectThroughUnmappedFaults) {
  Golden g = X86();
  x::EncJmpInd(g.code, 0x6000);
  g.Faults(0x1006, "indirect jump load failed", AccessKind::kRead, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVX86, UnknownSyscallFaults) {
  Golden g = X86();
  x::EncSyscall(g.code);
  g.regs = {{isa::kEAX, 99}};
  g.want_pc = 0x1002;
  g.want_steps = 2;
  g.want_reason = StopReason::kFault;
  g.want_detail = "INVALID_ARGUMENT: unknown syscall 99";
  Expect(g);
}

TEST(OpGoldenVX86, StoreIntoTheRunningBlockRunsThePatchedBytes) {
  Golden g = X86();
  x::EncStore(g.code, isa::kEAX, isa::kEBX, 0);  // 0x1001
  x::EncMovImm(g.code, isa::kECX, 0x11111111);   // 0x1008, patched
  g.text_perm = mem::kPermRWX;
  g.regs = {{isa::kEAX, 0x0F0F0F0F}, {isa::kEBX, 0x1008}};  // four hlts
  g.want_mem = {{0x1008, {0x0F, 0x0F, 0x0F, 0x0F}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVX86, PopEspTakesThePoppedValue) {
  Golden g = X86();
  x::EncPopReg(g.code, isa::kESP);
  g.regs = {{isa::kESP, 0x8FFC}};
  g.plant = {{0x8FFC, {0x44, 0x44, 0x00, 0x00}}};
  g.want_regs = {{isa::kESP, 0x4444}};
  g.Halts(0x1003, 3);
  Expect(g);
}

// --- VARM: one case per op (op at 0x1004, fall-through 0x1008) ---------------

TEST(OpGoldenVARM, MovReg) {
  Golden g = Arm();
  v::EncMovReg(g.code, isa::kR2, isa::kR3);
  g.regs = {{isa::kR3, 0xCAFEBABE}};
  g.want_regs = {{isa::kR2, 0xCAFEBABE}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, MovW) {
  Golden g = Arm();
  v::EncMovW(g.code, isa::kR2, 0xBEEF);
  g.want_regs = {{isa::kR2, 0x0000BEEF}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, MovTKeepsTheLowHalf) {
  Golden g = Arm();
  v::EncMovT(g.code, isa::kR2, 0xBEEF);
  g.regs = {{isa::kR2, 0x12345678}};
  g.want_regs = {{isa::kR2, 0xBEEF5678}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, Mvn) {
  Golden g = Arm();
  v::EncMvn(g.code, isa::kR2, isa::kR3);
  g.regs = {{isa::kR3, 0x0F0F0F0F}};
  g.want_regs = {{isa::kR2, 0xF0F0F0F0}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, AddImm) {
  Golden g = Arm();
  v::EncAddImm(g.code, isa::kR2, isa::kR3, 5);
  g.regs = {{isa::kR3, 0x100}};
  g.want_regs = {{isa::kR2, 0x105}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, SubImm) {
  Golden g = Arm();
  v::EncSubImm(g.code, isa::kR2, isa::kR3, 5);
  g.regs = {{isa::kR3, 0x100}};
  g.want_regs = {{isa::kR2, 0xFB}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, AddReg) {
  Golden g = Arm();
  v::EncAddReg(g.code, isa::kR2, isa::kR3, isa::kR4);
  g.regs = {{isa::kR3, 0x11111111}, {isa::kR4, 0x22222222}};
  g.want_regs = {{isa::kR2, 0x33333333}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, CmpImmSetsZf) {
  Golden g = Arm();
  v::EncCmpImm(g.code, isa::kR2, 7);
  g.regs = {{isa::kR2, 7}};
  g.want_zf = true;
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, Ldr) {
  Golden g = Arm();
  v::EncLdr(g.code, isa::kR2, isa::kR3, 8);
  g.regs = {{isa::kR3, 0x4000}};
  g.plant = {{0x4008, {0x44, 0x33, 0x22, 0x11}}};
  g.want_regs = {{isa::kR2, 0x11223344}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, Str) {
  Golden g = Arm();
  v::EncStr(g.code, isa::kR2, isa::kR3, 8);
  g.regs = {{isa::kR2, 0x11223344}, {isa::kR3, 0x4000}};
  g.want_mem = {{0x4008, {0x44, 0x33, 0x22, 0x11}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, LdrbZeroExtends) {
  Golden g = Arm();
  v::EncLdrb(g.code, isa::kR2, isa::kR3, 9);
  g.regs = {{isa::kR2, 0xFFFFFFFF}, {isa::kR3, 0x4000}};
  g.plant = {{0x4009, {0xAB}}};
  g.want_regs = {{isa::kR2, 0xAB}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, StrbTruncates) {
  Golden g = Arm();
  v::EncStrb(g.code, isa::kR2, isa::kR3, 9);
  g.regs = {{isa::kR2, 0x123456AB}, {isa::kR3, 0x4000}};
  g.want_mem = {{0x4009, {0xAB}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, LdrLitReadsFromTheFallThrough) {
  Golden g = Arm();
  v::EncLdrLit(g.code, isa::kR2, 4);  // 0x1008 + 4
  g.plant = {{0x100C, {0x44, 0x33, 0x22, 0x11}}};
  g.want_regs = {{isa::kR2, 0x11223344}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, LdrInd) {
  Golden g = Arm();
  v::EncLdrInd(g.code, isa::kR2, isa::kR3);
  g.regs = {{isa::kR3, 0x4010}};
  g.plant = {{0x4010, {0x78, 0x56, 0x34, 0x12}}};
  g.want_regs = {{isa::kR2, 0x12345678}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, PushStoresLowestRegisterLowest) {
  Golden g = Arm();
  v::EncPush(g.code, v::Mask({isa::kR2, isa::kR4, isa::kLR}));
  g.regs = {{isa::kR2, 0x22}, {isa::kR4, 0x44}, {isa::kLR, 0x14E}};
  g.want_regs = {{isa::kSP, 0x8FF4}};
  g.want_mem = {{0x8FF4, {0x22, 0, 0, 0, 0x44, 0, 0, 0, 0x4E, 0x01, 0, 0}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, Pop) {
  Golden g = Arm();
  v::EncPop(g.code, v::Mask({isa::kR2, isa::kR4}));
  g.regs = {{isa::kSP, 0x8FF8}};
  g.plant = {{0x8FF8, {0x22, 0x22, 0x22, 0x22, 0x44, 0x44, 0x44, 0x44}}};
  g.want_regs = {{isa::kR2, 0x22222222}, {isa::kR4, 0x44444444},
                 {isa::kSP, 0x9000}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, PopPcPopsMatchingShadow) {
  Golden g = Arm();
  v::EncPop(g.code, v::Mask({isa::kR4, isa::kPC}));
  g.cfi = true;
  g.shadow = {kTarget};
  g.regs = {{isa::kSP, 0x8FF8}};
  g.plant = {{0x8FF8, {0x44, 0, 0, 0, 0x00, 0x11, 0, 0}}};
  g.want_regs = {{isa::kR4, 0x44}, {isa::kSP, 0x9000}};
  g.want_shadow = std::vector<std::uint32_t>{};
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVARM, BlLinksAndPushesShadow) {
  Golden g = Arm();
  v::EncBl(g.code, 62);  // 0x1008 + 62 * 4 = 0x1100
  g.cfi = true;
  g.want_regs = {{isa::kLR, 0x1008}};
  g.want_shadow = std::vector<std::uint32_t>{0x1008};
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVARM, BlxLinksAndPushesShadow) {
  Golden g = Arm();
  v::EncBlx(g.code, isa::kR3);
  g.cfi = true;
  g.regs = {{isa::kR3, kTarget}};
  g.want_regs = {{isa::kLR, 0x1008}};
  g.want_shadow = std::vector<std::uint32_t>{0x1008};
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVARM, Bx) {
  Golden g = Arm();
  v::EncBx(g.code, isa::kR3);
  g.regs = {{isa::kR3, kTarget}};
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVARM, B) {
  Golden g = Arm();
  v::EncB(g.code, 62);
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVARM, BeqTaken) {
  Golden g = Arm();
  v::EncBeq(g.code, 62);
  g.zf = true;
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVARM, BneTaken) {
  Golden g = Arm();
  v::EncBne(g.code, 62);
  g.Halts(kTarget, 3);
  Expect(g);
}

TEST(OpGoldenVARM, SyscallExit) {
  Golden g = Arm();
  v::EncSyscall(g.code);
  g.regs = {{isa::kR7, 1}, {isa::kR0, 7}};
  g.want_pc = 0x1008;
  g.want_steps = 2;
  g.want_reason = StopReason::kExited;
  g.want_detail = "exit syscall";
  g.want_exit_code = 7;
  g.want_events = {"[step 2 pc=0x00001008] exit: exit(7)"};
  Expect(g);
}

TEST(OpGoldenVARM, HltLeavesPcOnItself) {
  Golden g = Arm();
  v::EncHlt(g.code);
  g.Halts(0x1004, 2);
  Expect(g);
}

// --- VARM: faulting and edge forms ------------------------------------------

TEST(OpGoldenVARM, BeqNotTaken) {
  Golden g = Arm();
  v::EncBeq(g.code, 62);
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, BneNotTaken) {
  Golden g = Arm();
  v::EncBne(g.code, 62);
  g.zf = true;
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, CmpImmClearsZf) {
  Golden g = Arm();
  v::EncCmpImm(g.code, isa::kR2, 7);
  g.regs = {{isa::kR2, 6}};
  g.zf = true;
  g.want_zf = false;
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, MovWClearsTheTopHalf) {
  Golden g = Arm();
  v::EncMovW(g.code, isa::kR2, 0xBEEF);
  g.regs = {{isa::kR2, 0x12345678}};
  g.want_regs = {{isa::kR2, 0x0000BEEF}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, LdrUnmappedFaults) {
  Golden g = Arm();
  v::EncLdr(g.code, isa::kR2, isa::kR3, 4);
  g.regs = {{isa::kR3, 0x5FFC}};
  g.Faults(0x1008, "ldr failed", AccessKind::kRead, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVARM, StrUnmappedFaults) {
  Golden g = Arm();
  v::EncStr(g.code, isa::kR2, isa::kR3, 0);
  g.regs = {{isa::kR3, 0x6000}};
  g.Faults(0x1008, "str failed", AccessKind::kWrite, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVARM, StrReadOnlyFaults) {
  Golden g = Arm();
  v::EncStr(g.code, isa::kR2, isa::kR3, 0);
  g.regs = {{isa::kR3, 0x3000}};
  g.Faults(0x1008, "str failed", AccessKind::kWrite, 0x3000,
           "no write permission on .rodata (r--) at 0x00003000");
  Expect(g);
}

TEST(OpGoldenVARM, LdrbUnmappedFaults) {
  Golden g = Arm();
  v::EncLdrb(g.code, isa::kR2, isa::kR3, 0);
  g.regs = {{isa::kR3, 0x6000}};
  g.Faults(0x1008, "ldrb failed", AccessKind::kRead, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVARM, StrbUnmappedFaults) {
  Golden g = Arm();
  v::EncStrb(g.code, isa::kR2, isa::kR3, 0);
  g.regs = {{isa::kR3, 0x6000}};
  g.Faults(0x1008, "strb failed", AccessKind::kWrite, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVARM, StrbReadOnlyFaults) {
  Golden g = Arm();
  v::EncStrb(g.code, isa::kR2, isa::kR3, 0);
  g.regs = {{isa::kR3, 0x3000}};
  g.Faults(0x1008, "strb failed", AccessKind::kWrite, 0x3000,
           "no write permission on .rodata (r--) at 0x00003000");
  Expect(g);
}

TEST(OpGoldenVARM, LdrLitUnmappedFaults) {
  Golden g = Arm();
  v::EncLdrLit(g.code, isa::kR2, 0xFF8);  // 0x1008 + 0xFF8 = 0x2000
  g.Faults(0x1008, "ldrl failed", AccessKind::kRead, 0x2000,
           "unmapped address 0x00002000");
  Expect(g);
}

TEST(OpGoldenVARM, LdrIndUnmappedFaults) {
  Golden g = Arm();
  v::EncLdrInd(g.code, isa::kR2, isa::kR3);
  g.regs = {{isa::kR3, 0x6000}};
  g.Faults(0x1008, "ldri failed", AccessKind::kRead, 0x6000,
           "unmapped address 0x00006000");
  Expect(g);
}

TEST(OpGoldenVARM, PushOffTheStackFaults) {
  Golden g = Arm();
  v::EncPush(g.code, v::Mask({isa::kR2}));
  g.regs = {{isa::kSP, 0x8000}};
  g.Faults(0x1008, "push failed", AccessKind::kWrite, 0x7FFC,
           "unmapped address 0x00007ffc");
  Expect(g);
}

TEST(OpGoldenVARM, PushFaultKeepsEarlierStoresAndSp) {
  Golden g = Arm();
  v::EncPush(g.code, v::Mask({isa::kR2, isa::kR3}));
  g.regs = {{isa::kR2, 0x22222222}, {isa::kR3, 0x33333333}, {isa::kSP, 0x9004}};
  g.want_mem = {{0x8FFC, {0x22, 0x22, 0x22, 0x22}}};
  g.Faults(0x1008, "push failed", AccessKind::kWrite, 0x9000,
           "unmapped address 0x00009000");
  Expect(g);
}

TEST(OpGoldenVARM, PopOffTheStackFaults) {
  Golden g = Arm();
  v::EncPop(g.code, v::Mask({isa::kR2}));
  g.Faults(0x1008, "pop failed", AccessKind::kRead, 0x9000,
           "unmapped address 0x00009000");
  Expect(g);
}

TEST(OpGoldenVARM, PopFaultKeepsEarlierLoadsAndSp) {
  Golden g = Arm();
  v::EncPop(g.code, v::Mask({isa::kR2, isa::kR3}));
  g.regs = {{isa::kSP, 0x8FFC}};
  g.plant = {{0x8FFC, {0x22, 0x22, 0x22, 0x22}}};
  g.want_regs = {{isa::kR2, 0x22222222}};
  g.Faults(0x1008, "pop failed", AccessKind::kRead, 0x9000,
           "unmapped address 0x00009000");
  Expect(g);
}

TEST(OpGoldenVARM, PopPcOffTheStackFaults) {
  Golden g = Arm();
  v::EncPop(g.code, v::Mask({isa::kR4, isa::kPC}));
  g.Faults(0x1008, "pop failed", AccessKind::kRead, 0x9000,
           "unmapped address 0x00009000");
  Expect(g);
}

TEST(OpGoldenVARM, PopPcAgainstMismatchingShadowTraps) {
  Golden g = Arm();
  v::EncPop(g.code, v::Mask({isa::kR4, isa::kPC}));
  g.cfi = true;
  g.shadow = {0x2222};
  g.regs = {{isa::kSP, 0x8FF8}};
  g.plant = {{0x8FF8, {0x44, 0, 0, 0, 0x00, 0x11, 0, 0}}};
  g.want_regs = {{isa::kR4, 0x44}, {isa::kSP, 0x9000}};
  g.want_pc = 0x1008;
  g.want_steps = 2;
  g.want_reason = StopReason::kCfiViolation;
  g.want_detail = "CFI violation on pop {pc}";
  g.want_events = {
      "[step 2 pc=0x00001008] cfi-violation: CFI: return address mismatch"};
  g.want_cfi_traps = 1;
  Expect(g);
}

TEST(OpGoldenVARM, UnknownSyscallFaults) {
  Golden g = Arm();
  v::EncSyscall(g.code);
  g.regs = {{isa::kR7, 99}};
  g.want_pc = 0x1008;
  g.want_steps = 2;
  g.want_reason = StopReason::kFault;
  g.want_detail = "INVALID_ARGUMENT: unknown syscall 99";
  Expect(g);
}

TEST(OpGoldenVARM, StoreIntoTheRunningBlockRunsThePatchedBytes) {
  Golden g = Arm();
  v::EncStr(g.code, isa::kR2, isa::kR3, 0);  // 0x1004
  v::EncMovW(g.code, isa::kR4, 0x1111);      // 0x1008, patched to hlt
  g.text_perm = mem::kPermRWX;
  g.regs = {{isa::kR3, 0x1008}};  // r2 = 0, the hlt encoding
  g.want_mem = {{0x1008, {0x00, 0x00, 0x00, 0x00}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, PushPcStoresTheFallThrough) {
  Golden g = Arm();
  v::EncPush(g.code, v::Mask({isa::kR2, isa::kPC}));
  g.regs = {{isa::kR2, 0x22}};
  g.want_regs = {{isa::kSP, 0x8FF8}};
  g.want_mem = {{0x8FF8, {0x22, 0, 0, 0, 0x08, 0x10, 0, 0}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, PopSpIgnoresThePoppedValue) {
  Golden g = Arm();
  v::EncPop(g.code, v::Mask({isa::kR2, isa::kSP}));
  g.regs = {{isa::kSP, 0x8FF8}};
  g.plant = {{0x8FF8, {0x22, 0, 0, 0, 0x00, 0x00, 0xAD, 0xDE}}};
  g.want_regs = {{isa::kR2, 0x22}, {isa::kSP, 0x9000}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, BlxLrBranchesToTheNewLink) {
  Golden g = Arm();
  v::EncBlx(g.code, isa::kLR);
  g.cfi = true;
  g.regs = {{isa::kLR, kTarget}};
  g.want_regs = {{isa::kLR, 0x1008}};
  g.want_shadow = std::vector<std::uint32_t>{0x1008};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, StrPcStoresTheFallThrough) {
  Golden g = Arm();
  v::EncStr(g.code, isa::kPC, isa::kR3, 0);
  g.regs = {{isa::kR3, 0x4010}};
  g.want_mem = {{0x4010, {0x08, 0x10, 0x00, 0x00}}};
  g.Halts(0x1008, 3);
  Expect(g);
}

TEST(OpGoldenVARM, LdrFromPcReadsFromTheFallThrough) {
  Golden g = Arm();
  v::EncLdr(g.code, isa::kR2, isa::kPC, 4);  // [0x1008 + 4]
  g.plant = {{0x100C, {0x44, 0x33, 0x22, 0x11}}};
  g.want_regs = {{isa::kR2, 0x11223344}};
  g.Halts(0x1008, 3);
  Expect(g);
}

// Block formation leaves the r15 forms below to the interpreter.

TEST(OpGoldenVARM, MovFromPcReadsTheFallThrough) {
  Golden g = Arm();
  v::EncMovReg(g.code, isa::kR2, isa::kPC);
  g.want_regs = {{isa::kR2, 0x1008}};
  g.Halts(0x1008, 3);
  g.tier = false;
  Expect(g);
}

TEST(OpGoldenVARM, MovToPcBranches) {
  Golden g = Arm();
  v::EncMovReg(g.code, isa::kPC, isa::kR3);
  g.regs = {{isa::kR3, kTarget}};
  g.Halts(kTarget, 3);
  g.tier = false;
  Expect(g);
}

TEST(OpGoldenVARM, LdrToPcBranches) {
  Golden g = Arm();
  v::EncLdr(g.code, isa::kPC, isa::kR3, 0);
  g.regs = {{isa::kR3, 0x4010}};
  g.plant = {{0x4010, {0x00, 0x11, 0x00, 0x00}}};
  g.Halts(kTarget, 3);
  g.tier = false;
  Expect(g);
}

}  // namespace
}  // namespace connlab::vm
