// CPU tests: arithmetic, control flow, stack ops, syscalls, W^X fetch
// enforcement, host functions, step limits, and the superblock tier's own
// work (block formation, side exits, self-loop re-entry, SMC exits and the
// bulk copy passes) against the plain interpreter.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/isa/assembler.hpp"
#include "src/isa/varm.hpp"
#include "src/isa/vx86.hpp"
#include "src/loader/boot.hpp"
#include "src/loader/snapshot.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/cpu.hpp"
#include "src/vm/syscalls.hpp"

namespace connlab::vm {
namespace {

using isa::Arch;
namespace x = isa::vx86;
namespace v = isa::varm;

struct Machine {
  mem::AddressSpace space;
  std::unique_ptr<Cpu> cpu;
};

Machine MakeMachine(Arch arch, const util::Bytes& text,
                    mem::Perm stack_perm = mem::kPermRW,
                    const ExecConfig& exec = {}) {
  Machine m;
  EXPECT_TRUE(m.space.Map(".text", 0x1000, 0x1000, mem::kPermRX).ok());
  EXPECT_TRUE(m.space.Map(".data", 0x4000, 0x1000, mem::kPermRW).ok());
  EXPECT_TRUE(m.space.Map("stack", 0x8000, 0x1000, stack_perm).ok());
  EXPECT_TRUE(m.space.DebugWrite(0x1000, text).ok());
  m.cpu = std::make_unique<Cpu>(arch, m.space, exec);
  m.cpu->set_pc(0x1000);
  m.cpu->set_sp(0x9000);
  return m;
}

TEST(CpuVX86, ArithmeticAndFlags) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 40);
  x::EncAddImm(w, isa::kEAX, 2);
  x::EncCmpImm(w, isa::kEAX, 42);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 42u);
  EXPECT_TRUE(m.cpu->zf());
}

TEST(CpuVX86, SubXorMovReg) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 100);
  x::EncSubImm(w, isa::kEBX, 58);
  x::EncMovReg(w, isa::kECX, isa::kEBX);
  x::EncXorReg(w, isa::kEBX, isa::kEBX);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kECX), 42u);
  EXPECT_EQ(m.cpu->reg(isa::kEBX), 0u);
}

TEST(CpuVX86, PushPopAndMemory) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 0xABCD);
  x::EncPushReg(w, isa::kEAX);
  x::EncPopReg(w, isa::kEDX);
  x::EncMovImm(w, isa::kEDI, 0x4000);
  x::EncStore(w, isa::kEDX, isa::kEDI, 0x10);  // [edi+0x10] = edx
  x::EncLoad(w, isa::kESI, isa::kEDI, 0x10);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kEDX), 0xABCDu);
  EXPECT_EQ(m.cpu->reg(isa::kESI), 0xABCDu);
  EXPECT_EQ(m.cpu->sp(), 0x9000u);  // balanced
}

TEST(CpuVX86, CallRetRoundTrip) {
  isa::Assembler a(Arch::kVX86, 0x1000);
  a.CallLabel("fn");
  x::EncHlt(a.w());
  a.Label("fn");
  x::EncMovImm(a.w(), isa::kEAX, 7);
  x::EncRet(a.w());
  auto m = MakeMachine(Arch::kVX86, a.Finish().value());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 7u);
  EXPECT_EQ(m.cpu->sp(), 0x9000u);
}

TEST(CpuVX86, ConditionalJumps) {
  isa::Assembler a(Arch::kVX86, 0x1000);
  x::EncMovImm(a.w(), isa::kEAX, 5);
  x::EncCmpImm(a.w(), isa::kEAX, 5);
  a.JzLabel("taken");
  x::EncMovImm(a.w(), isa::kEBX, 1);  // skipped
  a.Label("taken");
  x::EncCmpImm(a.w(), isa::kEAX, 6);
  a.JnzLabel("also");
  x::EncMovImm(a.w(), isa::kECX, 1);  // skipped
  a.Label("also");
  x::EncHlt(a.w());
  auto m = MakeMachine(Arch::kVX86, a.Finish().value());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kEBX), 0u);
  EXPECT_EQ(m.cpu->reg(isa::kECX), 0u);
}

TEST(CpuVX86, JmpIndirectThroughMemory) {
  util::ByteWriter w;
  x::EncJmpInd(w, 0x4000);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  // Plant target pointing at an hlt we also plant.
  util::ByteWriter t;
  x::EncHlt(t);
  ASSERT_TRUE(m.space.DebugWrite(0x1800, t.bytes()).ok());
  ASSERT_TRUE(m.space.WriteU32(0x4000, 0x1800).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(stop.pc, 0x1800u);
}

TEST(CpuVX86, ExecSyscallSpawnsShell) {
  // Shellcode shape used by the code-injection exploit: point ebx at the
  // command string, eax = SYS_exec, syscall.
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 0x4000);
  x::EncMovImm(w, isa::kECX, 0);
  x::EncMovImm(w, isa::kEAX, static_cast<std::uint32_t>(Sys::kExec));
  x::EncSyscall(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  util::Bytes cmd = util::BytesOf("/bin/sh");
  cmd.push_back(0);
  ASSERT_TRUE(m.space.WriteBytes(0x4000, cmd).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kShellSpawned);
  ASSERT_EQ(m.cpu->events().size(), 1u);
  EXPECT_EQ(m.cpu->events()[0].kind, EventKind::kShellSpawned);
  EXPECT_NE(m.cpu->events()[0].text.find("root"), std::string::npos);
}

TEST(CpuVX86, ExitAndWriteSyscalls) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 1);       // fd
  x::EncMovImm(w, isa::kECX, 0x4000);  // buf
  x::EncMovImm(w, isa::kEDX, 2);       // len
  x::EncMovImm(w, isa::kEAX, static_cast<std::uint32_t>(Sys::kWrite));
  x::EncSyscall(w);
  x::EncMovImm(w, isa::kEBX, 3);
  x::EncMovImm(w, isa::kEAX, static_cast<std::uint32_t>(Sys::kExit));
  x::EncSyscall(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  ASSERT_TRUE(m.space.WriteBytes(0x4000, util::BytesOf("ok")).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kExited);
  EXPECT_EQ(stop.exit_code, 3u);
  ASSERT_EQ(m.cpu->events().size(), 2u);
  EXPECT_EQ(m.cpu->events()[0].kind, EventKind::kWrite);
}

TEST(CpuVX86, WxBlocksStackExecution) {
  util::ByteWriter w;
  x::EncJmp(w, 0x8100);  // jump into the stack
  // Stack contains valid code, but is rw- (W^X).
  auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRW);
  util::ByteWriter payload;
  x::EncHlt(payload);
  ASSERT_TRUE(m.space.DebugWrite(0x8100, payload.bytes()).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kFault);
  ASSERT_TRUE(stop.fault.has_value());
  EXPECT_EQ(stop.fault->kind, mem::AccessKind::kFetch);
}

TEST(CpuVX86, ExecutableStackRunsShellcode) {
  util::ByteWriter w;
  x::EncJmp(w, 0x8100);
  auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRWX);
  util::ByteWriter payload;
  for (int i = 0; i < 16; ++i) x::EncNop(payload);  // NOP sled
  x::EncHlt(payload);
  ASSERT_TRUE(m.space.DebugWrite(0x8100, payload.bytes()).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
}

TEST(CpuVX86, IllegalOpcodeFaults) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0xFE});
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

TEST(CpuVX86, UnmappedFetchFaults) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
  m.cpu->set_pc(0x7000);
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

TEST(CpuVX86, StepLimitStops) {
  isa::Assembler a(Arch::kVX86, 0x1000);
  a.Label("loop");
  a.JmpLabel("loop");
  auto m = MakeMachine(Arch::kVX86, a.Finish().value());
  auto stop = m.cpu->Run(50);
  EXPECT_EQ(stop.reason, StopReason::kStepLimit);
  EXPECT_EQ(stop.steps, 50u);
}

TEST(CpuVARM, MovwMovtBuilds32Bit) {
  util::ByteWriter w;
  v::EncMovImm32(w, isa::kR0, 0xDEADBEEF);
  v::EncHlt(w);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kR0), 0xDEADBEEFu);
}

TEST(CpuVARM, PushPopDescendingOrder) {
  util::ByteWriter w;
  v::EncMovW(w, isa::kR0, 0x11);
  v::EncMovW(w, isa::kR1, 0x22);
  v::EncPush(w, v::Mask({isa::kR0, isa::kR1}));
  v::EncHlt(w);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  m.cpu->Run(100);
  // Lowest register at lowest address.
  EXPECT_EQ(m.cpu->sp(), 0x9000u - 8);
  EXPECT_EQ(m.space.ReadU32(0x9000 - 8).value(), 0x11u);
  EXPECT_EQ(m.space.ReadU32(0x9000 - 4).value(), 0x22u);
}

TEST(CpuVARM, PopIntoPcTransfersControl) {
  util::ByteWriter w;
  v::EncPop(w, v::Mask({isa::kR4, isa::kPC}));
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  // Stack: r4 value then pc target (an hlt at 0x1800).
  util::ByteWriter t;
  v::EncHlt(t);
  ASSERT_TRUE(m.space.DebugWrite(0x1800, t.bytes()).ok());
  m.cpu->set_sp(0x8800);
  ASSERT_TRUE(m.space.WriteU32(0x8800, 0x99).ok());
  ASSERT_TRUE(m.space.WriteU32(0x8804, 0x1800).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(stop.pc, 0x1800u);
  EXPECT_EQ(m.cpu->reg(isa::kR4), 0x99u);
  EXPECT_EQ(m.cpu->sp(), 0x8808u);
}

TEST(CpuVARM, BlSetsLrAndBxReturns) {
  isa::Assembler a(Arch::kVARM, 0x1000);
  a.BlLabel("fn");
  v::EncHlt(a.w());
  a.Label("fn");
  v::EncMovW(a.w(), isa::kR0, 9);
  v::EncBx(a.w(), isa::kLR);
  auto m = MakeMachine(Arch::kVARM, a.Finish().value());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kR0), 9u);
}

TEST(CpuVARM, BlxBranchesThroughRegister) {
  util::ByteWriter w;
  v::EncMovImm32(w, isa::kR3, 0x1800);
  v::EncBlx(w, isa::kR3);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  util::ByteWriter t;
  v::EncBx(t, isa::kLR);  // return to instruction after blx
  ASSERT_TRUE(m.space.DebugWrite(0x1800, t.bytes()).ok());
  util::ByteWriter after;
  v::EncHlt(after);
  ASSERT_TRUE(m.space.DebugWrite(0x100C, after.bytes()).ok());
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(stop.pc, 0x100Cu);
}

TEST(CpuVARM, LdrLitLoadsFromPool) {
  isa::Assembler a(Arch::kVARM, 0x1000);
  a.LdrLitLabel(isa::kR5, "pool");
  v::EncHlt(a.w());
  a.Label("pool");
  a.Word32(0xFEEDC0DE);
  auto m = MakeMachine(Arch::kVARM, a.Finish().value());
  m.cpu->Run(10);
  EXPECT_EQ(m.cpu->reg(isa::kR5), 0xFEEDC0DEu);
}

TEST(CpuVARM, MvnNegates) {
  util::ByteWriter w;
  v::EncMovW(w, isa::kR1, 0x00FF);
  v::EncMvn(w, isa::kR0, isa::kR1);
  v::EncHlt(w);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  m.cpu->Run(10);
  EXPECT_EQ(m.cpu->reg(isa::kR0), 0xFFFFFF00u);
}

TEST(CpuVARM, SyscallConventionUsesR7) {
  util::ByteWriter w;
  v::EncMovW(w, isa::kR0, 5);
  v::EncMovW(w, isa::kR7, static_cast<std::uint16_t>(Sys::kExit));
  v::EncSyscall(w);
  auto m = MakeMachine(Arch::kVARM, w.bytes());
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kExited);
  EXPECT_EQ(stop.exit_code, 5u);
}

TEST(CpuVARM, ConditionalBranches) {
  isa::Assembler a(Arch::kVARM, 0x1000);
  v::EncMovW(a.w(), isa::kR0, 1);
  v::EncCmpImm(a.w(), isa::kR0, 1);
  a.BeqLabel("skip");
  v::EncMovW(a.w(), isa::kR4, 0xBAD);
  a.Label("skip");
  v::EncCmpImm(a.w(), isa::kR0, 2);
  a.BneLabel("end");
  v::EncMovW(a.w(), isa::kR5, 0xBAD);
  a.Label("end");
  v::EncHlt(a.w());
  auto m = MakeMachine(Arch::kVARM, a.Finish().value());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kR4), 0u);
  EXPECT_EQ(m.cpu->reg(isa::kR5), 0u);
}

TEST(Cpu, HostFnInterceptsExecution) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
  bool called = false;
  ASSERT_TRUE(m.cpu
                  ->RegisterHostFn(0x1000, "probe",
                                   [&called](Cpu& cpu) {
                                     called = true;
                                     cpu.RequestStop(StopReason::kHalted, "probe");
                                     return util::OkStatus();
                                   })
                  .ok());
  EXPECT_TRUE(m.cpu->IsHostFn(0x1000));
  EXPECT_EQ(m.cpu->HostFnName(0x1000), "probe");
  auto stop = m.cpu->Run(10);
  EXPECT_TRUE(called);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
}

TEST(Cpu, HostFnErrorBecomesFault) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
  ASSERT_TRUE(m.cpu
                  ->RegisterHostFn(0x1000, "bad",
                                   [](Cpu&) {
                                     return util::PermissionDenied("simulated");
                                   })
                  .ok());
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

TEST(Cpu, DuplicateHostFnRejected) {
  auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
  auto ok = [](Cpu&) { return util::OkStatus(); };
  ASSERT_TRUE(m.cpu->RegisterHostFn(0x1000, "a", ok).ok());
  EXPECT_FALSE(m.cpu->RegisterHostFn(0x1000, "b", ok).ok());
}

/// Stop reasons keep their numbers (reproducer files store them), the
/// retired 8 names nothing, and every other number up to kHeapCorruption
/// has its own name and a vm.stop.<name> counter.
TEST(Cpu, StopReasonsKeepTheirNumbersAndCounters) {
  EXPECT_EQ(static_cast<int>(StopReason::kStepLimit), 7);
  EXPECT_EQ(static_cast<int>(StopReason::kCfiViolation), 9);
  EXPECT_EQ(static_cast<int>(StopReason::kHeapCorruption), 10);
  EXPECT_EQ(StopReasonName(static_cast<StopReason>(8)), "?");
  obs::Scope scope;
  {
    auto m = MakeMachine(Arch::kVX86, util::Bytes{0x90});
    m.cpu->Run(1);
  }  // ~Cpu flushes the batch, which interns every stop counter
  const auto counters = scope.Metrics().counters;
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(StopReason::kHeapCorruption); ++i) {
    if (i == 8) continue;
    const std::string name(StopReasonName(static_cast<StopReason>(i)));
    EXPECT_NE(name, "?") << i;
    names.insert(name);
    EXPECT_TRUE(counters.contains("vm.stop." + name)) << name;
  }
  EXPECT_EQ(names.size(), 10u);
}

TEST(Cpu, RegistersStringMentionsAllRegisters) {
  auto m = MakeMachine(Arch::kVARM, util::Bytes{});
  const std::string s = m.cpu->RegistersString();
  EXPECT_NE(s.find("r0="), std::string::npos);
  EXPECT_NE(s.find("lr="), std::string::npos);
  EXPECT_NE(s.find("pc="), std::string::npos);
}

TEST(Cpu, StackOverflowOffMappingFaults) {
  util::ByteWriter w;
  x::EncPushReg(w, isa::kEAX);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->set_sp(0x8000);  // at the bottom of the stack segment
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

}  // namespace
}  // namespace connlab::vm

namespace connlab::vm {
namespace {

TEST(CpuTrace, DisabledByDefault) {
  util::ByteWriter w;
  isa::vx86::EncNop(w);
  isa::vx86::EncHlt(w);
  auto m = MakeMachine(isa::Arch::kVX86, w.bytes());
  m.cpu->Run(10);
  EXPECT_TRUE(m.cpu->trace().empty());
}

TEST(CpuTrace, RecordsInstructionsAndHostFns) {
  util::ByteWriter w;
  isa::vx86::EncMovImm(w, isa::kEAX, 7);
  isa::vx86::EncJmp(w, 0x1800);
  auto m = MakeMachine(isa::Arch::kVX86, w.bytes());
  ASSERT_TRUE(m.cpu
                  ->RegisterHostFn(0x1800, "stopper",
                                   [](Cpu& cpu) {
                                     cpu.RequestStop(StopReason::kHalted, "x");
                                     return util::OkStatus();
                                   })
                  .ok());
  m.cpu->set_trace_limit(16);
  m.cpu->Run(10);
  ASSERT_EQ(m.cpu->trace().size(), 3u);
  EXPECT_EQ(m.cpu->trace()[0].text, "mov eax, #0x7");
  EXPECT_EQ(m.cpu->trace()[2].text, "<host: stopper>");
  const std::string rendered = m.cpu->TraceString();
  EXPECT_NE(rendered.find("0x00001000:  mov eax, #0x7"), std::string::npos);
}

TEST(CpuTrace, RingBufferKeepsOnlyLastN) {
  isa::Assembler a(isa::Arch::kVX86, 0x1000);
  for (int i = 0; i < 20; ++i) isa::vx86::EncNop(a.w());
  isa::vx86::EncHlt(a.w());
  auto m = MakeMachine(isa::Arch::kVX86, a.Finish().value());
  m.cpu->set_trace_limit(5);
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->trace().size(), 5u);
  EXPECT_EQ(m.cpu->trace().back().text, "hlt");
  // Disabling clears.
  m.cpu->set_trace_limit(0);
  EXPECT_TRUE(m.cpu->trace().empty());
}

}  // namespace
}  // namespace connlab::vm

namespace connlab::vm {
namespace {

TEST(CpuByteOps, LoadZeroExtendsStoreTruncates) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 0xFFFFFFFF);
  x::EncMovImm(w, isa::kEDI, 0x4000);
  x::EncStoreByte(w, isa::kEAX, isa::kEDI, 0);   // writes 0xFF only
  x::EncMovImm(w, isa::kEBX, 0);
  x::EncLoadByte(w, isa::kEBX, isa::kEDI, 0);    // reads back 0x000000FF
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  ASSERT_TRUE(m.space.WriteU32(0x4000, 0x11223344).ok());
  m.cpu->Run(100);
  EXPECT_EQ(m.cpu->reg(isa::kEBX), 0xFFu);
  // Only the low byte of the word changed.
  EXPECT_EQ(m.space.ReadU32(0x4000).value(), 0x112233FFu);
}

TEST(CpuByteOps, VarmByteCopyLoop) {
  // The copy_label shape: a byte-granular guest memcpy.
  isa::Assembler a(Arch::kVARM, 0x1000);
  a.Label("loop");
  v::EncCmpImm(a.w(), isa::kR2, 0);
  a.BeqLabel("done");
  v::EncLdrb(a.w(), isa::kR3, isa::kR1, 0);
  v::EncStrb(a.w(), isa::kR3, isa::kR0, 0);
  v::EncAddImm(a.w(), isa::kR0, isa::kR0, 1);
  v::EncAddImm(a.w(), isa::kR1, isa::kR1, 1);
  v::EncSubImm(a.w(), isa::kR2, isa::kR2, 1);
  a.BLabel("loop");
  a.Label("done");
  v::EncHlt(a.w());
  auto m = MakeMachine(Arch::kVARM, a.Finish().value());
  ASSERT_TRUE(m.space.WriteBytes(0x4000, util::BytesOf("HELLO")).ok());
  m.cpu->set_reg(isa::kR0, 0x4100);
  m.cpu->set_reg(isa::kR1, 0x4000);
  m.cpu->set_reg(isa::kR2, 5);
  auto stop = m.cpu->Run(1000);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.space.ReadBytes(0x4100, 5).value(), util::BytesOf("HELLO"));
}

TEST(CpuByteOps, ByteStoreToReadOnlyFaults) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEDI, 0x1000);  // .text
  x::EncStoreByte(w, isa::kEAX, isa::kEDI, 0);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  auto stop = m.cpu->Run(10);
  EXPECT_EQ(stop.reason, StopReason::kFault);
}

// --- Self-modifying code: neither tier may run a stale decode -------------

/// Every case runs on both tiers: the interpreter decodes each step in place,
/// and the superblock tier must drop blocks whose segment generation moved.
constexpr bool kSuperblocksOnOff[] = {true, false};

const char* TierName(bool superblocks) {
  return superblocks ? "superblocks on" : "superblocks off";
}

/// Guest stores rewrite a stack stub between two executions of the same pc
/// (W^X off, stack RWX). The first run executes the old stub; the stores
/// bump the stack segment's write generation, so the second run must decode
/// — and execute — the new bytes.
TEST(CpuSelfModifyingCode, GuestStoresInvalidateStackDecodes) {
  util::ByteWriter stub1;
  x::EncMovImm(stub1, isa::kEAX, 1);
  x::EncHlt(stub1);
  util::ByteWriter stub2w;
  x::EncMovImm(stub2w, isa::kEAX, 2);
  x::EncHlt(stub2w);
  util::Bytes stub2 = stub2w.bytes();
  while (stub2.size() % 4 != 0) stub2.push_back(0);

  // .text program: store the new stub over 0x8000 word by word, then jump
  // into it.
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 0x8000);
  for (std::size_t i = 0; i < stub2.size(); i += 4) {
    const std::uint32_t word = static_cast<std::uint32_t>(stub2[i]) |
                               (static_cast<std::uint32_t>(stub2[i + 1]) << 8) |
                               (static_cast<std::uint32_t>(stub2[i + 2]) << 16) |
                               (static_cast<std::uint32_t>(stub2[i + 3]) << 24);
    x::EncMovImm(w, isa::kEAX, word);
    x::EncStore(w, isa::kEAX, isa::kEBX, static_cast<std::uint32_t>(i));
  }
  x::EncJmp(w, 0x8000);

  for (const bool superblocks : kSuperblocksOnOff) {
    SCOPED_TRACE(TierName(superblocks));
    auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRWX,
                         {.superblocks = superblocks});
    ASSERT_TRUE(m.space.DebugWrite(0x8000, stub1.bytes()).ok());

    m.cpu->set_pc(0x8000);
    auto first = m.cpu->Run(100);
    EXPECT_EQ(first.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kEAX), 1u);

    m.cpu->set_pc(0x1000);
    auto second = m.cpu->Run(100);
    EXPECT_EQ(second.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kEAX), 2u);
  }
}

/// Same shape on VARM (fixed 4-byte instructions): the heap-ish .data
/// segment is made executable, a stub runs, the guest overwrites it, and
/// the rewrite must be honoured on re-entry.
TEST(CpuSelfModifyingCode, GuestStoresInvalidateVarmDecodes) {
  util::ByteWriter stub1;
  v::EncMovW(stub1, 0, 7);
  v::EncHlt(stub1);
  util::ByteWriter stub2w;
  v::EncMovW(stub2w, 0, 9);
  v::EncHlt(stub2w);
  const util::Bytes stub2 = stub2w.bytes();
  ASSERT_EQ(stub2.size() % 4, 0u);

  util::ByteWriter w;
  v::EncMovImm32(w, 1, 0x4000);
  for (std::size_t i = 0; i < stub2.size(); i += 4) {
    const std::uint32_t word = static_cast<std::uint32_t>(stub2[i]) |
                               (static_cast<std::uint32_t>(stub2[i + 1]) << 8) |
                               (static_cast<std::uint32_t>(stub2[i + 2]) << 16) |
                               (static_cast<std::uint32_t>(stub2[i + 3]) << 24);
    v::EncMovImm32(w, 0, word);
    v::EncStr(w, 0, 1, static_cast<std::uint8_t>(i));
  }
  v::EncHlt(w);

  for (const bool superblocks : kSuperblocksOnOff) {
    SCOPED_TRACE(TierName(superblocks));
    auto m = MakeMachine(Arch::kVARM, w.bytes(), mem::kPermRW,
                         {.superblocks = superblocks});
    ASSERT_TRUE(m.space.Protect(".data", mem::kPermRWX).ok());
    ASSERT_TRUE(m.space.DebugWrite(0x4000, stub1.bytes()).ok());

    m.cpu->set_pc(0x4000);
    auto first = m.cpu->Run(100);
    EXPECT_EQ(first.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(0), 7u);

    m.cpu->set_pc(0x1000);
    auto rewrite = m.cpu->Run(100);
    EXPECT_EQ(rewrite.reason, StopReason::kHalted);

    m.cpu->set_pc(0x4000);
    auto second = m.cpu->Run(100);
    EXPECT_EQ(second.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(0), 9u);
  }
}

/// A debugger poke (DebugWrite bypasses permissions) must also invalidate
/// decodes of .text.
TEST(CpuSelfModifyingCode, DebugPokeInvalidatesTextDecodes) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 1);
  x::EncHlt(w);
  util::ByteWriter patched;
  x::EncMovImm(patched, isa::kEAX, 42);
  x::EncHlt(patched);

  for (const bool superblocks : kSuperblocksOnOff) {
    SCOPED_TRACE(TierName(superblocks));
    auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRW,
                         {.superblocks = superblocks});
    auto first = m.cpu->Run(100);
    EXPECT_EQ(first.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kEAX), 1u);

    ASSERT_TRUE(m.space.DebugWrite(0x1000, patched.bytes()).ok());

    m.cpu->set_pc(0x1000);
    auto second = m.cpu->Run(100);
    EXPECT_EQ(second.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kEAX), 42u);
  }
}

/// An mprotect revoking X must take effect even for already-executed pcs.
TEST(CpuSelfModifyingCode, ProtectRevokingExecInvalidatesDecodes) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 5);
  x::EncHlt(w);

  for (const bool superblocks : kSuperblocksOnOff) {
    SCOPED_TRACE(TierName(superblocks));
    auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRW,
                         {.superblocks = superblocks});
    auto first = m.cpu->Run(100);
    EXPECT_EQ(first.reason, StopReason::kHalted);

    ASSERT_TRUE(m.space.Protect(".text", mem::kPermRW).ok());
    m.cpu->set_pc(0x1000);
    auto second = m.cpu->Run(100);
    EXPECT_EQ(second.reason, StopReason::kFault);
    EXPECT_EQ(second.detail, "instruction fetch failed");
  }
}

// --- Superblock tier: threaded-code blocks must mirror the interpreter ----

/// The tier is on by default, and a hot loop retires the same stop reason,
/// step count, and architectural state as the plain interpreter.
TEST(CpuSuperblock, TightLoopMatchesInterpreter) {
  auto run = [](bool superblocks) {
    isa::Assembler a(Arch::kVX86, 0x1000);
    x::EncMovImm(a.w(), isa::kEAX, 1000);
    a.Label("loop");
    x::EncSubImm(a.w(), isa::kEAX, 1);
    x::EncCmpImm(a.w(), isa::kEAX, 0);
    a.JnzLabel("loop");
    x::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVX86, a.Finish().value(), mem::kPermRW,
                         {.superblocks = superblocks});
    auto stop = m.cpu->Run(100000);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    return std::make_pair(stop.steps, m.cpu->reg(isa::kEAX));
  };
  EXPECT_TRUE(ExecConfig{}.superblocks);  // default on
  const auto tier = run(true);
  EXPECT_EQ(tier, run(false));
  EXPECT_EQ(tier.first, 3002u);  // mov + 1000 * (sub, cmp, jnz) + hlt
}

/// Same identity on VARM: the byte-copy loop exercises ARM loads, stores,
/// flags, and backward branches through compiled blocks.
TEST(CpuSuperblock, VarmCopyLoopMatchesInterpreter) {
  auto run = [](bool superblocks) {
    isa::Assembler a(Arch::kVARM, 0x1000);
    a.Label("loop");
    v::EncCmpImm(a.w(), isa::kR2, 0);
    a.BeqLabel("done");
    v::EncLdrb(a.w(), isa::kR3, isa::kR1, 0);
    v::EncStrb(a.w(), isa::kR3, isa::kR0, 0);
    v::EncAddImm(a.w(), isa::kR0, isa::kR0, 1);
    v::EncAddImm(a.w(), isa::kR1, isa::kR1, 1);
    v::EncSubImm(a.w(), isa::kR2, isa::kR2, 1);
    a.BLabel("loop");
    a.Label("done");
    v::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVARM, a.Finish().value(), mem::kPermRW,
                         {.superblocks = superblocks});
    EXPECT_TRUE(m.space.WriteBytes(0x4000, util::BytesOf("HELLO")).ok());
    m.cpu->set_reg(isa::kR0, 0x4100);
    m.cpu->set_reg(isa::kR1, 0x4000);
    m.cpu->set_reg(isa::kR2, 5);
    auto stop = m.cpu->Run(1000);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    EXPECT_EQ(m.space.ReadBytes(0x4100, 5).value(), util::BytesOf("HELLO"));
    return std::make_tuple(stop.steps, m.cpu->reg(isa::kR0), m.cpu->pc());
  };
  EXPECT_EQ(run(true), run(false));
}

/// A step budget that lands mid-block must stop at exactly that step — the
/// tier falls back to an interpreter tail rather than overrunning.
TEST(CpuSuperblock, StepLimitExactMidLoop) {
  std::uint32_t pc[2], eax[2];
  int i = 0;
  for (const bool superblocks : {true, false}) {
    isa::Assembler a(Arch::kVX86, 0x1000);
    x::EncMovImm(a.w(), isa::kEAX, 1000);
    a.Label("loop");
    x::EncSubImm(a.w(), isa::kEAX, 1);
    x::EncCmpImm(a.w(), isa::kEAX, 0);
    a.JnzLabel("loop");
    x::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVX86, a.Finish().value(), mem::kPermRW,
                         {.superblocks = superblocks});
    auto stop = m.cpu->Run(500);  // not a multiple of the 3-op body
    EXPECT_EQ(stop.reason, StopReason::kStepLimit);
    EXPECT_EQ(stop.steps, 500u);
    pc[i] = m.cpu->pc();
    eax[i] = m.cpu->reg(isa::kEAX);
    ++i;
  }
  EXPECT_EQ(pc[0], pc[1]);
  EXPECT_EQ(eax[0], eax[1]);
}

/// Shellcode that patches an instruction LATER IN ITS OWN superblock: the
/// store bumps the code segment's write generation mid-block, so the
/// remaining compiled ops are stale and execution must fall back to the
/// interpreter, which decodes — and runs — the new bytes.
TEST(CpuSuperblock, MidBlockStoreFallsBackToFreshBytes) {
  // Replacement tail (mov ecx,2 ; hlt), padded to a word multiple so word
  // stores overwrite it exactly.
  util::ByteWriter nw;
  x::EncMovImm(nw, isa::kECX, 2);
  x::EncHlt(nw);
  util::Bytes new_tail = nw.bytes();
  while (new_tail.size() % 4 != 0) new_tail.push_back(0);

  // Measure encoding lengths so the tail offset is known up front.
  util::ByteWriter probe;
  x::EncMovImm(probe, isa::kEAX, 0);
  const std::size_t mov_len = probe.bytes().size();
  x::EncStore(probe, isa::kEAX, isa::kEBX, 0);
  const std::size_t store_len = probe.bytes().size() - mov_len;
  std::size_t tail_off = mov_len + (new_tail.size() / 4) * (mov_len + store_len);
  while (tail_off % 4 != 0) ++tail_off;  // nop padding below keeps this true

  // One straight-line region in RWX stack memory — a single superblock —
  // whose stores overwrite its own mov ecx,1 tail before reaching it.
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEBX, 0x8000);
  for (std::size_t i = 0; i < new_tail.size(); i += 4) {
    const std::uint32_t word =
        static_cast<std::uint32_t>(new_tail[i]) |
        (static_cast<std::uint32_t>(new_tail[i + 1]) << 8) |
        (static_cast<std::uint32_t>(new_tail[i + 2]) << 16) |
        (static_cast<std::uint32_t>(new_tail[i + 3]) << 24);
    x::EncMovImm(w, isa::kEAX, word);
    x::EncStore(w, isa::kEAX, isa::kEBX,
                static_cast<std::uint32_t>(tail_off + i));
  }
  while (w.bytes().size() < tail_off) x::EncNop(w);
  ASSERT_EQ(w.bytes().size(), tail_off);
  x::EncMovImm(w, isa::kECX, 1);
  x::EncHlt(w);

  auto m = MakeMachine(Arch::kVX86, util::Bytes{}, mem::kPermRWX);
  ASSERT_TRUE(m.cpu->exec().superblocks);
  ASSERT_TRUE(m.space.DebugWrite(0x8000, w.bytes()).ok());
  m.cpu->set_pc(0x8000);
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kECX), 2u);  // a stale block would leave 1

  // Re-entry after the rewrite recompiles from the patched bytes.
  m.cpu->set_pc(0x8000);
  EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kECX), 2u);
}

/// An mprotect revoking X drops compiled blocks; granting it back after a
/// patch recompiles from the new bytes (the full W^X flip round trip).
TEST(CpuSuperblock, WxFlipInvalidatesCompiledBlocks) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 5);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);  // block compiled

  ASSERT_TRUE(m.space.Protect(".text", mem::kPermRW).ok());
  m.cpu->set_pc(0x1000);
  auto fault = m.cpu->Run(100);
  EXPECT_EQ(fault.reason, StopReason::kFault);
  EXPECT_EQ(fault.detail, "instruction fetch failed");

  util::ByteWriter patched;
  x::EncMovImm(patched, isa::kEAX, 77);
  x::EncHlt(patched);
  ASSERT_TRUE(m.space.DebugWrite(0x1000, patched.bytes()).ok());
  ASSERT_TRUE(m.space.Protect(".text", mem::kPermRX).ok());
  m.cpu->set_pc(0x1000);
  EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 77u);
}

// --- Successor blocks: every block-to-block hop crosses the dispatch loop's
// slot probe, which must see the same hazards a lone block does ------------

/// A loop whose body and header are separate blocks (a conditional exit at
/// the top, a backward jmp at the bottom): each iteration hops between the
/// two compiled blocks and retires identically to the interpreter.
TEST(CpuSuperblock, TwoBlockLoopMatchesInterpreter) {
  auto run = [](bool superblocks) {
    isa::Assembler a(Arch::kVX86, 0x1000);
    x::EncMovImm(a.w(), isa::kEAX, 300);
    a.Label("loop");
    x::EncCmpImm(a.w(), isa::kEAX, 0);
    a.JzLabel("done");
    x::EncSubImm(a.w(), isa::kEAX, 1);
    x::EncAddImm(a.w(), isa::kEBX, 1);
    a.JmpLabel("loop");
    a.Label("done");
    x::EncHlt(a.w());
    auto m = MakeMachine(Arch::kVX86, a.Finish().value(), mem::kPermRW,
                         {.superblocks = superblocks});
    auto stop = m.cpu->Run(100000);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    return std::make_tuple(stop.steps, m.cpu->reg(isa::kEBX), m.cpu->pc());
  };
  const auto tier = run(true);
  EXPECT_EQ(tier, run(false));
  EXPECT_EQ(std::get<0>(tier), 1504u);  // mov + 300*5 + cmp,jz + hlt
  EXPECT_EQ(std::get<1>(tier), 300u);
}

/// SMC in a *successor* block mid-chain: a patcher block overwrites the
/// final block the chain was about to enter, whose round-1 compile is still
/// in the block store. The store bumps the generation, so the dispatch
/// loop's slot for the stale successor is dead and the patched bytes — not
/// the compiled ones — must run.
TEST(CpuSuperblock, SuccessorSmcMidChainRunsPatchedBytes) {
  // Replacement for block B (`mov esi,9 ; hlt`), padded to two words.
  util::ByteWriter nb;
  x::EncMovImm(nb, isa::kESI, 9);
  x::EncHlt(nb);
  util::Bytes new_b = nb.bytes();
  while (new_b.size() % 4 != 0) new_b.push_back(0);
  ASSERT_LE(new_b.size(), 8u);
  while (new_b.size() < 8) new_b.push_back(0);
  auto word_at = [&](std::size_t i) {
    return static_cast<std::uint32_t>(new_b[i]) |
           (static_cast<std::uint32_t>(new_b[i + 1]) << 8) |
           (static_cast<std::uint32_t>(new_b[i + 2]) << 16) |
           (static_cast<std::uint32_t>(new_b[i + 3]) << 24);
  };

  // Two-pass emission: targets are absolute, encodings fixed-length, so the
  // dummy pass measures the label offsets the real pass encodes.
  auto emit = [&](std::uint32_t patcher, std::uint32_t b,
                  std::uint32_t* patcher_off, std::uint32_t* b_off) {
    util::ByteWriter w;
    x::EncCmpImm(w, isa::kEAX, 1);  // A: eax==1 selects the patch pass
    x::EncJz(w, patcher);
    x::EncMovImm(w, isa::kECX, 1);  // F: benign fall-through into B
    x::EncJmp(w, b);
    *patcher_off = static_cast<std::uint32_t>(w.bytes().size());
    x::EncMovImm(w, isa::kEBX, b);  // patcher: rewrite B, then enter it
    x::EncMovImm(w, isa::kEDX, word_at(0));
    x::EncStore(w, isa::kEDX, isa::kEBX, 0);
    x::EncMovImm(w, isa::kEDX, word_at(4));
    x::EncStore(w, isa::kEDX, isa::kEBX, 4);
    x::EncJmp(w, b);
    *b_off = static_cast<std::uint32_t>(w.bytes().size());
    x::EncMovImm(w, isa::kESI, 7);  // B: the block the patcher rewrites
    x::EncHlt(w);
    while (w.bytes().size() < *b_off + 8) x::EncNop(w);
    return w.bytes();
  };

  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> seen;
  for (const bool superblocks : {true, false}) {
    std::uint32_t patcher_off = 0, b_off = 0;
    (void)emit(0, 0, &patcher_off, &b_off);
    std::uint32_t po2 = 0, bo2 = 0;
    const util::Bytes code =
        emit(0x8000 + patcher_off, 0x8000 + b_off, &po2, &bo2);
    ASSERT_EQ(po2, patcher_off);
    ASSERT_EQ(bo2, b_off);

    auto m = MakeMachine(Arch::kVX86, util::Bytes{}, mem::kPermRWX,
                         {.superblocks = superblocks});
    ASSERT_TRUE(m.space.DebugWrite(0x8000, code).ok());

    // Pass 1 (eax=0): the benign path compiles A, F and B.
    m.cpu->set_pc(0x8000);
    EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kESI), 7u);

    // Pass 2 (eax=1): A branches into the patcher, whose stores gut B
    // while B's round-1 compile still sits in the block store.
    m.cpu->set_reg(isa::kEAX, 1);
    m.cpu->set_reg(isa::kESI, 0);
    m.cpu->set_pc(0x8000);
    auto stop = m.cpu->Run(100);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kESI), 9u);  // a stale B would leave 7
    seen.emplace_back(stop.steps, m.cpu->reg(isa::kESI), m.cpu->pc());
  }
  EXPECT_EQ(seen[0], seen[1]);  // tier on == tier off, step for step
}

/// A W^X flip drops a compiled successor: revoking X, patching the
/// successor and re-granting X must land execution in the rewritten
/// successor even though the predecessor's bytes never changed.
TEST(CpuSuperblock, WxFlipRecompilesSuccessorBlock) {
  util::ByteWriter probe;
  x::EncMovImm(probe, isa::kECX, 5);
  x::EncJmp(probe, 0);
  const std::uint32_t b_addr =
      0x1000 + static_cast<std::uint32_t>(probe.bytes().size());

  std::vector<std::uint64_t> steps_seen;
  for (const bool superblocks : {true, false}) {
    util::ByteWriter w;
    x::EncMovImm(w, isa::kECX, 5);  // A
    x::EncJmp(w, b_addr);
    x::EncMovImm(w, isa::kESI, 7);  // B
    x::EncHlt(w);
    auto m = MakeMachine(Arch::kVX86, w.bytes(), mem::kPermRW,
                         {.superblocks = superblocks});

    EXPECT_EQ(m.cpu->Run(100).reason, StopReason::kHalted);  // A, B compiled
    EXPECT_EQ(m.cpu->reg(isa::kESI), 7u);

    ASSERT_TRUE(m.space.Protect(".text", mem::kPermRW).ok());
    util::ByteWriter nb;
    x::EncMovImm(nb, isa::kESI, 9);
    x::EncHlt(nb);
    ASSERT_TRUE(m.space.DebugWrite(b_addr, nb.bytes()).ok());
    ASSERT_TRUE(m.space.Protect(".text", mem::kPermRX).ok());

    m.cpu->set_reg(isa::kESI, 0);
    m.cpu->set_pc(0x1000);
    auto stop = m.cpu->Run(100);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    EXPECT_EQ(m.cpu->reg(isa::kESI), 9u);  // a stale B would deliver 7
    steps_seen.push_back(stop.steps);
  }
  EXPECT_EQ(steps_seen[0], steps_seen[1]);
}

// --- Side exits: conditional branches inside a block -----------------------
//
// jz/jnz no longer end a block: taken leaves through the branch exit (a
// branch to the block's own entry re-enters it), not taken falls through
// to the next op. Every shape below runs once per tier with coverage
// attached and must leave identical registers, memory, stop records, step
// counts, events and coverage cells.

/// Everything a run leaves behind that the two tiers must agree on.
struct TierRun {
  std::array<std::uint32_t, 16> regs{};
  std::uint32_t pc = 0;
  bool zf = false;
  std::vector<StopReason> reasons;
  std::vector<std::string> details;
  std::vector<std::uint32_t> stop_pcs;
  std::vector<std::uint64_t> steps;
  std::vector<std::string> faults;  // "kind addr detail" per stop, or ""
  std::vector<std::string> events;
  std::vector<util::Bytes> memory;
  std::vector<std::uint32_t> dirty_pages;  // per segment, since set-up
  std::vector<std::uint8_t> coverage;
  std::vector<std::uint16_t> touched;
};

/// One program: its bytes at 0x1000 (or wherever `setup` puts code), the
/// machine set-up, and the Run budgets to drive it with (one Run each,
/// resuming where the last stopped).
struct SideExitCase {
  Arch arch = Arch::kVX86;
  util::Bytes text;
  mem::Perm stack_perm = mem::kPermRW;
  std::function<void(Machine&)> setup;
  std::vector<std::uint64_t> budgets = {100000};
  bool coverage = true;
};

TierRun RunCase(const SideExitCase& c, bool superblocks) {
  auto m = MakeMachine(c.arch, c.text, c.stack_perm,
                       {.superblocks = superblocks});
  std::vector<std::uint8_t> bitmap(1u << 16, 0);
  std::vector<std::uint16_t> touched;
  if (c.coverage) m.cpu->AttachCoverage(bitmap.data(), 0xFFFF, &touched);
  if (c.setup) c.setup(m);
  for (const auto& seg : m.space.segments()) seg->ResetDirty(1);
  TierRun r;
  for (const std::uint64_t budget : c.budgets) {
    const StopInfo stop = m.cpu->Run(budget);
    r.reasons.push_back(stop.reason);
    r.details.push_back(stop.detail);
    r.stop_pcs.push_back(stop.pc);
    r.steps.push_back(stop.steps);
    r.faults.push_back(stop.fault.has_value()
                           ? mem::AccessKindName(stop.fault->kind) + " " +
                                 std::to_string(stop.fault->addr) + " " +
                                 stop.fault->detail
                           : std::string());
  }
  for (int i = 0; i < 16; ++i) {
    r.regs[i] = m.cpu->reg(static_cast<std::uint8_t>(i));
  }
  r.pc = m.cpu->pc();
  r.zf = m.cpu->zf();
  for (const Event& e : m.cpu->events()) r.events.push_back(e.ToString());
  for (const auto& seg : m.space.segments()) {
    r.memory.push_back(seg->data());
    r.dirty_pages.push_back(seg->CountDirtyPages());
  }
  r.coverage = bitmap;
  r.touched = touched;
  return r;
}

/// Runs `c` on both tiers and requires identical records; returns the
/// superblock run for shape-specific checks.
TierRun ExpectTiersAgree(const SideExitCase& c) {
  const TierRun interp = RunCase(c, /*superblocks=*/false);
  const TierRun tier = RunCase(c, /*superblocks=*/true);
  EXPECT_EQ(tier.regs, interp.regs);
  EXPECT_EQ(tier.pc, interp.pc);
  EXPECT_EQ(tier.zf, interp.zf);
  EXPECT_EQ(tier.reasons, interp.reasons);
  EXPECT_EQ(tier.details, interp.details);
  EXPECT_EQ(tier.stop_pcs, interp.stop_pcs);
  EXPECT_EQ(tier.steps, interp.steps);
  EXPECT_EQ(tier.faults, interp.faults);
  EXPECT_EQ(tier.events, interp.events);
  EXPECT_TRUE(tier.memory == interp.memory);
  EXPECT_EQ(tier.dirty_pages, interp.dirty_pages);
  EXPECT_TRUE(tier.coverage == interp.coverage);
  EXPECT_EQ(tier.touched, interp.touched);
  return tier;
}

constexpr Arch kBothArchs[] = {Arch::kVX86, Arch::kVARM};

/// The register playing one role on each ISA.
std::uint8_t ArchReg(Arch arch, std::uint8_t vx86, std::uint8_t varm) {
  return arch == Arch::kVX86 ? vx86 : varm;
}

/// Seeds .data with a byte pattern the copy loops read.
void SeedData(Machine& m) {
  util::Bytes pattern(0x1000);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  ASSERT_TRUE(m.space.DebugWrite(0x4000, pattern).ok());
}

/// The copy_label shape, `cmp; jz out; ldb; stb; add; add; sub; jmp head`:
/// copies ecx/r2 bytes from esi/r1 to edi/r0.
util::Bytes WhileCopyLoop(Arch arch, mem::GuestAddr origin = 0x1000) {
  isa::Assembler a(arch, origin);
  a.Label("head");
  if (arch == Arch::kVX86) {
    x::EncCmpImm(a.w(), isa::kECX, 0);
    a.JzLabel("out");
    x::EncLoadByte(a.w(), isa::kEAX, isa::kESI, 0);
    x::EncStoreByte(a.w(), isa::kEAX, isa::kEDI, 0);
    x::EncAddImm(a.w(), isa::kEDI, 1);
    x::EncAddImm(a.w(), isa::kESI, 1);
    x::EncSubImm(a.w(), isa::kECX, 1);
    a.JmpLabel("head");
    a.Label("out");
    x::EncHlt(a.w());
  } else {
    v::EncCmpImm(a.w(), isa::kR2, 0);
    a.BeqLabel("out");
    v::EncLdrb(a.w(), isa::kR3, isa::kR1, 0);
    v::EncStrb(a.w(), isa::kR3, isa::kR0, 0);
    v::EncAddImm(a.w(), isa::kR0, isa::kR0, 1);
    v::EncAddImm(a.w(), isa::kR1, isa::kR1, 1);
    v::EncSubImm(a.w(), isa::kR2, isa::kR2, 1);
    a.BLabel("head");
    a.Label("out");
    v::EncHlt(a.w());
  }
  return a.Finish().value();
}

/// Points the copy loop at `count` bytes from `src` to `dst`.
std::function<void(Machine&)> CopyArgs(Arch arch, std::uint32_t dst,
                                       std::uint32_t src,
                                       std::uint32_t count) {
  return [=](Machine& m) {
    SeedData(m);
    m.cpu->set_reg(ArchReg(arch, isa::kEDI, isa::kR0), dst);
    m.cpu->set_reg(ArchReg(arch, isa::kESI, isa::kR1), src);
    m.cpu->set_reg(ArchReg(arch, isa::kECX, isa::kR2), count);
  };
}

TEST(CpuSuperblock, SideExitWhileLoopMatchesInterpreter) {
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    SideExitCase c;
    c.arch = arch;
    c.text = WhileCopyLoop(arch);
    c.setup = CopyArgs(arch, 0x8400, 0x4010, 100);
    const TierRun run = ExpectTiersAgree(c);
    EXPECT_EQ(run.reasons, std::vector<StopReason>{StopReason::kHalted});
    EXPECT_EQ(run.steps[0], 100u * 8 + 3);  // 8 per byte, cmp + jz + hlt
  }
}

TEST(CpuSuperblock, SideExitDoWhileLoopMatchesInterpreter) {
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    isa::Assembler a(arch, 0x1000);
    if (arch == Arch::kVX86) {
      x::EncMovImm(a.w(), isa::kECX, 50);
      a.Label("head");
      x::EncAddImm(a.w(), isa::kEBX, 3);
      x::EncStoreByte(a.w(), isa::kEBX, isa::kEDI, 0);
      x::EncAddImm(a.w(), isa::kEDI, 1);
      x::EncSubImm(a.w(), isa::kECX, 1);
      x::EncCmpImm(a.w(), isa::kECX, 0);
      a.JnzLabel("head");
      x::EncHlt(a.w());
    } else {
      v::EncMovW(a.w(), isa::kR2, 50);
      a.Label("head");
      v::EncAddImm(a.w(), isa::kR4, isa::kR4, 3);
      v::EncStrb(a.w(), isa::kR4, isa::kR0, 0);
      v::EncAddImm(a.w(), isa::kR0, isa::kR0, 1);
      v::EncSubImm(a.w(), isa::kR2, isa::kR2, 1);
      v::EncCmpImm(a.w(), isa::kR2, 0);
      a.BneLabel("head");
      v::EncHlt(a.w());
    }
    SideExitCase c;
    c.arch = arch;
    c.text = a.Finish().value();
    c.setup = [arch](Machine& m) {
      m.cpu->set_reg(ArchReg(arch, isa::kEDI, isa::kR0), 0x8100);
    };
    const TierRun run = ExpectTiersAgree(c);
    EXPECT_EQ(run.reasons, std::vector<StopReason>{StopReason::kHalted});
    EXPECT_EQ(run.steps[0], 1u + 50 * 6 + 1);
  }
}

/// The copy source runs off the end of .data: the ldb/ldrb right after the
/// not-taken jz faults, with the interpreter's fault pc and detail.
TEST(CpuSuperblock, SideExitFaultAfterNotTakenBranch) {
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    SideExitCase c;
    c.arch = arch;
    c.text = WhileCopyLoop(arch);
    c.setup = CopyArgs(arch, 0x8400, 0x4FF0, 100);
    const TierRun run = ExpectTiersAgree(c);
    ASSERT_EQ(run.reasons, std::vector<StopReason>{StopReason::kFault});
    EXPECT_EQ(run.details[0], "ldrb failed");
    EXPECT_NE(run.faults[0].find("unmapped address 0x00005000"),
              std::string::npos);
  }
}

/// Every budget from 1 to past the end: the budget runs out before, inside
/// and right after the side exit, on the first pass and on self-loop
/// re-entries, and every stop matches the interpreter step for step.
TEST(CpuSuperblock, SideExitStepBudgetExhaustedInsideBlock) {
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    for (std::uint64_t budget = 1; budget <= 60; ++budget) {
      SCOPED_TRACE(budget);
      SideExitCase c;
      c.arch = arch;
      c.text = WhileCopyLoop(arch);
      c.setup = CopyArgs(arch, 0x8400, 0x4010, 6);
      c.budgets = {budget, budget};
      const TierRun run = ExpectTiersAgree(c);
      EXPECT_EQ(run.reasons[0], budget < 51 ? StopReason::kStepLimit
                                            : StopReason::kHalted);
    }
  }
}

/// Code in the RWX stack stores over the instruction right after a
/// not-taken branch in its own block: the store's mid-block generation
/// check must leave the compiled ops and run the patched bytes.
TEST(CpuSuperblock, SideExitStorePatchesInstructionAfterBranch) {
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    isa::Assembler a(arch, 0x8000);
    if (arch == Arch::kVX86) {
      // The patch rewrites the imm32 of `mov edx, 1` (its last four
      // bytes) to 2.
      util::ByteWriter probe;
      x::EncMovImm(probe, isa::kEDX, 1);
      const auto imm_off = static_cast<std::uint32_t>(probe.size() - 4);
      a.MovLabelAddr(isa::kEBX, "target");
      x::EncMovImm(a.w(), isa::kEAX, 2);
      x::EncStore(a.w(), isa::kEAX, isa::kEBX, imm_off);
      x::EncCmpImm(a.w(), isa::kECX, 0);  // ecx = 5: not taken
      a.JzLabel("out");
      a.Label("target");
      x::EncMovImm(a.w(), isa::kEDX, 1);
      x::EncAddImm(a.w(), isa::kEDX, 10);
      a.Label("out");
      x::EncHlt(a.w());
    } else {
      util::ByteWriter patch;
      v::EncMovW(patch, isa::kR5, 2);
      const util::ByteSpan p = patch.bytes();
      const std::uint32_t word = p[0] | (p[1] << 8) | (p[2] << 16) |
                                 (static_cast<std::uint32_t>(p[3]) << 24);
      a.MovImm32Label(isa::kR6, "target");
      v::EncMovImm32(a.w(), isa::kR7, word);
      v::EncStr(a.w(), isa::kR7, isa::kR6, 0);
      v::EncCmpImm(a.w(), isa::kR2, 0);  // r2 = 5: not taken
      a.BeqLabel("out");
      a.Label("target");
      v::EncMovW(a.w(), isa::kR5, 1);
      v::EncAddImm(a.w(), isa::kR5, isa::kR5, 10);
      a.Label("out");
      v::EncHlt(a.w());
    }
    const util::Bytes code = a.Finish().value();
    SideExitCase c;
    c.arch = arch;
    c.stack_perm = mem::kPermRWX;
    c.setup = [arch, code](Machine& m) {
      ASSERT_TRUE(m.space.DebugWrite(0x8000, code).ok());
      m.cpu->set_reg(ArchReg(arch, isa::kECX, isa::kR2), 5);
      m.cpu->set_pc(0x8000);
    };
    c.budgets = {1000};
    const TierRun run = ExpectTiersAgree(c);
    EXPECT_EQ(run.reasons, std::vector<StopReason>{StopReason::kHalted});
    EXPECT_EQ(run.regs[ArchReg(arch, isa::kEDX, isa::kR5)], 12u);
  }
}

/// CFI on: a call inside a loop with a side exit, whose callee smashes its
/// own return address on the third call. The shadow stack must see the
/// same pushes and checks on both tiers and trap at the same ret.
TEST(CpuSuperblock, SideExitLoopUnderCfi) {
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    isa::Assembler a(arch, 0x1000);
    if (arch == Arch::kVX86) {
      a.Label("head");
      x::EncCmpImm(a.w(), isa::kECX, 0);
      a.JzLabel("out");
      a.CallLabel("f");
      x::EncSubImm(a.w(), isa::kECX, 1);
      a.JmpLabel("head");
      a.Label("out");
      x::EncHlt(a.w());
      a.Label("f");
      x::EncAddImm(a.w(), isa::kEAX, 3);
      x::EncCmpImm(a.w(), isa::kEAX, 9);
      a.JnzLabel("f_ret");
      x::EncPopReg(a.w(), isa::kEBX);  // drop the real return address
      a.PushLabelAddr("head");
      a.Label("f_ret");
      x::EncRet(a.w());
    } else {
      a.Label("head");
      v::EncCmpImm(a.w(), isa::kR4, 0);
      a.BeqLabel("out");
      a.BlLabel("f");
      v::EncSubImm(a.w(), isa::kR4, isa::kR4, 1);
      a.BLabel("head");
      a.Label("out");
      v::EncHlt(a.w());
      a.Label("f");
      v::EncPush(a.w(), 1u << isa::kLR);
      v::EncAddImm(a.w(), isa::kR0, isa::kR0, 3);
      v::EncCmpImm(a.w(), isa::kR0, 9);
      a.BneLabel("f_ret");
      v::EncPop(a.w(), 1u << isa::kR1);  // drop the real return address
      a.MovImm32Label(isa::kR1, "head");
      v::EncPush(a.w(), 1u << isa::kR1);
      a.Label("f_ret");
      v::EncPop(a.w(), 1u << isa::kPC);
    }
    SideExitCase c;
    c.arch = arch;
    c.text = a.Finish().value();
    c.setup = [arch](Machine& m) {
      m.cpu->set_shadow_stack_enabled(true);
      m.cpu->set_reg(ArchReg(arch, isa::kECX, isa::kR4), 6);
    };
    const TierRun run = ExpectTiersAgree(c);
    EXPECT_EQ(run.reasons, std::vector<StopReason>{StopReason::kCfiViolation});
    EXPECT_EQ(run.events.size(), 1u);
  }
}

/// Calls connman.copy_label(dst, src, len) on a booted system, returning
/// to connman.copy_done, whose hlt stops the CPU. The copy's frame sits
/// 0x40 below `dst`.
StopInfo CallCopyLabel(loader::System& sys, mem::GuestAddr dst,
                       mem::GuestAddr src, std::uint32_t len) {
  auto& cpu = *sys.cpu;
  const mem::GuestAddr copy = sys.Sym("connman.copy_label").value();
  const mem::GuestAddr done = sys.Sym("connman.copy_done").value();
  cpu.set_sp(dst - 0x40);
  if (sys.arch == Arch::kVX86) {
    EXPECT_TRUE(cpu.Push(len).ok());
    EXPECT_TRUE(cpu.Push(src).ok());
    EXPECT_TRUE(cpu.Push(dst).ok());
    EXPECT_TRUE(cpu.Push(done).ok());
  } else {
    cpu.set_reg(isa::kR0, dst);
    cpu.set_reg(isa::kR1, src);
    cpu.set_reg(isa::kR2, len);
    cpu.set_reg(isa::kLR, done);
  }
  cpu.set_pc(copy);
  const StopInfo stop = cpu.Run(64 + 8ull * len);
  EXPECT_EQ(stop.reason, StopReason::kHalted) << stop.ToString();
  return stop;
}

/// The value of counter `name` in `scope`, 0 when it never moved.
std::uint64_t Counter(const obs::Scope& scope, const std::string& name) {
  const auto counters = scope.Metrics().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// No host function sits at connman.copy_done: the copy returns to its
/// hlt, which stops the CPU there. With the tier on, blocks retire every
/// step, the lone `ret`/`bx lr` and the hlt included, and the run leaves
/// the interpreter's registers, memory, steps and stop record.
TEST(CpuSuperblock, CopyLabelHaltsAtCopyDoneInTheTier) {
  struct Outcome {
    StopInfo stop;
    mem::GuestAddr done = 0;
    std::array<std::uint32_t, 16> regs{};
    std::vector<util::Bytes> memory;
    std::uint64_t interp_steps = 0;
  };
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    const auto run = [arch](bool superblocks) {
      Outcome out;
      obs::Scope scope;
      {
        auto sys = loader::Boot(arch, loader::ProtectionConfig::None(), 11,
                                {.superblocks = superblocks})
                       .value();
        out.done = sys->Sym("connman.copy_done").value();
        EXPECT_FALSE(sys->cpu->IsHostFn(out.done));
        out.stop = CallCopyLabel(*sys, sys->layout.initial_sp() - 0x400,
                                 sys->layout.heap_base, 200);
        for (std::uint8_t i = 0; i < 16; ++i) out.regs[i] = sys->cpu->reg(i);
        for (const auto& seg : sys->space.segments()) {
          out.memory.push_back(seg->data());
        }
      }  // ~Cpu flushes the batched counters
      out.interp_steps = Counter(scope, "vm.steps.interp");
      return out;
    };
    const Outcome tier = run(true);
    const Outcome interp = run(false);
    EXPECT_EQ(tier.stop.pc, tier.done);
    EXPECT_EQ(tier.stop.detail, "hlt");
    EXPECT_EQ(tier.interp_steps, 0u);
    EXPECT_EQ(tier.stop.reason, interp.stop.reason);
    EXPECT_EQ(tier.stop.pc, interp.stop.pc);
    EXPECT_EQ(tier.stop.steps, interp.stop.steps);
    EXPECT_EQ(tier.regs, interp.regs);
    EXPECT_TRUE(tier.memory == interp.memory);
    EXPECT_EQ(interp.interp_steps, interp.stop.steps);
  }
}

/// A block whose jmp lands on a host function: Run probes the host pc's
/// negative slot once and steps the interpreter there, so the run counts
/// one block dispatch and one fallback.
TEST(CpuSuperblock, JumpIntoHostFunctionCountsOneFallback) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 1);
  x::EncJmp(w, 0x1100);
  obs::Scope scope;
  {
    auto m = MakeMachine(Arch::kVX86, w.bytes());
    ASSERT_TRUE(m.cpu
                    ->RegisterHostFn(0x1100, "stop",
                                     [](Cpu& c) {
                                       c.RequestStop(StopReason::kHalted,
                                                     "host");
                                       return util::OkStatus();
                                     })
                    .ok());
    const StopInfo stop = m.cpu->Run(100);
    EXPECT_EQ(stop.reason, StopReason::kHalted);
    EXPECT_EQ(stop.pc, 0x1100u);
    EXPECT_EQ(stop.steps, 3u);  // mov, jmp, the host function
  }
  EXPECT_EQ(Counter(scope, "vm.superblock.hits"), 1u);
  EXPECT_EQ(Counter(scope, "vm.superblock.fallbacks"), 1u);
  EXPECT_EQ(Counter(scope, "vm.steps.superblock"), 2u);
  EXPECT_EQ(Counter(scope, "vm.steps.interp"), 1u);
}

/// connman.copy_label's loop is one self-looping block: a 200-byte copy
/// dispatches about one block per byte, where splitting the loop at its
/// jz (two blocks per byte) records twice that. Bulk passes count as
/// dispatches too.
TEST(CpuSuperblock, CopyLabelRunsOneBlockPassPerByte) {
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    constexpr std::uint32_t kLen = 200;
    obs::Scope scope;
    {
      auto sys =
          loader::Boot(arch, loader::ProtectionConfig::None(), 11).value();
      CallCopyLabel(*sys, sys->layout.initial_sp() - 0x400,
                    sys->layout.heap_base, kLen);
    }  // ~Cpu flushes the batched counters
    const std::uint64_t hits =
        scope.Metrics().counters.at("vm.superblock.hits");
    EXPECT_GE(hits, kLen);
    EXPECT_LE(hits, kLen + 4);
  }
}

// --- Bulk copy passes ---------------------------------------------------------
//
// A byte-copy loop's closing branch retires whole passes in bulk at each
// self-loop re-entry (vm/superblock.hpp). Every case runs on both ISAs,
// with coverage attached and detached, and must leave exactly what the
// interpreter leaves; vm.superblock.bulk_passes shows how many passes the
// bulk path took.

/// ExpectTiersAgree, returning the superblock run's bulk passes.
std::uint64_t ExpectTiersAgreeCountingBulk(const SideExitCase& c) {
  obs::Scope scope;
  ExpectTiersAgree(c);  // the interpreter run has no tier counters
  return Counter(scope, "vm.superblock.bulk_passes");
}

/// A copy loop case with coverage attached or not.
SideExitCase CopyCase(Arch arch, bool coverage, mem::GuestAddr dst,
                      mem::GuestAddr src, std::uint32_t count) {
  SideExitCase c;
  c.arch = arch;
  c.coverage = coverage;
  c.text = WhileCopyLoop(arch);
  c.setup = CopyArgs(arch, dst, src, count);
  return c;
}

/// Lengths 0-80 and 300. The first pass runs on the ordinary handlers and
/// its re-entry retires every other copying pass in bulk, so a 300-byte
/// copy also saturates the loop's coverage cells and dirties two pages.
TEST(CpuBulkCopy, EveryLengthMatchesInterpreter) {
  std::vector<std::uint32_t> lengths;
  for (std::uint32_t n = 0; n <= 80; ++n) lengths.push_back(n);
  lengths.push_back(300);
  for (const Arch arch : kBothArchs) {
    for (const bool coverage : {true, false}) {
      for (const std::uint32_t n : lengths) {
        SCOPED_TRACE(std::string(isa::ArchName(arch)) +
                     (coverage ? " cov " : " no-cov ") + std::to_string(n));
        const SideExitCase c = CopyCase(arch, coverage, 0x84F0, 0x4010, n);
        EXPECT_EQ(ExpectTiersAgreeCountingBulk(c), n > 1 ? n - 1 : 0u);
      }
    }
  }
}

/// The source or the destination ends `left` bytes into the copy: the bulk
/// stops at the segment's last byte and the ordinary ldb/ldrb or stb/strb
/// takes the fault, with the interpreter's pc, detail and fault record.
TEST(CpuBulkCopy, FaultAtEachOffsetNearASegmentEnd) {
  for (const Arch arch : kBothArchs) {
    for (const bool coverage : {true, false}) {
      for (const std::uint32_t left : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                       17u, 39u}) {
        SCOPED_TRACE(std::string(isa::ArchName(arch)) +
                     (coverage ? " cov " : " no-cov ") + std::to_string(left));
        // The source runs off the end of .data.
        SideExitCase c = CopyCase(arch, coverage, 0x8400, 0x5000 - left, 40);
        TierRun run = ExpectTiersAgree(c);
        ASSERT_EQ(run.reasons, std::vector<StopReason>{StopReason::kFault});
        EXPECT_EQ(run.details[0], "ldrb failed");
        // The destination runs off the top of the stack.
        c = CopyCase(arch, coverage, 0x9000 - left, 0x4010, 40);
        run = ExpectTiersAgree(c);
        ASSERT_EQ(run.reasons, std::vector<StopReason>{StopReason::kFault});
        EXPECT_EQ(run.details[0], "strb failed");
      }
      // A read-only destination and an unmapped source fault on pass one.
      SideExitCase c = CopyCase(arch, coverage, 0x1800, 0x4010, 40);
      EXPECT_EQ(ExpectTiersAgree(c).details[0], "strb failed");
      c = CopyCase(arch, coverage, 0x8400, 0x6000, 40);
      EXPECT_EQ(ExpectTiersAgree(c).details[0], "ldrb failed");
    }
  }
}

/// Source and destination overlap inside .data in both directions: the
/// copy is byte-forward, so a destination just above the source repeats
/// the source's first bytes, as the guest loop does.
TEST(CpuBulkCopy, OverlappingCopiesRunByteForward) {
  for (const Arch arch : kBothArchs) {
    for (const bool coverage : {true, false}) {
      for (const int shift : {-64, -5, -1, 0, 1, 3, 64}) {
        SCOPED_TRACE(std::string(isa::ArchName(arch)) +
                     (coverage ? " cov " : " no-cov ") + std::to_string(shift));
        const mem::GuestAddr src = 0x4100;
        const SideExitCase c = CopyCase(
            arch, coverage, src + static_cast<std::uint32_t>(shift), src, 100);
        const TierRun run = ExpectTiersAgree(c);
        if (shift != 3) continue;
        const util::Bytes& data = run.memory[1];  // .data
        for (std::uint32_t i = 0; i < 100; ++i) {
          ASSERT_EQ(data[0x103 + i],
                    static_cast<std::uint8_t>((0x100 + i % 3) * 7 + 3));
        }
      }
    }
  }
}

/// Every budget up to past the end of a 12-byte copy, resumed twice: the
/// budget runs out at, before and after every pass boundary, and the bulk
/// always leaves one pass of budget to the ordinary handlers.
TEST(CpuBulkCopy, StepBudgetsAroundEveryPassBoundary) {
  constexpr std::uint32_t kLen = 12;  // 8 * 12 + 3 steps to the hlt
  for (const Arch arch : kBothArchs) {
    for (const bool coverage : {true, false}) {
      for (std::uint64_t budget = 1; budget <= 8 * kLen + 12; ++budget) {
        SCOPED_TRACE(std::string(isa::ArchName(arch)) +
                     (coverage ? " cov " : " no-cov ") +
                     std::to_string(budget));
        SideExitCase c = CopyCase(arch, coverage, 0x8400, 0x4010, kLen);
        c.budgets = {budget, budget, 1000};
        const TierRun run = ExpectTiersAgree(c);
        EXPECT_EQ(run.reasons.back(), StopReason::kHalted);
      }
    }
  }
}

/// The loop runs from an RWX stack and its destination climbs into that
/// segment from a mapping right below it. The re-entry after the last byte
/// below the boundary must not bulk into the block's own code: its next
/// store takes the mid-block SMC exit, and the hlt bytes it copies over the
/// loop end the run.
TEST(CpuBulkCopy, NoBulkIntoTheBlocksOwnCodeSegment) {
  for (const Arch arch : kBothArchs) {
    util::ByteWriter hlt;
    if (arch == Arch::kVX86) {
      x::EncHlt(hlt);
    } else {
      v::EncHlt(hlt);
    }
    util::Bytes fill;
    while (fill.size() < 64) {
      fill.insert(fill.end(), hlt.bytes().begin(), hlt.bytes().end());
    }
    const util::Bytes code = WhileCopyLoop(arch, 0x8000);
    for (const bool coverage : {true, false}) {
      for (std::uint32_t below = 1; below <= 4; ++below) {
        SCOPED_TRACE(std::string(isa::ArchName(arch)) +
                     (coverage ? " cov " : " no-cov ") + std::to_string(below));
        SideExitCase c;
        c.arch = arch;
        c.coverage = coverage;
        c.stack_perm = mem::kPermRWX;
        c.setup = [arch, code, fill, below](Machine& m) {
          ASSERT_TRUE(m.space.Map("pad", 0x7000, 0x1000, mem::kPermRW).ok());
          ASSERT_TRUE(m.space.DebugWrite(0x8000, code).ok());
          CopyArgs(arch, 0x8000 - below, 0x4000, 32)(m);
          ASSERT_TRUE(m.space.DebugWrite(0x4000, fill).ok());
          m.cpu->set_pc(0x8000);
        };
        c.budgets = {1000};
        EXPECT_EQ(ExpectTiersAgreeCountingBulk(c), below - 1);
      }
    }
  }
}

/// A dirty-only snapshot restore after a bulk copy equals a full restore:
/// the bulk marked every page it wrote, including the ones no ordinary
/// pass touched.
TEST(CpuBulkCopy, DirtyOnlyRestoreAfterBulkCopyEqualsFullRestore) {
  for (const Arch arch : kBothArchs) {
    SCOPED_TRACE(isa::ArchName(arch));
    constexpr std::uint32_t kLen = 600;
    obs::Scope scope;
    {
      auto sys =
          loader::Boot(arch, loader::ProtectionConfig::None(), 11).value();
      util::Bytes pattern(kLen);
      for (std::uint32_t i = 0; i < kLen; ++i) {
        pattern[i] = static_cast<std::uint8_t>(i * 13 + 1);
      }
      const mem::GuestAddr src = sys->layout.heap_base;
      ASSERT_TRUE(sys->space.DebugWrite(src, pattern).ok());
      const loader::Snapshot snap = loader::TakeSnapshot(*sys);

      const mem::GuestAddr dst = sys->layout.initial_sp() - 0x3F0;
      CallCopyLabel(*sys, dst, src, kLen);
      ASSERT_EQ(sys->space.DebugRead(dst, kLen).value(), pattern);

      ASSERT_TRUE(loader::RestoreSnapshot(*sys, snap,
                                          loader::RestoreMode::kDirtyOnly)
                      .ok());
      for (const loader::Snapshot::SegmentImage& image : snap.segments) {
        SCOPED_TRACE(image.name);
        const mem::Segment* seg = sys->space.FindSegmentByName(image.name);
        ASSERT_NE(seg, nullptr);
        EXPECT_TRUE(seg->data() == image.data);  // what kFull copies back
      }
    }
    EXPECT_GE(scope.Metrics().counters.at("vm.superblock.bulk_passes"),
              kLen - 2);
  }
}

/// Snapshot state round-trip at the CPU level: registers, flags, steps,
/// events and the shadow stack all restore; the stop record clears.
TEST(CpuState, SaveRestoreRoundTrip) {
  util::ByteWriter w;
  x::EncMovImm(w, isa::kEAX, 11);
  x::EncCmpImm(w, isa::kEAX, 11);
  x::EncHlt(w);
  auto m = MakeMachine(Arch::kVX86, w.bytes());
  m.cpu->PushEvent(EventKind::kNote, "pre-save");
  auto stop = m.cpu->Run(100);
  EXPECT_EQ(stop.reason, StopReason::kHalted);
  const Cpu::State state = m.cpu->SaveState();

  m.cpu->set_reg(isa::kEAX, 999);
  m.cpu->set_zf(false);
  m.cpu->set_pc(0xDEAD);
  m.cpu->PushEvent(EventKind::kNote, "post-save");

  m.cpu->RestoreState(state);
  EXPECT_EQ(m.cpu->reg(isa::kEAX), 11u);
  EXPECT_TRUE(m.cpu->zf());
  EXPECT_EQ(m.cpu->pc(), state.pc);
  EXPECT_EQ(m.cpu->steps_executed(), state.steps);
  ASSERT_EQ(m.cpu->events().size(), 1u);
  EXPECT_EQ(m.cpu->events()[0].text, "pre-save");
  EXPECT_FALSE(m.cpu->stopped());
}

}  // namespace
}  // namespace connlab::vm
