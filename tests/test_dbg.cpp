// Debugger tests: the gdb-role primitives the profile extractor builds on.
#include <gtest/gtest.h>

#include "src/dbg/debugger.hpp"
#include "src/isa/vx86.hpp"
#include "src/loader/boot.hpp"

namespace connlab::dbg {
namespace {

using isa::Arch;
using loader::Boot;
using loader::ProtectionConfig;

std::unique_ptr<loader::System> MakeSys(Arch arch = Arch::kVX86) {
  auto sys = Boot(arch, ProtectionConfig::None(), 11);
  EXPECT_TRUE(sys.ok());
  return std::move(sys).value();
}

TEST(Debugger, ReadsGuestMemoryRegardlessOfPerms) {
  auto sys = MakeSys();
  Debugger dbg(*sys);
  // .text is not readable via normal writes but the debugger sees it.
  auto bytes = dbg.ReadMem(sys->layout.text_base, 16);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value().size(), 16u);
  EXPECT_FALSE(dbg.ReadMem(0x100, 4).ok());  // unmapped stays unmapped
}

TEST(Debugger, ReadWordLittleEndian) {
  auto sys = MakeSys();
  Debugger dbg(*sys);
  ASSERT_TRUE(dbg.WriteMem(sys->layout.bss_base,
                           util::Bytes{0x78, 0x56, 0x34, 0x12}).ok());
  EXPECT_EQ(dbg.ReadWord(sys->layout.bss_base).value(), 0x12345678u);
}

TEST(Debugger, ExamineProducesHexdump) {
  auto sys = MakeSys();
  Debugger dbg(*sys);
  auto dump = dbg.Examine(sys->layout.text_base, 32);
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump.value().find("08048000"), std::string::npos);
}

TEST(Debugger, DisassembleShowsPltJump) {
  auto sys = MakeSys();
  Debugger dbg(*sys);
  const auto plt = dbg.SymbolAddr("plt.memcpy").value();
  auto listing = dbg.Disassemble(plt, 5);
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing.value().find("jmp ["), std::string::npos);
}

TEST(Debugger, DescribeUsesSymbols) {
  auto sys = MakeSys();
  Debugger dbg(*sys);
  const auto parse = dbg.SymbolAddr("connman.parse_response").value();
  EXPECT_EQ(dbg.Describe(parse), "connman.parse_response");
  EXPECT_EQ(dbg.Describe(parse + 0), dbg.Describe(parse));
}

TEST(Debugger, MapsAndRegistersRender) {
  auto sys = MakeSys(Arch::kVARM);
  Debugger dbg(*sys);
  const std::string maps = dbg.Maps();
  EXPECT_NE(maps.find(".text"), std::string::npos);
  EXPECT_NE(maps.find("libc"), std::string::npos);
  EXPECT_NE(maps.find("stack"), std::string::npos);
  EXPECT_NE(dbg.Registers().find("pc="), std::string::npos);
}

TEST(Debugger, WriteMemPatchesCode) {
  auto sys = MakeSys();
  Debugger dbg(*sys);
  const auto start = dbg.SymbolAddr("connman._start").value();
  util::ByteWriter w;
  isa::vx86::EncHlt(w);
  ASSERT_TRUE(dbg.WriteMem(start, w.bytes()).ok());
  sys->cpu->set_pc(start);
  auto stop = sys->cpu->Run(10);
  EXPECT_EQ(stop.reason, vm::StopReason::kHalted);
  EXPECT_EQ(stop.pc, start);
}

}  // namespace
}  // namespace connlab::dbg
