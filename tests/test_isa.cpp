// Unit tests for the two synthetic ISAs: encode/decode round trips, the
// assembler's label fixups, and the disassembler sweep.
#include <gtest/gtest.h>

#include "src/isa/assembler.hpp"
#include "src/isa/disasm.hpp"
#include "src/isa/isa.hpp"
#include "src/isa/varm.hpp"
#include "src/isa/vx86.hpp"

namespace connlab::isa {
namespace {

using util::ByteWriter;
using util::Bytes;

// ---------------------------------------------------------------- VX86 ----

TEST(VX86, NopIsSingleByte0x90) {
  ByteWriter w;
  vx86::EncNop(w);
  ASSERT_EQ(w.bytes(), (Bytes{0x90}));
  auto ins = vx86::Decode(w.bytes(), 0);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().op, Op::kNop);
  EXPECT_EQ(ins.value().length, 1);
}

TEST(VX86, MovImmRoundTrip) {
  ByteWriter w;
  vx86::EncMovImm(w, kEAX, 0xdeadbeef);
  auto ins = vx86::Decode(w.bytes(), 0);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().op, Op::kMovImm);
  EXPECT_EQ(ins.value().ra, kEAX);
  EXPECT_EQ(ins.value().imm, 0xdeadbeefu);
  EXPECT_EQ(ins.value().length, 6);
}

TEST(VX86, AllOpsRoundTrip) {
  ByteWriter w;
  vx86::EncNop(w);
  vx86::EncPushImm(w, 0x11223344);
  vx86::EncPushReg(w, kEBX);
  vx86::EncPopReg(w, kECX);
  vx86::EncMovImm(w, kEDX, 5);
  vx86::EncMovReg(w, kESI, kEDI);
  vx86::EncLoad(w, kEAX, kESP, 4);
  vx86::EncStore(w, kEAX, kEBP, 8);
  vx86::EncAddImm(w, kESP, 0xC);
  vx86::EncSubImm(w, kESP, 0x10);
  vx86::EncCall(w, 0x8048000);
  vx86::EncRet(w);
  vx86::EncJmp(w, 0x8048010);
  vx86::EncJmpInd(w, 0x804F000);
  vx86::EncSyscall(w);
  vx86::EncHlt(w);
  vx86::EncXorReg(w, kEAX, kEAX);
  vx86::EncCmpImm(w, kEAX, 0);
  vx86::EncJz(w, 0x8048020);
  vx86::EncJnz(w, 0x8048030);
  vx86::EncAddReg(w, kEAX, kEBX, kECX);

  const Op expected[] = {
      Op::kNop, Op::kPushImm, Op::kPush, Op::kPop, Op::kMovImm, Op::kMovReg,
      Op::kLoad, Op::kStore, Op::kAddImm, Op::kSubImm, Op::kCall, Op::kRet,
      Op::kJmp, Op::kJmpInd, Op::kSyscall, Op::kHlt, Op::kXorReg, Op::kCmpImm,
      Op::kJz, Op::kJnz, Op::kAddReg};
  std::size_t offset = 0;
  for (Op want : expected) {
    auto ins = vx86::Decode(w.bytes(), offset);
    ASSERT_TRUE(ins.ok()) << "at offset " << offset;
    EXPECT_EQ(ins.value().op, want);
    offset += ins.value().length;
  }
  EXPECT_EQ(offset, w.bytes().size());
}

TEST(VX86, InvalidOpcodeRejected) {
  Bytes junk{0xFE};
  EXPECT_FALSE(vx86::Decode(junk, 0).ok());
  EXPECT_EQ(vx86::InstrLength(0xFE), 0);
}

TEST(VX86, TruncatedInstructionRejected) {
  Bytes data{vx86::kOpMovImm, kEAX, 0x01, 0x02};  // needs 6 bytes
  EXPECT_FALSE(vx86::Decode(data, 0).ok());
}

TEST(VX86, BadRegisterRejected) {
  Bytes data{vx86::kOpPopReg, 9};
  EXPECT_FALSE(vx86::Decode(data, 0).ok());
}

TEST(VX86, UnalignedDecodeFindsHiddenGadgets) {
  // The tail of a mov-imm can decode as pop;ret — the unintended-gadget
  // property real x86 ROP tools rely on.
  ByteWriter w;
  vx86::EncMovImm(w, kEAX, 0x000B0003u | (static_cast<std::uint32_t>(kEBX) << 8));
  // imm bytes are: 03 bb 0b 00 -> at offset 2: "pop ebx; ret".
  auto pop = vx86::Decode(w.bytes(), 2);
  ASSERT_TRUE(pop.ok());
  EXPECT_EQ(pop.value().op, Op::kPop);
  auto ret = vx86::Decode(w.bytes(), 4);
  ASSERT_TRUE(ret.ok());
  EXPECT_EQ(ret.value().op, Op::kRet);
}

// ---------------------------------------------------------------- VARM ----

TEST(VARM, FixedWidthFourBytes) {
  ByteWriter w;
  varm::EncNop(w);
  EXPECT_EQ(w.bytes().size(), 4u);
  auto ins = varm::Decode(w.bytes(), 0);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().op, Op::kMovReg);  // nop == mov r1, r1
  EXPECT_EQ(ins.value().ra, kR1);
  EXPECT_EQ(ins.value().rb, kR1);
}

TEST(VARM, MovImm32PairLoadsFullWord) {
  ByteWriter w;
  varm::EncMovImm32(w, kR0, 0xCAFEBABE);
  auto movw = varm::Decode(w.bytes(), 0);
  auto movt = varm::Decode(w.bytes(), 4);
  ASSERT_TRUE(movw.ok());
  ASSERT_TRUE(movt.ok());
  EXPECT_EQ(movw.value().op, Op::kMovImm);
  EXPECT_EQ(movw.value().imm, 0xBABEu);
  EXPECT_EQ(movt.value().op, Op::kMovT);
  EXPECT_EQ(movt.value().imm, 0xCAFEu);
}

TEST(VARM, PushPopMaskRoundTrip) {
  const std::uint16_t mask =
      varm::Mask({kR0, kR1, kR2, kR3, kR5, kR6, kR7, kPC});
  EXPECT_EQ(mask, 0x80EF);
  ByteWriter w;
  varm::EncPop(w, mask);
  auto ins = varm::Decode(w.bytes(), 0);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().op, Op::kPop);
  EXPECT_EQ(ins.value().reg_mask, mask);
}

TEST(VARM, EmptyRegisterListRejected) {
  Bytes data{varm::kOpPop, 0, 0, 0};
  EXPECT_FALSE(varm::Decode(data, 0).ok());
}

TEST(VARM, BlSignedOffsets) {
  ByteWriter w;
  varm::EncBl(w, -5);
  auto ins = varm::Decode(w.bytes(), 0);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(static_cast<std::int32_t>(ins.value().imm), -5);
  ByteWriter w2;
  varm::EncBl(w2, 100000);
  EXPECT_EQ(static_cast<std::int32_t>(varm::Decode(w2.bytes(), 0).value().imm),
            100000);
}

TEST(VARM, BranchAndLiteralRoundTrip) {
  ByteWriter w;
  varm::EncB(w, -2);
  varm::EncBeq(w, 3);
  varm::EncBne(w, 4);
  varm::EncLdrLit(w, kR3, -8);
  auto b = varm::Decode(w.bytes(), 0);
  auto beq = varm::Decode(w.bytes(), 4);
  auto bne = varm::Decode(w.bytes(), 8);
  auto lit = varm::Decode(w.bytes(), 12);
  EXPECT_EQ(b.value().op, Op::kJmp);
  EXPECT_EQ(static_cast<std::int32_t>(b.value().imm), -2);
  EXPECT_EQ(beq.value().op, Op::kJz);
  EXPECT_EQ(bne.value().op, Op::kJnz);
  EXPECT_EQ(lit.value().op, Op::kLdrLit);
  EXPECT_EQ(static_cast<std::int32_t>(lit.value().imm), -8);
}

TEST(VARM, BlxBxAndIndirect) {
  ByteWriter w;
  varm::EncBlx(w, kR3);
  varm::EncBx(w, kLR);
  varm::EncLdrInd(w, kR12, kR12);
  EXPECT_EQ(varm::Decode(w.bytes(), 0).value().op, Op::kBlx);
  EXPECT_EQ(varm::Decode(w.bytes(), 0).value().ra, kR3);
  EXPECT_EQ(varm::Decode(w.bytes(), 4).value().op, Op::kBx);
  EXPECT_EQ(varm::Decode(w.bytes(), 4).value().ra, kLR);
  EXPECT_EQ(varm::Decode(w.bytes(), 8).value().op, Op::kLdrInd);
}

TEST(VARM, InvalidOpcodeRejected) {
  Bytes junk{0x7F, 0, 0, 0};
  EXPECT_FALSE(varm::Decode(junk, 0).ok());
}

TEST(VARM, ZeroWordDecodesAsHlt) {
  Bytes zeros(4, 0);
  auto ins = varm::Decode(zeros, 0);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().op, Op::kHlt);
}

// ----------------------------------------------------------- Assembler ----

TEST(Assembler, TracksAddresses) {
  Assembler a(Arch::kVX86, 0x8048000);
  EXPECT_EQ(a.addr(), 0x8048000u);
  vx86::EncNop(a.w());
  EXPECT_EQ(a.addr(), 0x8048001u);
  vx86::EncRet(a.w());
  EXPECT_EQ(a.addr(), 0x8048002u);
}

TEST(Assembler, ForwardLabelFixupVX86) {
  Assembler a(Arch::kVX86, 0x1000);
  a.JmpLabel("target");
  vx86::EncHlt(a.w());
  a.Label("target");
  vx86::EncRet(a.w());
  auto bytes = a.Finish();
  ASSERT_TRUE(bytes.ok());
  auto jmp = vx86::Decode(bytes.value(), 0);
  ASSERT_TRUE(jmp.ok());
  EXPECT_EQ(jmp.value().imm, 0x1006u);  // 5 (jmp) + 1 (hlt)
}

TEST(Assembler, UndefinedLabelFails) {
  Assembler a(Arch::kVX86, 0x1000);
  a.CallLabel("missing");
  EXPECT_FALSE(a.Finish().ok());
}

TEST(Assembler, RedefinedLabelFails) {
  Assembler a(Arch::kVX86, 0x1000);
  a.Label("x");
  a.Label("x");
  EXPECT_FALSE(a.Finish().ok());
}

TEST(Assembler, VarmBlLabelBackwards) {
  Assembler a(Arch::kVARM, 0x10000);
  a.Label("fn");
  varm::EncBx(a.w(), kLR);
  a.BlLabel("fn");
  auto bytes = a.Finish();
  ASSERT_TRUE(bytes.ok());
  auto bl = varm::Decode(bytes.value(), 4);
  ASSERT_TRUE(bl.ok());
  EXPECT_EQ(bl.value().op, Op::kBl);
  // bl at 0x10004, next pc 0x10008, target 0x10000 => -2 words.
  EXPECT_EQ(static_cast<std::int32_t>(bl.value().imm), -2);
}

TEST(Assembler, VarmLdrLitLabel) {
  Assembler a(Arch::kVARM, 0x20000);
  a.LdrLitLabel(kR12, "pool");
  varm::EncBx(a.w(), kR12);
  a.Label("pool");
  a.Word32(0x12345678);
  auto bytes = a.Finish();
  ASSERT_TRUE(bytes.ok());
  auto lit = varm::Decode(bytes.value(), 0);
  ASSERT_TRUE(lit.ok());
  // ldrl at 0x20000, next pc 0x20004, pool at 0x20008 => +4 bytes.
  EXPECT_EQ(static_cast<std::int32_t>(lit.value().imm), 4);
}

TEST(Assembler, VarmMovImm32Label) {
  Assembler a(Arch::kVARM, 0x30000);
  a.MovImm32Label(kR0, "s");
  varm::EncHlt(a.w());
  a.Label("s");
  a.Asciz("/bin/sh");
  auto bytes = a.Finish();
  ASSERT_TRUE(bytes.ok());
  auto movw = varm::Decode(bytes.value(), 0);
  auto movt = varm::Decode(bytes.value(), 4);
  const std::uint32_t addr =
      movw.value().imm | (movt.value().imm << 16);
  EXPECT_EQ(addr, 0x3000Cu);  // movw+movt+hlt = 12 bytes
}

TEST(Assembler, Word32LabelEmitsAbsoluteAddress) {
  Assembler a(Arch::kVARM, 0x40000);
  a.Word32Label("end");
  a.Label("end");
  auto bytes = a.Finish();
  ASSERT_TRUE(bytes.ok());
  util::ByteReader r(bytes.value());
  EXPECT_EQ(r.ReadU32LE().value(), 0x40004u);
}

// The fixup kind decides how a label's address is patched, never the bytes
// before the field: a data word after a movw opcode byte is still a word.
TEST(Assembler, Word32LabelAfterMovwOpcodeByteIsAbsolute) {
  Assembler a(Arch::kVARM, 0x40000);
  a.Byte(varm::kOpMovW);
  a.Byte(0);
  a.Word32Label("end");
  a.Label("end");
  auto bytes = a.Finish();
  ASSERT_TRUE(bytes.ok());
  util::ByteReader r(bytes.value());
  ASSERT_TRUE(r.Skip(2).ok());
  EXPECT_EQ(r.ReadU32LE().value(), 0x40006u);
}

TEST(Assembler, AlignAndAsciz) {
  Assembler a(Arch::kVX86, 0x1001);
  a.AlignTo(4);
  EXPECT_EQ(a.addr() % 4, 0u);
  a.Asciz("ab");
  auto bytes = a.Finish();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value().back(), 0);
}

TEST(Assembler, LabelsSnapshot) {
  Assembler a(Arch::kVX86, 0x1000);
  a.Label("start");
  vx86::EncNop(a.w());
  a.Label("after");
  EXPECT_EQ(a.LabelAddr("start").value(), 0x1000u);
  EXPECT_FALSE(a.LabelAddr("nope").ok());
  const auto labels = std::move(a).TakeLabels();
  EXPECT_EQ(labels.at("start"), 0x1000u);
  EXPECT_EQ(labels.at("after"), 0x1001u);
}

// ------------------------------------------------------------ Disasm ------

TEST(Disasm, SweepsVX86) {
  util::ByteWriter w;
  vx86::EncMovImm(w, kEAX, 11);
  vx86::EncSyscall(w);
  vx86::EncHlt(w);
  auto lines = Disassemble(Arch::kVX86, w.bytes(), 0x1000);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].addr, 0x1000u);
  EXPECT_EQ(lines[1].addr, 0x1006u);
  EXPECT_TRUE(lines[2].decoded);
}

TEST(Disasm, ResynchronisesAfterJunk) {
  Bytes data{0xFE, 0x90};  // junk byte then nop
  auto lines = Disassemble(Arch::kVX86, data, 0);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(lines[0].decoded);
  EXPECT_TRUE(lines[1].decoded);
}

TEST(Disasm, StringRenderingMentionsMnemonics) {
  util::ByteWriter w;
  varm::EncPop(w, varm::Mask({kR0, kPC}));
  varm::EncBlx(w, kR3);
  const std::string text = DisassembleToString(Arch::kVARM, w.bytes(), 0x10000);
  EXPECT_NE(text.find("pop {r0, pc}"), std::string::npos);
  EXPECT_NE(text.find("blx r3"), std::string::npos);
}

TEST(Disasm, InstrToStringForms) {
  util::ByteWriter w;
  vx86::EncMovImm(w, kEAX, 0x42);
  auto ins = vx86::Decode(w.bytes(), 0);
  EXPECT_EQ(ins.value().ToString(Arch::kVX86), "mov eax, #0x42");
}

}  // namespace
}  // namespace connlab::isa

namespace connlab::isa {
namespace {

TEST(VX86, ByteLoadStoreRoundTrip) {
  util::ByteWriter w;
  vx86::EncLoadByte(w, kEAX, kESI, 0x10);
  vx86::EncStoreByte(w, kEAX, kEDI, 0x20);
  auto ldb = vx86::Decode(w.bytes(), 0);
  ASSERT_TRUE(ldb.ok());
  EXPECT_EQ(ldb.value().op, Op::kLoadByte);
  EXPECT_EQ(ldb.value().imm, 0x10u);
  EXPECT_EQ(ldb.value().length, 7);
  auto stb = vx86::Decode(w.bytes(), 7);
  ASSERT_TRUE(stb.ok());
  EXPECT_EQ(stb.value().op, Op::kStoreByte);
  EXPECT_EQ(stb.value().ToString(Arch::kVX86), "strb eax, [edi, #0x20]");
}

TEST(VARM, ByteLoadStoreRoundTrip) {
  util::ByteWriter w;
  varm::EncLdrb(w, kR3, kR1, 0);
  varm::EncStrb(w, kR3, kR0, 4);
  auto ldrb = varm::Decode(w.bytes(), 0);
  ASSERT_TRUE(ldrb.ok());
  EXPECT_EQ(ldrb.value().op, Op::kLoadByte);
  auto strb = varm::Decode(w.bytes(), 4);
  ASSERT_TRUE(strb.ok());
  EXPECT_EQ(strb.value().op, Op::kStoreByte);
  EXPECT_EQ(strb.value().imm, 4u);
}

}  // namespace
}  // namespace connlab::isa
