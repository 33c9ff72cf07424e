// Common instruction model for connlab's two synthetic 32-bit ISAs.
//
// VX86 — x86-flavoured: variable-length encoding, stack-passed call
//   arguments (cdecl), a one-byte NOP (0x90), and RET popping the return
//   address off the stack.
// VARM — ARMv7-flavoured: fixed 4-byte instructions, register-passed
//   arguments (r0-r3), link-register calls (BL/BLX), no RET — returns happen
//   via BX lr or POP {..., pc}.
//
// The pair is deliberately asymmetric in exactly the dimensions the DSN'19
// paper's exploits differ: argument passing, NOP width, return mechanism.
// Neither encoding matches any real ISA; payloads built for them are inert
// outside this simulator.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace connlab::isa {

enum class Arch : std::uint8_t { kVX86, kVARM };

std::string_view ArchName(Arch arch) noexcept;

// Register numbering.
//
// VX86 uses 8 general registers; names follow x86 convention. ESP is the
// stack pointer, EBP the frame pointer. The program counter (EIP) is not a
// numbered register.
enum VX86Reg : std::uint8_t {
  kEAX = 0, kECX = 1, kEDX = 2, kEBX = 3,
  kESP = 4, kEBP = 5, kESI = 6, kEDI = 7,
  kVX86RegCount = 8,
};

// VARM uses 16 registers, ARM-style: r13 = sp, r14 = lr, r15 = pc.
enum VARMReg : std::uint8_t {
  kR0 = 0, kR1 = 1, kR2 = 2, kR3 = 3, kR4 = 4, kR5 = 5, kR6 = 6, kR7 = 7,
  kR8 = 8, kR9 = 9, kR10 = 10, kR11 = 11, kR12 = 12,
  kSP = 13, kLR = 14, kPC = 15,
  kVARMRegCount = 16,
};

std::string_view VX86RegName(std::uint8_t reg) noexcept;
std::string_view VARMRegName(std::uint8_t reg) noexcept;

// Unified decoded-instruction representation. Operand meaning depends on op.
enum class Op : std::uint8_t {
  // Shared concepts (encodings differ per ISA).
  kNop,
  kMovImm,    // reg <- imm32 (VARM: MOVW writes low half & clears top)
  kMovReg,    // regA <- regB
  kLoad,      // reg <- [reg + disp]
  kStore,     // [reg + disp] <- reg
  kLoadByte,  // reg <- zero-extended byte at [reg + disp]
  kStoreByte, // [reg + disp] <- low byte of reg
  kAddImm,    // reg += imm
  kSubImm,    // reg -= imm
  kAddReg,    // regA = regB + regC
  kXorReg,    // regA ^= regB
  kMvn,       // regA = ~regB            (VARM only; parse_rr flavour)
  kCmpImm,    // flags = (reg == imm)
  kJmp,       // pc <- target
  kJz,
  kJnz,
  kCall,      // VX86: push ret, jump. (absolute target)
  kRet,       // VX86 only: pop pc
  kJmpInd,    // VX86 only: pc <- [abs32]  (PLT stub)
  kPush,      // VX86: push reg. VARM: push {mask}
  kPushImm,   // VX86 only: push imm32
  kPop,       // VX86: pop reg. VARM: pop {mask} (may include pc)
  kMovT,      // VARM only: reg[31:16] <- imm16
  kLdrLit,    // VARM only: reg <- [pc_next + simm]   (literal pool)
  kLdrInd,    // VARM only: reg <- [regB]
  kBl,        // VARM only: lr <- next, pc <- target (absolute, via assembler)
  kBlx,       // VARM only: lr <- next, pc <- reg
  kBx,        // VARM only: pc <- reg
  kSyscall,
  kHlt,
};

std::string_view OpName(Op op) noexcept;

struct Instr {
  Op op = Op::kHlt;
  std::uint8_t ra = 0;          // primary register
  std::uint8_t rb = 0;          // secondary register
  std::uint8_t rc = 0;          // tertiary register (kAddReg)
  std::uint32_t imm = 0;        // immediate / displacement / absolute target
  std::uint16_t reg_mask = 0;   // VARM push/pop register list
  std::uint8_t length = 0;      // encoded size in bytes

  [[nodiscard]] std::string ToString(Arch arch) const;
};

/// Instruction width bookkeeping: VARM is fixed 4; VX86 varies per op.
constexpr std::uint32_t kVARMInstrSize = 4;
/// Longest VX86 encoding (opcode + two reg bytes + 4-byte immediate). Fetch
/// windows and block decodes never need more than this.
constexpr std::uint32_t kVX86MaxInstrSize = 7;

}  // namespace connlab::isa
