// Gadget discovery over a loaded guest image — the ropper / ROPgadget role
// from §III-B2 and §III-C1.
//
// On VX86 the scan starts at *every byte offset* of .text, because the
// variable-length encoding yields unintended gadgets inside instruction
// immediates (the same property real x86 tools exploit). On VARM the scan
// is word-aligned, matching the fixed-width encoding.
//
// The shape queries scan .text once, in address order, and keep only their
// answer: the first match, or for `FindPopRegsPc` the smallest covering
// gadget, the earliest of equal size.
#pragma once

#include <string>
#include <vector>

#include "src/isa/isa.hpp"
#include "src/loader/boot.hpp"
#include "src/util/status.hpp"

namespace connlab::gadget {

struct Gadget {
  mem::GuestAddr addr = 0;
  std::vector<isa::Instr> instrs;  // terminator included

  /// "pop esi; pop edi; ret" — for listings and logs.
  [[nodiscard]] std::string ToString(isa::Arch arch) const;
};

class Finder {
 public:
  /// Scans the image's .text section.
  explicit Finder(const loader::System& sys);

  /// Every gadget of at most `max_instrs` instructions ending in a control
  /// transfer usable for chaining: VX86 `ret`; VARM `pop {..., pc}` or
  /// `blx reg` / `bx reg`.
  [[nodiscard]] std::vector<Gadget> FindAll(int max_instrs = 4) const;

  // --- The specific shapes the paper's exploits need -----------------------

  /// VX86: exactly `pop_count` pops followed by ret (the "pppr" shape), at
  /// the lowest address that has one.
  [[nodiscard]] util::Result<Gadget> FindPopRet(int pop_count) const;

  /// VARM: a `pop {mask, pc}` gadget whose mask covers `required_mask`
  /// (pc implied). Returns the *smallest* covering gadget so callers can
  /// derive the frame layout from its actual mask; of equal sizes, the one
  /// at the lowest address.
  [[nodiscard]] util::Result<Gadget> FindPopRegsPc(std::uint16_t required_mask) const;

  /// VARM: the first `blx <reg>`; the instructions following it (up to 2) are
  /// included so the caller can see how control continues after the call
  /// returns (the paper's pop {r8, pc} tail).
  [[nodiscard]] util::Result<Gadget> FindBlx(std::uint8_t reg) const;

  [[nodiscard]] isa::Arch arch() const noexcept { return arch_; }
  [[nodiscard]] std::size_t text_size() const noexcept { return text_.size(); }

 private:
  bool IsTerminator(const isa::Instr& ins) const;
  bool IsChainable(const isa::Instr& ins) const;

  isa::Arch arch_;
  mem::GuestAddr text_base_ = 0;
  util::Bytes text_;
};

}  // namespace connlab::gadget
