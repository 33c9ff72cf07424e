// Two-pass mini assembler used by the loader to build guest binaries
// (the simulated Connman image, libc images, adapted targets).
//
// The Assembler tracks the current guest address, supports named labels with
// forward references (fixed up in Finish()), and raw data directives. The
// per-ISA instruction encoders live in vx86.hpp / varm.hpp; callers mix them
// with the label-aware branch helpers here.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/isa/isa.hpp"
#include "src/isa/varm.hpp"
#include "src/isa/vx86.hpp"
#include "src/mem/segment.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::isa {

class Assembler {
 public:
  Assembler(Arch arch, mem::GuestAddr base) : arch_(arch), base_(base) {}

  [[nodiscard]] Arch arch() const noexcept { return arch_; }
  [[nodiscard]] mem::GuestAddr base() const noexcept { return base_; }
  /// Guest address of the next byte to be emitted.
  [[nodiscard]] mem::GuestAddr addr() const noexcept {
    return base_ + static_cast<mem::GuestAddr>(w_.size());
  }

  /// Direct access for the per-ISA encoders: vx86::EncMovImm(a.w(), ...).
  util::ByteWriter& w() noexcept { return w_; }

  // --- Labels --------------------------------------------------------------
  /// Defines `name` at the current address. Re-definition is an error
  /// surfaced by Finish().
  void Label(const std::string& name);
  [[nodiscard]] util::Result<mem::GuestAddr> LabelAddr(const std::string& name) const;

  // --- Label-aware control flow (emit + record fixup) ------------------------
  // VX86 absolute-target forms:
  void CallLabel(const std::string& name);
  void JmpLabel(const std::string& name);
  void JzLabel(const std::string& name);
  void JnzLabel(const std::string& name);
  /// push imm32 where imm is a label address (e.g. pushing a string ptr).
  void PushLabelAddr(const std::string& name);
  /// mov reg, label-address.
  void MovLabelAddr(std::uint8_t reg, const std::string& name);

  // VARM relative forms:
  void BlLabel(const std::string& name);
  void BLabel(const std::string& name);
  void BeqLabel(const std::string& name);
  void BneLabel(const std::string& name);
  /// ldrl rd, =label (pc-relative literal load of the word AT the label).
  void LdrLitLabel(std::uint8_t rd, const std::string& name);
  /// movw/movt pair loading a label's address.
  void MovImm32Label(std::uint8_t rd, const std::string& name);

  // --- Data directives -------------------------------------------------------
  void Word32(std::uint32_t v) { w_.WriteU32LE(v); }
  /// Emits a 32-bit little-endian word holding a label's address.
  void Word32Label(const std::string& name);
  void Byte(std::uint8_t v) { w_.WriteU8(v); }
  void Ascii(std::string_view text) { w_.WriteString(text); }
  void Asciz(std::string_view text);
  /// Pads with HLT-encoding filler up to the given alignment.
  void AlignTo(std::uint32_t alignment);

  /// Resolves all fixups and returns the encoded bytes. Fails if any label
  /// is undefined, doubly defined, or a relative branch is out of range.
  util::Result<util::Bytes> Finish();

  /// All labels (guest addresses), handed over once assembly is done —
  /// they become the symbol table.
  [[nodiscard]] std::map<std::string, mem::GuestAddr> TakeLabels() && {
    return std::move(labels_);
  }

 private:
  enum class FixKind : std::uint8_t {
    kAbs32,        // little-endian absolute address at offset
    kVarmMovWT,    // movw imm16 at offset (low half), movt's 4 on (high)
    kVarmBl24,     // 24-bit signed word offset, relative to next pc
    kVarmRel16,    // 16-bit signed word offset, relative to next pc
    kVarmLit16,    // 16-bit signed byte offset, relative to next pc
  };
  struct Fixup {
    std::size_t offset;       // where in the buffer the field lives
    mem::GuestAddr insn_addr; // guest address of the instruction start
    std::string label;
    FixKind kind;
  };

  Arch arch_;
  mem::GuestAddr base_;
  util::ByteWriter w_;
  std::map<std::string, mem::GuestAddr> labels_;
  std::vector<Fixup> fixups_;
  std::vector<std::string> errors_;
};

}  // namespace connlab::isa
