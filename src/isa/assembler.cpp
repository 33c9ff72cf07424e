#include "src/isa/assembler.hpp"

#include <cstdio>

namespace connlab::isa {

void Assembler::Label(const std::string& name) {
  if (!labels_.try_emplace(name, addr()).second) {
    errors_.push_back("label redefined: " + name);
  }
}

util::Result<mem::GuestAddr> Assembler::LabelAddr(const std::string& name) const {
  auto it = labels_.find(name);
  if (it == labels_.end()) return util::NotFound("label not defined: " + name);
  return it->second;
}

void Assembler::CallLabel(const std::string& name) {
  const mem::GuestAddr insn = addr();
  vx86::EncCall(w_, 0);
  fixups_.push_back({w_.size() - 4, insn, name, FixKind::kAbs32});
}

void Assembler::JmpLabel(const std::string& name) {
  const mem::GuestAddr insn = addr();
  vx86::EncJmp(w_, 0);
  fixups_.push_back({w_.size() - 4, insn, name, FixKind::kAbs32});
}

void Assembler::JzLabel(const std::string& name) {
  const mem::GuestAddr insn = addr();
  vx86::EncJz(w_, 0);
  fixups_.push_back({w_.size() - 4, insn, name, FixKind::kAbs32});
}

void Assembler::JnzLabel(const std::string& name) {
  const mem::GuestAddr insn = addr();
  vx86::EncJnz(w_, 0);
  fixups_.push_back({w_.size() - 4, insn, name, FixKind::kAbs32});
}

void Assembler::PushLabelAddr(const std::string& name) {
  const mem::GuestAddr insn = addr();
  vx86::EncPushImm(w_, 0);
  fixups_.push_back({w_.size() - 4, insn, name, FixKind::kAbs32});
}

void Assembler::MovLabelAddr(std::uint8_t reg, const std::string& name) {
  const mem::GuestAddr insn = addr();
  vx86::EncMovImm(w_, reg, 0);
  fixups_.push_back({w_.size() - 4, insn, name, FixKind::kAbs32});
}

void Assembler::BlLabel(const std::string& name) {
  const mem::GuestAddr insn = addr();
  varm::EncBl(w_, 0);
  fixups_.push_back({w_.size() - 3, insn, name, FixKind::kVarmBl24});
}

void Assembler::BLabel(const std::string& name) {
  const mem::GuestAddr insn = addr();
  varm::EncB(w_, 0);
  fixups_.push_back({w_.size() - 2, insn, name, FixKind::kVarmRel16});
}

void Assembler::BeqLabel(const std::string& name) {
  const mem::GuestAddr insn = addr();
  varm::EncBeq(w_, 0);
  fixups_.push_back({w_.size() - 2, insn, name, FixKind::kVarmRel16});
}

void Assembler::BneLabel(const std::string& name) {
  const mem::GuestAddr insn = addr();
  varm::EncBne(w_, 0);
  fixups_.push_back({w_.size() - 2, insn, name, FixKind::kVarmRel16});
}

void Assembler::LdrLitLabel(std::uint8_t rd, const std::string& name) {
  const mem::GuestAddr insn = addr();
  varm::EncLdrLit(w_, rd, 0);
  fixups_.push_back({w_.size() - 2, insn, name, FixKind::kVarmLit16});
}

void Assembler::MovImm32Label(std::uint8_t rd, const std::string& name) {
  const mem::GuestAddr movw_insn = addr();
  varm::EncMovW(w_, rd, 0);
  // One fixup patches both immediates: the movw's here, the movt's one
  // instruction on.
  fixups_.push_back({w_.size() - 2, movw_insn, name, FixKind::kVarmMovWT});
  varm::EncMovT(w_, rd, 0);
}

void Assembler::Word32Label(const std::string& name) {
  const mem::GuestAddr here = addr();
  w_.WriteU32LE(0);
  fixups_.push_back({w_.size() - 4, here, name, FixKind::kAbs32});
}

void Assembler::Asciz(std::string_view text) {
  w_.WriteString(text);
  w_.WriteU8(0);
}

void Assembler::AlignTo(std::uint32_t alignment) {
  if (alignment == 0) return;
  while (addr() % alignment != 0) w_.WriteU8(0);
}

util::Result<util::Bytes> Assembler::Finish() {
  if (!errors_.empty()) return util::InvalidArgument(errors_.front());
  util::Bytes out = std::move(w_).Take();

  const auto patch16 = [&out](std::size_t offset, std::uint16_t v) {
    out[offset] = static_cast<std::uint8_t>(v & 0xFF);
    out[offset + 1] = static_cast<std::uint8_t>(v >> 8);
  };
  const auto patch32 = [&out](std::size_t offset, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out[offset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
    }
  };

  for (const Fixup& fix : fixups_) {
    auto it = labels_.find(fix.label);
    if (it == labels_.end()) {
      return util::NotFound("undefined label: " + fix.label);
    }
    const mem::GuestAddr target = it->second;
    switch (fix.kind) {
      case FixKind::kAbs32:
        patch32(fix.offset, target);
        break;
      case FixKind::kVarmMovWT:
        patch16(fix.offset, static_cast<std::uint16_t>(target & 0xFFFF));
        patch16(fix.offset + 4, static_cast<std::uint16_t>(target >> 16));
        break;
      case FixKind::kVarmBl24: {
        const std::int64_t next = fix.insn_addr + kVARMInstrSize;
        const std::int64_t delta_bytes = static_cast<std::int64_t>(target) - next;
        if (delta_bytes % 4 != 0) {
          return util::InvalidArgument("bl target misaligned: " + fix.label);
        }
        const std::int64_t words = delta_bytes / 4;
        if (words < -(1 << 23) || words >= (1 << 23)) {
          return util::OutOfRange("bl target out of range: " + fix.label);
        }
        const std::uint32_t raw = static_cast<std::uint32_t>(words) & 0x00FFFFFF;
        out[fix.offset] = static_cast<std::uint8_t>(raw & 0xFF);
        out[fix.offset + 1] = static_cast<std::uint8_t>((raw >> 8) & 0xFF);
        out[fix.offset + 2] = static_cast<std::uint8_t>((raw >> 16) & 0xFF);
        break;
      }
      case FixKind::kVarmRel16: {
        const std::int64_t next = fix.insn_addr + kVARMInstrSize;
        const std::int64_t delta_bytes = static_cast<std::int64_t>(target) - next;
        if (delta_bytes % 4 != 0) {
          return util::InvalidArgument("branch target misaligned: " + fix.label);
        }
        const std::int64_t words = delta_bytes / 4;
        if (words < -(1 << 15) || words >= (1 << 15)) {
          return util::OutOfRange("branch target out of range: " + fix.label);
        }
        patch16(fix.offset, static_cast<std::uint16_t>(static_cast<std::int16_t>(words)));
        break;
      }
      case FixKind::kVarmLit16: {
        const std::int64_t next = fix.insn_addr + kVARMInstrSize;
        const std::int64_t delta = static_cast<std::int64_t>(target) - next;
        if (delta < -(1 << 15) || delta >= (1 << 15)) {
          return util::OutOfRange("literal out of range: " + fix.label);
        }
        patch16(fix.offset, static_cast<std::uint16_t>(static_cast<std::int16_t>(delta)));
        break;
      }
    }
  }
  return out;
}

}  // namespace connlab::isa
