#include "src/dbg/debugger.hpp"

#include "src/isa/disasm.hpp"
#include "src/util/hexdump.hpp"

namespace connlab::dbg {

util::Result<util::Bytes> Debugger::ReadMem(mem::GuestAddr addr,
                                            std::uint32_t len) const {
  return sys_->space.DebugRead(addr, len);
}

util::Result<std::uint32_t> Debugger::ReadWord(mem::GuestAddr addr) const {
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes raw, sys_->space.DebugRead(addr, 4));
  return static_cast<std::uint32_t>(raw[0]) |
         (static_cast<std::uint32_t>(raw[1]) << 8) |
         (static_cast<std::uint32_t>(raw[2]) << 16) |
         (static_cast<std::uint32_t>(raw[3]) << 24);
}

util::Status Debugger::WriteMem(mem::GuestAddr addr, util::ByteSpan data) {
  return sys_->space.DebugWrite(addr, data);
}

util::Result<std::string> Debugger::Examine(mem::GuestAddr addr,
                                            std::uint32_t len) const {
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes data, ReadMem(addr, len));
  return util::HexDump(data, addr);
}

util::Result<std::string> Debugger::Disassemble(mem::GuestAddr addr,
                                                std::uint32_t len) const {
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes data, ReadMem(addr, len));
  return isa::DisassembleToString(sys_->arch, data, addr);
}

util::Result<mem::GuestAddr> Debugger::SymbolAddr(const std::string& name) const {
  return sys_->symbols.Lookup(name);
}

std::string Debugger::Describe(mem::GuestAddr addr) const {
  return sys_->symbols.Describe(addr);
}

std::string Debugger::Registers() const { return sys_->cpu->RegistersString(); }

std::string Debugger::Maps() const { return sys_->space.MapsString(); }

}  // namespace connlab::dbg
