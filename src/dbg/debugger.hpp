// A gdb-flavoured debugger over a booted System: memory examination,
// disassembly, symbols, registers and the memory map.
//
// This is the tool role from the paper's §III ("using gdb, we are able to
// isolate the sections of memory occupied by the stack of the
// parse_response function"): the exploit-profile extractor drives these
// primitives against a *local* copy of the target, then reuses the learned
// addresses against the remote one — which works because the image is not
// PIE and the exploited regions are not randomised.
#pragma once

#include <string>

#include "src/loader/boot.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::dbg {

class Debugger {
 public:
  explicit Debugger(loader::System& sys) : sys_(&sys) {}

  // --- Memory (ptrace-style: ignores guest permissions) -------------------
  util::Result<util::Bytes> ReadMem(mem::GuestAddr addr, std::uint32_t len) const;
  util::Result<std::uint32_t> ReadWord(mem::GuestAddr addr) const;
  util::Status WriteMem(mem::GuestAddr addr, util::ByteSpan data);

  /// `x/…x addr` — hexdump of guest memory.
  util::Result<std::string> Examine(mem::GuestAddr addr, std::uint32_t len) const;
  /// `disas addr` — disassembly listing.
  util::Result<std::string> Disassemble(mem::GuestAddr addr, std::uint32_t len) const;

  // --- Symbols --------------------------------------------------------------
  util::Result<mem::GuestAddr> SymbolAddr(const std::string& name) const;
  /// "connman.parse_response+0x12"-style description of an address.
  std::string Describe(mem::GuestAddr addr) const;

  // --- Process state ----------------------------------------------------------
  std::string Registers() const;
  std::string Maps() const;

 private:
  loader::System* sys_;
};

}  // namespace connlab::dbg
