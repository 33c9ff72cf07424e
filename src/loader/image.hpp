// Guest binary metadata: the symbol table and PLT/GOT bookkeeping shared by
// the image builders, the gadget finder, the debugger and the exploit
// generator.
//
// Symbols follow a dotted convention:
//   "connman.parse_response"   function entry in the main image
//   "plt.memcpy" / "got.memcpy" PLT stub / GOT slot in the main image
//   "libc.system", "libc.str.bin_sh"  libc functions and data
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/mem/segment.hpp"
#include "src/util/status.hpp"

namespace connlab::loader {

class SymbolTable {
 public:
  util::Status Define(const std::string& name, mem::GuestAddr addr);
  /// Bulk import of an Assembler's label map.
  util::Status Import(const std::map<std::string, mem::GuestAddr>& labels);

  [[nodiscard]] util::Result<mem::GuestAddr> Lookup(const std::string& name) const;
  [[nodiscard]] bool Has(const std::string& name) const noexcept {
    return symbols_.contains(name);
  }
  /// Reverse lookup: the symbol at or immediately below `addr`, rendered as
  /// "name" or "name+0x12" — what a debugger shows in a backtrace.
  [[nodiscard]] std::string Describe(mem::GuestAddr addr) const;

 private:
  std::map<std::string, mem::GuestAddr> symbols_;
};

/// One loaded section's bounds, for tools that scan specific sections
/// (the gadget finder scans .text, memstr scans .text+.rodata).
struct SectionInfo {
  std::string name;
  mem::GuestAddr base = 0;
  std::uint32_t size = 0;
};

}  // namespace connlab::loader
