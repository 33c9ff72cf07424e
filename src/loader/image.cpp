#include "src/loader/image.hpp"

#include <cstdio>
#include <iterator>

namespace connlab::loader {

util::Status SymbolTable::Define(const std::string& name, mem::GuestAddr addr) {
  auto [it, inserted] = symbols_.emplace(name, addr);
  (void)it;
  if (!inserted) return util::AlreadyExists("symbol redefined: " + name);
  return util::OkStatus();
}

util::Status SymbolTable::Import(
    const std::map<std::string, mem::GuestAddr>& labels) {
  // Both maps are sorted by name, so each label belongs just after the one
  // imported before it: a hinted insert there takes constant time.
  auto hint = symbols_.begin();
  for (const auto& [name, addr] : labels) {
    const std::size_t before = symbols_.size();
    hint = std::next(symbols_.emplace_hint(hint, name, addr));
    if (symbols_.size() == before) {
      return util::AlreadyExists("symbol redefined: " + name);
    }
  }
  return util::OkStatus();
}

util::Result<mem::GuestAddr> SymbolTable::Lookup(const std::string& name) const {
  auto it = symbols_.find(name);
  if (it == symbols_.end()) return util::NotFound("no symbol: " + name);
  return it->second;
}

std::string SymbolTable::Describe(mem::GuestAddr addr) const {
  const std::string* best_name = nullptr;
  mem::GuestAddr best_addr = 0;
  for (const auto& [name, sym_addr] : symbols_) {
    if (sym_addr <= addr && (best_name == nullptr || sym_addr > best_addr)) {
      best_name = &name;
      best_addr = sym_addr;
    }
  }
  if (best_name == nullptr) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", addr);
    return buf;
  }
  if (best_addr == addr) return *best_name;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "+0x%x", addr - best_addr);
  return *best_name + buf;
}

}  // namespace connlab::loader
