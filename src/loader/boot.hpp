// Booting a simulated Connman target: address space, CPU, loaded images,
// symbols — one `System` per simulated device process.
//
// Boot order mirrors a real exec: pick the (possibly ASLR-randomised)
// layout, map the main image at its fixed base, map libc and the stack,
// resolve the GOT against the loaded libc, and apply the protection config
// (stack RWX unless W^X). The returned System is pinned to the heap because
// the CPU holds a pointer into its address space.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/isa/isa.hpp"
#include "src/loader/image.hpp"
#include "src/loader/layout.hpp"
#include "src/mem/address_space.hpp"
#include "src/util/rng.hpp"
#include "src/util/status.hpp"
#include "src/vm/cpu.hpp"

namespace connlab::loader {

struct System {
  isa::Arch arch = isa::Arch::kVX86;
  ProtectionConfig prot;
  Layout layout;
  mem::AddressSpace space;
  std::unique_ptr<vm::Cpu> cpu;
  SymbolTable symbols;
  std::vector<SectionInfo> sections;
  /// Per-boot stack-protector value (only meaningful when prot.canary).
  std::uint32_t canary_value = 0;
  /// The seed this System was booted with; image builders derive the
  /// stochastic-diversity layout stream from it.
  std::uint64_t boot_seed = 0;
  /// Per-boot RNG stream (transaction ids etc. downstream).
  util::Rng rng{0};

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] util::Result<mem::GuestAddr> Sym(const std::string& name) const {
    return symbols.Lookup(name);
  }
};

/// Boots a fresh simulated target. `seed` drives every random draw (ASLR
/// slides, canary value): same seed + same config => identical process image.
/// `exec` selects the execution tier; the default is the superblock tier.
util::Result<std::unique_ptr<System>> Boot(isa::Arch arch,
                                           const ProtectionConfig& prot,
                                           std::uint64_t seed,
                                           const vm::ExecConfig& exec = {});

}  // namespace connlab::loader
