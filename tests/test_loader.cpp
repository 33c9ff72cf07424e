// Loader tests: layouts, ASLR behaviour, symbol tables, image loading, and
// end-to-end guest execution of PLT/libc paths on both architectures.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/gadget/finder.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/disasm.hpp"
#include "src/isa/vx86.hpp"
#include "src/loader/boot.hpp"
#include "src/loader/layout.hpp"
#include "src/loader/libc_image.hpp"
#include "src/loader/snapshot.hpp"
#include "src/obs/obs.hpp"

namespace connlab::loader {
namespace {

using isa::Arch;

TEST(ProtectionConfig, ToStringLevels) {
  EXPECT_EQ(ProtectionConfig::None().ToString(), "none");
  EXPECT_EQ(ProtectionConfig::WxOnly().ToString(), "W^X");
  EXPECT_EQ(ProtectionConfig::WxAslr().ToString(), "W^X+ASLR");
  EXPECT_EQ(ProtectionConfig::All().ToString(), "W^X+ASLR+canary");
}

TEST(Layout, MainImageIsBelowLibcAndStack) {
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    const Layout l = DefaultLayout(arch);
    EXPECT_LT(l.text_base, l.libc_base);
    EXPECT_LT(l.libc_base + l.libc_size, l.stack_base());
    EXPECT_LT(l.initial_sp(), l.stack_top);
    EXPECT_GT(l.initial_sp(), l.stack_base());
  }
}

TEST(Layout, AslrOffLeavesEverythingFixed) {
  util::Rng rng(1);
  const Layout a = RandomizedLayout(Arch::kVX86, ProtectionConfig::WxOnly(), rng);
  const Layout b = DefaultLayout(Arch::kVX86);
  EXPECT_EQ(a.libc_base, b.libc_base);
  EXPECT_EQ(a.stack_top, b.stack_top);
}

TEST(Layout, AslrRandomizesOnlyLibcAndStack) {
  util::Rng rng(7);
  const Layout base = DefaultLayout(Arch::kVARM);
  bool libc_moved = false;
  bool stack_moved = false;
  for (int i = 0; i < 32; ++i) {
    const Layout l = RandomizedLayout(Arch::kVARM, ProtectionConfig::WxAslr(), rng);
    EXPECT_EQ(l.text_base, base.text_base);
    EXPECT_EQ(l.bss_base, base.bss_base);
    EXPECT_EQ(l.got_base, base.got_base);
    EXPECT_LE(l.libc_base, base.libc_base);
    EXPECT_LE(l.stack_top, base.stack_top);
    EXPECT_EQ(l.libc_base % 0x1000, 0u);
    EXPECT_EQ(l.stack_top % 0x1000, 0u);
    libc_moved |= l.libc_base != base.libc_base;
    stack_moved |= l.stack_top != base.stack_top;
  }
  EXPECT_TRUE(libc_moved);
  EXPECT_TRUE(stack_moved);
}

TEST(SymbolTable, DefineLookupDescribe) {
  SymbolTable t;
  ASSERT_TRUE(t.Define("foo", 0x1000).ok());
  ASSERT_TRUE(t.Define("bar", 0x2000).ok());
  EXPECT_FALSE(t.Define("foo", 0x3000).ok());
  EXPECT_EQ(t.Lookup("foo").value(), 0x1000u);
  EXPECT_FALSE(t.Lookup("baz").ok());
  EXPECT_EQ(t.Describe(0x1000), "foo");
  EXPECT_EQ(t.Describe(0x1010), "foo+0x10");
  EXPECT_EQ(t.Describe(0x2004), "bar+0x4");
  EXPECT_EQ(t.Describe(0x10), "0x00000010");
}

class BootTest : public ::testing::TestWithParam<Arch> {};

TEST_P(BootTest, BootsWithExpectedSegments) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 42);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  const auto& space = sys.value()->space;
  for (const char* name :
       {".text", ".rodata", ".got", ".bss", ".scratch", "heap", "libc", "stack"}) {
    EXPECT_NE(space.FindSegmentByName(name), nullptr) << name;
  }
}

TEST_P(BootTest, WxControlsStackExecutability) {
  auto lax = Boot(GetParam(), ProtectionConfig::None(), 1);
  auto strict = Boot(GetParam(), ProtectionConfig::WxOnly(), 1);
  ASSERT_TRUE(lax.ok());
  ASSERT_TRUE(strict.ok());
  const auto* lax_stack = lax.value()->space.FindSegmentByName("stack");
  const auto* strict_stack = strict.value()->space.FindSegmentByName("stack");
  EXPECT_TRUE(Has(lax_stack->perms(), mem::Perm::kExec));
  EXPECT_FALSE(Has(strict_stack->perms(), mem::Perm::kExec));
}

TEST_P(BootTest, CoreSymbolsPresent) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 3);
  ASSERT_TRUE(sys.ok());
  for (const char* sym :
       {"connman._start", "connman.parse_response", "connman.get_name",
        "connman.parse_rr", "connman.resume_ok", "plt.memcpy", "plt.execlp",
        "plt.__strcpy_chk", "got.memcpy", "libc.system", "libc.exit",
        "libc.memcpy", "libc.execlp", "libc.str.bin_sh", "bss.start"}) {
    EXPECT_TRUE(sys.value()->symbols.Has(sym)) << sym;
  }
  // Connman has no plain strcpy — the constraint that forces the paper's
  // memcpy chain.
  EXPECT_FALSE(sys.value()->symbols.Has("plt.strcpy"));
}

TEST_P(BootTest, GotResolvesToLibc) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 4);
  ASSERT_TRUE(sys.ok());
  auto& s = *sys.value();
  const auto got = s.Sym("got.memcpy").value();
  const auto libc_memcpy = s.Sym("libc.memcpy").value();
  EXPECT_EQ(s.space.ReadU32(got).value(), libc_memcpy);
}

TEST_P(BootTest, BinShStringLoaded) {
  auto sys = Boot(GetParam(), ProtectionConfig::None(), 5);
  ASSERT_TRUE(sys.ok());
  auto& s = *sys.value();
  const auto addr = s.Sym("libc.str.bin_sh").value();
  EXPECT_EQ(s.space.ReadCString(addr).value(), "/bin/sh");
  EXPECT_EQ(addr, s.layout.libc_base + kLibcBinShOff);
}

TEST_P(BootTest, DeterministicImageAcrossBoots) {
  auto a = Boot(GetParam(), ProtectionConfig::None(), 10);
  auto b = Boot(GetParam(), ProtectionConfig::None(), 999);  // different seed
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The main image bytes and symbols are identical regardless of seed (only
  // ASLR-covered bases and the canary depend on it).
  const auto& la = a.value()->layout;
  auto ta = a.value()->space.DebugRead(la.text_base, la.text_size).value();
  auto tb = b.value()->space.DebugRead(la.text_base, la.text_size).value();
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.value()->Sym("gadget.pppr").value_or(0),
            b.value()->Sym("gadget.pppr").value_or(0));
}

TEST_P(BootTest, AslrMovesLibcAcrossSeeds) {
  auto a = Boot(GetParam(), ProtectionConfig::WxAslr(), 10);
  auto b = Boot(GetParam(), ProtectionConfig::WxAslr(), 11);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value()->layout.libc_base, b.value()->layout.libc_base);
  EXPECT_EQ(a.value()->layout.text_base, b.value()->layout.text_base);
}

TEST_P(BootTest, SameSeedSameAslrDraw) {
  auto a = Boot(GetParam(), ProtectionConfig::WxAslr(), 77);
  auto b = Boot(GetParam(), ProtectionConfig::WxAslr(), 77);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->layout.libc_base, b.value()->layout.libc_base);
  EXPECT_EQ(a.value()->layout.stack_top, b.value()->layout.stack_top);
}

TEST_P(BootTest, HighEntropyBootStillPlacesStack) {
  ProtectionConfig prot = ProtectionConfig::WxAslr();
  prot.aslr_entropy_bits = 16;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto sys = Boot(GetParam(), prot, seed);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  }
}

TEST_P(BootTest, CanaryValueSetOnlyWhenEnabled) {
  auto off = Boot(GetParam(), ProtectionConfig::WxAslr(), 5);
  auto on = Boot(GetParam(), ProtectionConfig::All(), 5);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(off.value()->canary_value, 0u);
  EXPECT_NE(on.value()->canary_value, 0u);
}

// --- Guest execution through PLT and libc ----------------------------------

TEST_P(BootTest, CallingSystemViaLibcSpawnsShell) {
  auto boot = Boot(GetParam(), ProtectionConfig::None(), 21);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  // Plant a command string on the heap and call libc.system per convention.
  const mem::GuestAddr cmd = sys.layout.heap_base;
  util::Bytes text = util::BytesOf("id");
  text.push_back(0);
  ASSERT_TRUE(sys.space.WriteBytes(cmd, text).ok());
  const auto system_addr = sys.Sym("libc.system").value();
  if (GetParam() == Arch::kVX86) {
    ASSERT_TRUE(sys.cpu->Push(cmd).ok());        // argument
    ASSERT_TRUE(sys.cpu->Push(0xDEAD0001).ok()); // fake return address
  } else {
    sys.cpu->set_reg(isa::kR0, cmd);
    sys.cpu->set_reg(isa::kLR, 0xDEAD0001);
  }
  sys.cpu->set_pc(system_addr);
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kShellSpawned);
  ASSERT_FALSE(sys.cpu->events().empty());
  EXPECT_EQ(sys.cpu->events().back().kind, vm::EventKind::kShellSpawned);
}

TEST_P(BootTest, MemcpyThroughPltCopiesGuestMemory) {
  auto boot = Boot(GetParam(), ProtectionConfig::WxAslr(), 22);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const mem::GuestAddr src = sys.layout.heap_base;
  const mem::GuestAddr dst = sys.layout.bss_base;
  ASSERT_TRUE(sys.space.WriteBytes(src, util::BytesOf("COPYME")).ok());
  const auto plt_memcpy = sys.Sym("plt.memcpy").value();
  const auto resume = sys.Sym("connman.resume_ok").value();
  if (GetParam() == Arch::kVX86) {
    // cdecl frame: ret, dest, src, len, (frame word read by the epilogue).
    ASSERT_TRUE(sys.cpu->Push(0xAAAAAAAA).ok());
    ASSERT_TRUE(sys.cpu->Push(6).ok());
    ASSERT_TRUE(sys.cpu->Push(src).ok());
    ASSERT_TRUE(sys.cpu->Push(dst).ok());
    ASSERT_TRUE(sys.cpu->Push(resume).ok());
  } else {
    sys.cpu->set_reg(isa::kR0, dst);
    sys.cpu->set_reg(isa::kR1, src);
    sys.cpu->set_reg(isa::kR2, 6);
    sys.cpu->set_reg(isa::kLR, resume);
  }
  sys.cpu->set_pc(plt_memcpy);
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kHalted) << stop.ToString();
  EXPECT_EQ(sys.space.ReadBytes(dst, 6).value(), util::BytesOf("COPYME"));
}

TEST_P(BootTest, MemcpyIntoTextFaults) {
  auto boot = Boot(GetParam(), ProtectionConfig::None(), 23);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const auto libc_memcpy = sys.Sym("libc.memcpy").value();
  if (GetParam() == Arch::kVX86) {
    ASSERT_TRUE(sys.cpu->Push(0xAAAAAAAA).ok());
    ASSERT_TRUE(sys.cpu->Push(4).ok());
    ASSERT_TRUE(sys.cpu->Push(sys.layout.heap_base).ok());
    ASSERT_TRUE(sys.cpu->Push(sys.layout.text_base).ok());  // read-only dest
    ASSERT_TRUE(sys.cpu->Push(0xDEAD0001).ok());
  } else {
    sys.cpu->set_reg(isa::kR0, sys.layout.text_base);
    sys.cpu->set_reg(isa::kR1, sys.layout.heap_base);
    sys.cpu->set_reg(isa::kR2, 4);
    sys.cpu->set_reg(isa::kLR, 0xDEAD0001);
  }
  sys.cpu->set_pc(libc_memcpy);
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kFault);
}

TEST_P(BootTest, ExeclpShRequiresNullTerminatedArgs) {
  auto boot = Boot(GetParam(), ProtectionConfig::None(), 24);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const mem::GuestAddr file = sys.layout.heap_base + 0x100;
  util::Bytes name = util::BytesOf("sh");
  name.push_back(0);
  ASSERT_TRUE(sys.space.WriteBytes(file, name).ok());
  const auto execlp = sys.Sym("libc.execlp").value();
  if (GetParam() == Arch::kVX86) {
    ASSERT_TRUE(sys.cpu->Push(0).ok());          // vararg NULL terminator
    ASSERT_TRUE(sys.cpu->Push(file).ok());       // file
    ASSERT_TRUE(sys.cpu->Push(0xBBBBBBBB).ok()); // return address (unused)
  } else {
    sys.cpu->set_reg(isa::kR0, file);
    sys.cpu->set_reg(isa::kR1, 0);  // NULL terminator, as in Listing 2
  }
  sys.cpu->set_pc(execlp);
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kShellSpawned) << stop.ToString();
}

TEST(BootArm, ExeclpWithoutNullTerminatorFaults) {
  auto boot = Boot(Arch::kVARM, ProtectionConfig::None(), 25);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const mem::GuestAddr file = sys.layout.heap_base;
  util::Bytes name = util::BytesOf("sh");
  name.push_back(0);
  ASSERT_TRUE(sys.space.WriteBytes(file, name).ok());
  sys.cpu->set_reg(isa::kR0, file);
  sys.cpu->set_reg(isa::kR1, 0x41414141);
  sys.cpu->set_reg(isa::kR2, 0x41414141);
  sys.cpu->set_reg(isa::kR3, 0x41414141);
  sys.cpu->set_pc(sys.Sym("libc.execlp").value());
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kFault);
}

TEST(BootX86, GadgetPpprPopsFourWordsAndRets) {
  auto boot = Boot(Arch::kVX86, ProtectionConfig::None(), 26);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const auto resume = sys.Sym("connman.resume_ok").value();
  ASSERT_TRUE(sys.cpu->Push(resume).ok());  // final ret target
  ASSERT_TRUE(sys.cpu->Push(4).ok());
  ASSERT_TRUE(sys.cpu->Push(3).ok());
  ASSERT_TRUE(sys.cpu->Push(2).ok());
  ASSERT_TRUE(sys.cpu->Push(1).ok());
  sys.cpu->set_pc(sys.Sym("gadget.pppr").value());
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kHalted);
  EXPECT_EQ(sys.cpu->reg(isa::kESI), 1u);
  EXPECT_EQ(sys.cpu->reg(isa::kEDI), 2u);
  EXPECT_EQ(sys.cpu->reg(isa::kEBX), 3u);
  EXPECT_EQ(sys.cpu->reg(isa::kEBP), 4u);
}

TEST(BootArm, PopRegsGadgetLoadsSevenRegistersAndPc) {
  auto boot = Boot(Arch::kVARM, ProtectionConfig::None(), 27);
  ASSERT_TRUE(boot.ok());
  auto& sys = *boot.value();
  const auto resume = sys.Sym("connman.resume_ok").value();
  // Frame per Listing 2: r0, r1, r2, r3, r5, r6, r7, pc.
  const std::uint32_t frame[] = {0xA0, 0xA1, 0xA2, 0xA3, 0xA5, 0xA6, 0xA7, resume};
  std::uint32_t sp = sys.layout.initial_sp() - sizeof(frame);
  sys.cpu->set_sp(sp);
  for (std::uint32_t w : frame) {
    ASSERT_TRUE(sys.space.WriteU32(sp, w).ok());
    sp += 4;
  }
  sys.cpu->set_pc(sys.Sym("gadget.pop_regs_pc").value());
  auto stop = sys.cpu->Run(100);
  EXPECT_EQ(stop.reason, vm::StopReason::kHalted) << stop.ToString();
  EXPECT_EQ(sys.cpu->reg(isa::kR0), 0xA0u);
  EXPECT_EQ(sys.cpu->reg(isa::kR3), 0xA3u);
  EXPECT_EQ(sys.cpu->reg(isa::kR5), 0xA5u);
  EXPECT_EQ(sys.cpu->reg(isa::kR7), 0xA7u);
  // r4 is intentionally not part of the gadget.
  EXPECT_EQ(sys.cpu->reg(isa::kR4), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothArchs, BootTest,
                         ::testing::Values(Arch::kVX86, Arch::kVARM),
                         [](const auto& info) {
                           return info.param == Arch::kVX86 ? "vx86" : "varm";
                         });

// --- Heap reuse across boots ------------------------------------------------

// Boot's heap thresholds are glibc malloc's; ASan and TSan replace malloc.
#if defined(__has_feature)
#define CONNLAB_HAS_FEATURE(x) __has_feature(x)
#else
#define CONNLAB_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || CONNLAB_HAS_FEATURE(address_sanitizer)
constexpr bool kGlibcHeap = false;
#elif defined(__SANITIZE_THREAD__) || CONNLAB_HAS_FEATURE(thread_sanitizer)
constexpr bool kGlibcHeap = false;
#elif defined(__GLIBC__)
constexpr bool kGlibcHeap = true;
#else
constexpr bool kGlibcHeap = false;
#endif

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// Boot keeps dropped Systems' memory in the process heap for the next boot:
// booting, running and dropping Systems in a loop, as every defense grid
// cell does, faults no page back in once the heap has grown. Under glibc's
// default heap thresholds each teardown of two Systems handed their span
// back to the kernel and the next boots faulted it in again (about 35
// faults per cycle).
TEST(BootHeap, RebootsReuseFreedSystemMemory) {
  if (!kGlibcHeap) GTEST_SKIP() << "Boot sets glibc malloc's thresholds";
  const auto boot_run_drop = [] {
    auto x86 = Boot(Arch::kVX86, ProtectionConfig::None(), 9).value();
    auto arm = Boot(Arch::kVARM, ProtectionConfig::None(), 9).value();
    // Running compiles blocks, so each CPU allocates its slot array too.
    (void)x86->cpu->Run(200);
    (void)arm->cpu->Run(200);
  };
  for (int i = 0; i < 4; ++i) boot_run_drop();  // grow the heap once
  const long before = MinorFaults();
  constexpr int kCycles = 64;
  for (int i = 0; i < kCycles; ++i) boot_run_drop();
  EXPECT_LT(MinorFaults() - before, kCycles);
}

// --- The main image and what the gadget finder reads of it -----------------

// Golden fingerprints of the booted main image (its .text and .rodata bytes,
// every symbol and the section list) and of the gadget finder's answers on
// it, for both arches undefended, under W^X, under W^X+ASLR, under
// compile-time diversity builds 1-3 and under stochastic diversity at boot
// seeds 1-3. How a boot obtains its image and how the finder scans for a
// shape may change; every row stays.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64 over `data`, continuing from `h`.
std::uint64_t Fnv(util::ByteSpan data, std::uint64_t h = kFnvBasis) {
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t Fnv(std::string_view text, std::uint64_t h) {
  return Fnv(util::ByteSpan(reinterpret_cast<const std::uint8_t*>(text.data()),
                            text.size()),
             h);
}

std::string Hex(std::uint64_t v, int width) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%0*llx", width,
                static_cast<unsigned long long>(v));
  return buf;
}

/// Every symbol a booted image defines on either arch.
std::vector<std::string> ImageSymbolNames() {
  std::vector<std::string> names = {
      "connman._start", "connman.main", "connman.resume_ok",
      "connman.forward_dns_reply", "connman.parse_response",
      "connman.get_name", "connman.parse_rr", "connman.copy_label",
      "connman.copy_label.loop", "connman.copy_label.done",
      "connman.copy_done", "plt.memcpy", "plt.execlp", "plt.__strcpy_chk",
      "plt.lit.memcpy", "plt.lit.execlp", "plt.lit.__strcpy_chk",
      "gadget.pppr", "gadget.pop_ret", "gadget.pop_pop_ret",
      "gadget.pop_regs_pc", "gadget.blx_r3", "gadget.pop_r8_pc",
      "gadget.pop_r0_pc", "rodata.banner", "rodata.dnsproxy", "rodata.paths",
      "rodata.lib", "rodata.busy", "rodata.fmt", "rodata.hosts",
      "rodata.resolv", "got.memcpy", "got.execlp", "got.__strcpy_chk",
      "bss.start", "scratch.start", "libc.system", "libc.exit", "libc.memcpy",
      "libc.execlp", "libc.__strcpy_chk", "libc.base", "libc.str.bin_sh"};
  for (int i = 0; i < 44; ++i) names.push_back("fn.decor_" + std::to_string(i));
  return names;
}

const SectionInfo* FindSection(const System& sys, const std::string& name) {
  for (const SectionInfo& section : sys.sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

std::uint64_t SectionBytesFnv(const System& sys, const std::string& name) {
  const SectionInfo* section = FindSection(sys, name);
  if (section == nullptr) return 0;
  auto bytes = sys.space.DebugRead(section->base, section->size);
  return bytes.ok() ? Fnv(bytes.value()) : 0;
}

/// FNV of every (symbol, address) pair: each known name's lookup, then the
/// symbol a debugger names at every address of the sections that hold
/// symbols, which also covers any name the list lacks.
std::uint64_t SymbolsFnv(const System& sys) {
  std::uint64_t h = kFnvBasis;
  for (const std::string& name : ImageSymbolNames()) {
    auto addr = sys.Sym(name);
    h = Fnv(name + "=" + (addr.ok() ? Hex(addr.value(), 8) : "-") + "\n", h);
  }
  for (const char* name : {".text", ".rodata", ".got"}) {
    const SectionInfo* section = FindSection(sys, name);
    if (section == nullptr) continue;
    for (std::uint32_t i = 0; i < section->size; ++i) {
      h = Fnv(sys.symbols.Describe(section->base + i) + "\n", h);
    }
  }
  return h;
}

std::uint64_t SectionsFnv(const System& sys) {
  std::uint64_t h = kFnvBasis;
  for (const SectionInfo& section : sys.sections) {
    h = Fnv(section.name + " " + Hex(section.base, 8) + " " +
                Hex(section.size, 8) + "\n",
            h);
  }
  return h;
}

/// "text … | rodata … | symbols … | sections …": the booted image.
std::string ImageFingerprint(const System& sys) {
  return "text " + Hex(SectionBytesFnv(sys, ".text"), 16) + " | rodata " +
         Hex(SectionBytesFnv(sys, ".rodata"), 16) + " | symbols " +
         Hex(SymbolsFnv(sys), 16) + " | sections " +
         Hex(SectionsFnv(sys), 16);
}

std::string Answer(const util::Result<gadget::Gadget>& found, Arch arch) {
  if (!found.ok()) return found.status().ToString();
  return Hex(found.value().addr, 8) + " " + found.value().ToString(arch);
}

/// The finder's answers for the shapes the exploits and their ablations
/// ask of `sys`'s arch.
std::string FinderAnswers(const System& sys) {
  const gadget::Finder finder(sys);
  std::string out;
  if (sys.arch == Arch::kVX86) {
    for (int pops = 1; pops <= 4; ++pops) {
      out += " | pop^" + std::to_string(pops) + " " +
             Answer(finder.FindPopRet(pops), sys.arch);
    }
    return out;
  }
  const std::uint16_t exploit_mask = isa::varm::Mask(
      {isa::kR0, isa::kR1, isa::kR2, isa::kR3, isa::kR5, isa::kR6, isa::kR7});
  out += " | regs " + Answer(finder.FindPopRegsPc(exploit_mask), sys.arch);
  out += " | r0 " +
         Answer(finder.FindPopRegsPc(isa::varm::Mask({isa::kR0})), sys.arch);
  out += " | r4 " +
         Answer(finder.FindPopRegsPc(isa::varm::Mask({isa::kR4})), sys.arch);
  out += " | blx " + Answer(finder.FindBlx(isa::kR3), sys.arch);
  return out;
}

struct ImageCase {
  ProtectionConfig prot;
  std::uint64_t seed = 0;
};

/// Undefended, W^X, W^X+ASLR, compile-time diversity builds 1-3 and
/// stochastic diversity at boot seeds 1-3.
std::vector<ImageCase> ImageCases() {
  std::vector<ImageCase> cases = {{ProtectionConfig::None(), 7},
                                  {ProtectionConfig::WxOnly(), 7},
                                  {ProtectionConfig::WxAslr(), 7}};
  for (std::uint64_t build = 1; build <= 3; ++build) {
    cases.push_back({ProtectionConfig::Diversified(build), 7});
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    cases.push_back({ProtectionConfig::StochasticDiversity(), seed});
  }
  return cases;
}

std::string CaseLabel(Arch arch, const ImageCase& c) {
  std::string label = std::string(arch == Arch::kVX86 ? "vx86" : "varm") +
                      " / " + c.prot.ToString() + " / seed " +
                      std::to_string(c.seed);
  if (c.prot.diversity) {
    label += " / build " + std::to_string(c.prot.diversity_build);
  }
  return label;
}

// Recorded from the build that assembled the whole image on every boot and
// had the finder collect every gadget before picking one. The "r4" answer is
// there for its tie: connman.main and forward_dns_reply both end in
// `pop {r4, pc}`, and the earlier one must win.
const char* const kImageGolden[] = {
    "vx86 / none / seed 7 | text f7ee72bccce1af8f | rodata 85cdb6302127a54c | "
    "symbols 6bdaade4353a9eb8 | sections b303c7bf14f44fe6",
    "vx86 / W^X / seed 7 | text f7ee72bccce1af8f | rodata 85cdb6302127a54c | "
    "symbols 6bdaade4353a9eb8 | sections b303c7bf14f44fe6",
    "vx86 / W^X+ASLR / seed 7 | text f7ee72bccce1af8f | "
    "rodata 85cdb6302127a54c | symbols 595508b14faab174 | "
    "sections 8354f7ac2f652bff",
    "vx86 / W^X+ASLR+ASD / seed 7 / build 1 | text 221f2561eb3cb7f1 | "
    "rodata 85cdb6302127a54c | symbols 5aabfb52126151de | "
    "sections 8354f7ac2f652bff",
    "vx86 / W^X+ASLR+ASD / seed 7 / build 2 | text 77c10bedfcab2fdb | "
    "rodata 85cdb6302127a54c | symbols 32ec193848569b15 | "
    "sections 8354f7ac2f652bff",
    "vx86 / W^X+ASLR+ASD / seed 7 / build 3 | text 9744dfbb7ffe41cf | "
    "rodata 85cdb6302127a54c | symbols c11d44e5d3efef48 | "
    "sections 8354f7ac2f652bff",
    "vx86 / W^X+SSD / seed 1 | text 37a896072a0a69ce | "
    "rodata 85cdb6302127a54c | symbols e8825ca18a37ee81 | "
    "sections c8aef91f59fcee97",
    "vx86 / W^X+SSD / seed 2 | text 29a27ff4cc3acb55 | "
    "rodata 85cdb6302127a54c | symbols 1639051a0a95cbd8 | "
    "sections 1768851251fa1834",
    "vx86 / W^X+SSD / seed 3 | text 72fd9167d9535e09 | "
    "rodata 85cdb6302127a54c | symbols bd28f5386d006206 | "
    "sections bb5155da7d6c8f39",
    "varm / none / seed 7 | text 41f26af1d25aac31 | rodata 9464f2a9155775a1 | "
    "symbols 6d57422e170e457b | sections 2054f8f59f96ed5e",
    "varm / W^X / seed 7 | text 41f26af1d25aac31 | rodata 9464f2a9155775a1 | "
    "symbols 6d57422e170e457b | sections 2054f8f59f96ed5e",
    "varm / W^X+ASLR / seed 7 | text 41f26af1d25aac31 | "
    "rodata 9464f2a9155775a1 | symbols ffd3508d3b83977c | "
    "sections f94fda9d05012ae2",
    "varm / W^X+ASLR+ASD / seed 7 / build 1 | text a4369fafd3856a89 | "
    "rodata 9464f2a9155775a1 | symbols ac82bb87e5c1cba7 | "
    "sections f94fda9d05012ae2",
    "varm / W^X+ASLR+ASD / seed 7 / build 2 | text 3a1d29fc7247b0c9 | "
    "rodata 9464f2a9155775a1 | symbols 1e6d554f6b761ed2 | "
    "sections f94fda9d05012ae2",
    "varm / W^X+ASLR+ASD / seed 7 / build 3 | text 459b3a3f40c74d65 | "
    "rodata 9464f2a9155775a1 | symbols ea2265bd56803087 | "
    "sections f94fda9d05012ae2",
    "varm / W^X+SSD / seed 1 | text 0e451267fe464365 | "
    "rodata 9464f2a9155775a1 | symbols 62785285586120ae | "
    "sections edc0a79091b2d36a",
    "varm / W^X+SSD / seed 2 | text e44235d577b3661d | "
    "rodata 9464f2a9155775a1 | symbols 8c163fd7c671d44e | "
    "sections a070f40c4a082e19",
    "varm / W^X+SSD / seed 3 | text 0f4a50315c7a75f5 | "
    "rodata 9464f2a9155775a1 | symbols b67f13df1f37b190 | "
    "sections b86f5f7f1ec2f5dc",
};

const char* const kFinderGolden[] = {
    "vx86 / none / seed 7 | pop^1 08048010 pop ebp; ret | "
    "pop^2 080481e6 pop ebx; pop ebp; ret | "
    "pop^3 0804856f pop edi; pop ebx; pop ebp; ret | "
    "pop^4 0804856d pop esi; pop edi; pop ebx; pop ebp; ret",
    "vx86 / W^X / seed 7 | pop^1 08048010 pop ebp; ret | "
    "pop^2 080481e6 pop ebx; pop ebp; ret | "
    "pop^3 0804856f pop edi; pop ebx; pop ebp; ret | "
    "pop^4 0804856d pop esi; pop edi; pop ebx; pop ebp; ret",
    "vx86 / W^X+ASLR / seed 7 | pop^1 08048010 pop ebp; ret | "
    "pop^2 080481e6 pop ebx; pop ebp; ret | "
    "pop^3 0804856f pop edi; pop ebx; pop ebp; ret | "
    "pop^4 0804856d pop esi; pop edi; pop ebx; pop ebp; ret",
    "vx86 / W^X+ASLR+ASD / seed 7 / build 1 | pop^1 08048010 pop ebp; ret | "
    "pop^2 08048138 pop ebx; pop ebp; ret | "
    "pop^3 08048136 pop edi; pop ebx; pop ebp; ret | "
    "pop^4 08048134 pop esi; pop edi; pop ebx; pop ebp; ret",
    "vx86 / W^X+ASLR+ASD / seed 7 / build 2 | pop^1 08048010 pop ebp; ret | "
    "pop^2 0804810a pop ebx; pop ebp; ret | "
    "pop^3 08048108 pop edi; pop ebx; pop ebp; ret | "
    "pop^4 08048106 pop esi; pop edi; pop ebx; pop ebp; ret",
    "vx86 / W^X+ASLR+ASD / seed 7 / build 3 | pop^1 08048010 pop ebp; ret | "
    "pop^2 080481d7 pop ebx; pop ebp; ret | "
    "pop^3 08048204 pop edi; pop ebx; pop ebp; ret | "
    "pop^4 08048202 pop esi; pop edi; pop ebx; pop ebp; ret",
    "vx86 / W^X+SSD / seed 1 | pop^1 08048010 pop ebp; ret | "
    "pop^2 0804821b pop ebx; pop ebp; ret | "
    "pop^3 08048292 pop edi; pop ebx; pop ebp; ret | "
    "pop^4 08048290 pop esi; pop edi; pop ebx; pop ebp; ret",
    "vx86 / W^X+SSD / seed 2 | pop^1 08048010 pop ebp; ret | "
    "pop^2 0804820f pop ebx; pop ebp; ret | "
    "pop^3 08048373 pop edi; pop ebx; pop ebp; ret | "
    "pop^4 08048371 pop esi; pop edi; pop ebx; pop ebp; ret",
    "vx86 / W^X+SSD / seed 3 | pop^1 08048010 pop ebp; ret | "
    "pop^2 08048212 pop ebx; pop ebp; ret | "
    "pop^3 0804821e pop edi; pop ebx; pop ebp; ret | "
    "pop^4 0804821c pop esi; pop edi; pop ebx; pop ebp; ret",
    "varm / none / seed 7 | "
    "regs 000104e8 pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 000104f4 pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 000104ec blx r3; pop {r8, pc}",
    "varm / W^X / seed 7 | "
    "regs 000104e8 pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 000104f4 pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 000104ec blx r3; pop {r8, pc}",
    "varm / W^X+ASLR / seed 7 | "
    "regs 000104e8 pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 000104f4 pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 000104ec blx r3; pop {r8, pc}",
    "varm / W^X+ASLR+ASD / seed 7 / build 1 | "
    "regs 000100dc pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 00010198 pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 00010190 blx r3; pop {r8, pc}",
    "varm / W^X+ASLR+ASD / seed 7 / build 2 | "
    "regs 000100dc pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 00010130 pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 00010128 blx r3; pop {r8, pc}",
    "varm / W^X+ASLR+ASD / seed 7 / build 3 | "
    "regs 0001017c pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 0001030c pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 00010304 blx r3; pop {r8, pc}",
    "varm / W^X+SSD / seed 1 | "
    "regs 000101fc pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 0001058c pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 00010584 blx r3; pop {r8, pc}",
    "varm / W^X+SSD / seed 2 | "
    "regs 000102d4 pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 000104d4 pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 000104cc blx r3; pop {r8, pc}",
    "varm / W^X+SSD / seed 3 | "
    "regs 000101cc pop {r0, r1, r2, r3, r5, r6, r7, pc} | "
    "r0 000103a8 pop {r0, pc} | r4 00010010 pop {r4, pc} | "
    "blx 000103a0 blx r3; pop {r8, pc}",
};

template <std::size_t N>
void ExpectImageRows(std::string (*row)(const System&),
                     const char* const (&golden)[N]) {
  std::size_t i = 0;
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    for (const ImageCase& c : ImageCases()) {
      auto sys = Boot(arch, c.prot, c.seed);
      ASSERT_TRUE(sys.ok()) << sys.status().ToString();
      ASSERT_LT(i, N);
      EXPECT_EQ(CaseLabel(arch, c) + row(*sys.value()), golden[i])
          << "row " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, N);
}

TEST(ImageGolden, BootedImagesMatchRecordedBuilds) {
  ExpectImageRows(
      [](const System& sys) { return " | " + ImageFingerprint(sys); },
      kImageGolden);
}

TEST(ImageGolden, FinderAnswersMatchRecordedScans) {
  ExpectImageRows(FinderAnswers, kFinderGolden);
}

// Boots both arches from several threads at once, canonical and
// diversified. Run first in a fresh process, as ctest runs it, the threads
// race to build each arch's canonical image; every image a thread booted
// must equal the one a serial boot of the same config produces.
TEST(BootThreads, ConcurrentBootsMatchSerialBoots) {
  struct Config {
    Arch arch;
    ImageCase image;
  };
  std::vector<Config> configs;
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    for (const ImageCase& c : ImageCases()) configs.push_back({arch, c});
  }
  const std::size_t n = configs.size();
  constexpr std::size_t kThreads = 4;
  // Thread t boots every config, starting t quarters in, so the first boots
  // of both arches overlap.
  std::vector<std::vector<std::string>> seen(kThreads,
                                             std::vector<std::string>(n));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&configs, &seen, n, t] {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (k + t * n / kThreads) % n;
        const Config& config = configs[i];
        auto sys = Boot(config.arch, config.image.prot, config.image.seed);
        seen[t][i] = sys.ok() ? ImageFingerprint(*sys.value())
                              : sys.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t i = 0; i < n; ++i) {
    const Config& config = configs[i];
    auto sys = Boot(config.arch, config.image.prot, config.image.seed);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    const std::string serial = ImageFingerprint(*sys.value());
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][i], serial)
          << CaseLabel(config.arch, config.image) << ", thread " << t;
    }
  }
}

// --- Snapshot / restore fast reboots ---------------------------------------

TEST(Snapshot, RoundTripRestoresMemoryAndCpu) {
  for (Arch arch : {Arch::kVX86, Arch::kVARM}) {
    auto sys = Boot(arch, ProtectionConfig::None(), 5).value();
    const Snapshot snap = TakeSnapshot(*sys);
    const std::uint32_t sp0 = sys->cpu->sp();
    const mem::GuestAddr stack_probe = sp0 - 64;
    const util::Bytes before =
        sys->space.DebugRead(stack_probe, 32).value();

    // Trash guest state the way a corrupted execution would: scribble on
    // the stack, move registers, change permissions, advance the RNG.
    ASSERT_TRUE(
        sys->space.DebugWrite(stack_probe, util::Bytes(32, 0xEE)).ok());
    sys->cpu->set_sp(sp0 - 256);
    sys->cpu->set_pc(0xDEAD);
    sys->cpu->PushEvent(vm::EventKind::kNote, "corruption");
    ASSERT_TRUE(sys->space.Protect("stack", mem::kPermRX).ok());
    (void)sys->rng.NextU64();

    ASSERT_TRUE(RestoreSnapshot(*sys, snap).ok());
    EXPECT_EQ(sys->space.DebugRead(stack_probe, 32).value(), before);
    EXPECT_EQ(sys->cpu->sp(), sp0);
    EXPECT_EQ(sys->cpu->pc(), snap.cpu.pc);
    EXPECT_TRUE(sys->cpu->events().empty());
    const mem::Segment* stack = sys->space.FindSegmentByName("stack");
    ASSERT_NE(stack, nullptr);
    EXPECT_TRUE(mem::Has(stack->perms(), mem::Perm::kWrite));
    // Restored RNG replays the same stream as a fresh boot would.
    auto fresh = Boot(arch, ProtectionConfig::None(), 5).value();
    EXPECT_EQ(sys->rng.NextU64(), fresh->rng.NextU64());
  }
}

TEST(Snapshot, RestoreAfterExecutionRewindsSteps) {
  auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  const Snapshot snap = TakeSnapshot(*sys);
  const std::uint64_t steps0 = sys->cpu->steps_executed();
  (void)sys->cpu->Run(50);  // wander from _start for a bit
  EXPECT_GT(sys->cpu->steps_executed(), steps0);
  ASSERT_TRUE(RestoreSnapshot(*sys, snap).ok());
  EXPECT_EQ(sys->cpu->steps_executed(), steps0);
  EXPECT_FALSE(sys->cpu->stopped());
}

TEST(Snapshot, RefusesForeignSystem) {
  auto a = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  auto b = Boot(Arch::kVX86, ProtectionConfig::WxAslr(), 977).value();
  const Snapshot snap = TakeSnapshot(*a);
  // Different ASLR slide => different segment bases; the restore must
  // refuse rather than scribble over the wrong layout.
  auto status = RestoreSnapshot(*b, snap);
  if (b->layout.libc_base != a->layout.libc_base) {
    EXPECT_FALSE(status.ok());
  }
}

// Trashes guest state the way a corrupted execution would: stack scribble,
// register churn, a W^X flip, RNG advance. Deterministic, so two
// identically-booted systems end up trashed identically.
void TrashSystem(System& sys) {
  const std::uint32_t sp0 = sys.cpu->sp();
  ASSERT_TRUE(sys.space.DebugWrite(sp0 - 64, util::Bytes(32, 0xEE)).ok());
  ASSERT_TRUE(sys.space.WriteU32(sys.layout.bss_base + 16, 0xFEEDu).ok());
  sys.cpu->set_sp(sp0 - 256);
  sys.cpu->set_pc(0xDEAD);
  ASSERT_TRUE(sys.space.Protect("stack", mem::kPermRX).ok());
  (void)sys.rng.NextU64();
}

std::vector<util::Bytes> AllSegmentBytes(const System& sys) {
  std::vector<util::Bytes> out;
  for (const auto& seg : sys.space.segments()) out.push_back(seg->data());
  return out;
}

TEST(Snapshot, DirtyOnlyRestoreIsObservablyIdenticalToFull) {
  auto full_sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  auto dirty_sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  const Snapshot full_snap = TakeSnapshot(*full_sys);
  const Snapshot dirty_snap = TakeSnapshot(*dirty_sys);

  TrashSystem(*full_sys);
  TrashSystem(*dirty_sys);
  ASSERT_TRUE(RestoreSnapshot(*full_sys, full_snap, RestoreMode::kFull).ok());
  ASSERT_TRUE(
      RestoreSnapshot(*dirty_sys, dirty_snap, RestoreMode::kDirtyOnly).ok());

  EXPECT_EQ(AllSegmentBytes(*full_sys), AllSegmentBytes(*dirty_sys));
  EXPECT_EQ(full_sys->cpu->sp(), dirty_sys->cpu->sp());
  EXPECT_EQ(full_sys->cpu->pc(), dirty_sys->cpu->pc());
  EXPECT_EQ(full_sys->rng.NextU64(), dirty_sys->rng.NextU64());

  // Round 2 on the dirty system: the first restore must leave the bitmap
  // re-armed so a second trash/rewind cycle is just as correct.
  TrashSystem(*dirty_sys);
  ASSERT_TRUE(
      RestoreSnapshot(*dirty_sys, dirty_snap, RestoreMode::kDirtyOnly).ok());
  EXPECT_EQ(AllSegmentBytes(*full_sys), AllSegmentBytes(*dirty_sys));
}

TEST(Snapshot, WxFlipRolledBackByRestoreInBothModes) {
  for (const RestoreMode mode : {RestoreMode::kFull, RestoreMode::kDirtyOnly}) {
    auto sys = Boot(Arch::kVX86, ProtectionConfig::WxAslr(), 5).value();
    const Snapshot snap = TakeSnapshot(*sys);

    // mprotect-style attack staging between snapshot and restore: make the
    // stack executable and the text image writable.
    ASSERT_TRUE(sys->space.Protect("stack", mem::kPermRWX).ok());
    ASSERT_TRUE(sys->space.Protect(".text", mem::kPermRWX).ok());

    ASSERT_TRUE(RestoreSnapshot(*sys, snap, mode).ok());
    const mem::Segment* stack = sys->space.FindSegmentByName("stack");
    const mem::Segment* text = sys->space.FindSegmentByName(".text");
    ASSERT_NE(stack, nullptr);
    ASSERT_NE(text, nullptr);
    // Permissions — not just bytes — are part of the snapshot contract.
    EXPECT_EQ(stack->perms(), mem::kPermRW)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(text->perms(), mem::kPermRX) << "mode " << static_cast<int>(mode);
  }
}

/// Superblock tier across W^X flips and snapshot restores: a hot loop in
/// .scratch compiles into blocks, a Protect flip bumps the segment's write
/// generation (dropping them), and a RestoreSnapshot in either mode rewinds
/// bytes + permissions. Re-running and then rewriting the loop afterwards
/// must always execute the current bytes — never a stale compiled block.
TEST(Snapshot, SuperblockTierSurvivesWxFlipAndRestoreInBothModes) {
  for (const RestoreMode mode : {RestoreMode::kFull, RestoreMode::kDirtyOnly}) {
    auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 7).value();
    ASSERT_TRUE(sys->cpu->exec().superblocks);
    const mem::GuestAddr scratch = sys->Sym("scratch.start").value();
    const Snapshot snap = TakeSnapshot(*sys);

    auto assemble_loop = [&](std::uint32_t iters) {
      isa::Assembler a(Arch::kVX86, scratch);
      isa::vx86::EncMovImm(a.w(), isa::kEAX, iters);
      a.Label("loop");
      isa::vx86::EncSubImm(a.w(), isa::kEAX, 1);
      isa::vx86::EncCmpImm(a.w(), isa::kEAX, 0);
      a.JnzLabel("loop");
      isa::vx86::EncHlt(a.w());
      return a.Finish().value();
    };

    // Round 1: compile + run the loop hot (blocks built and re-entered).
    ASSERT_TRUE(sys->space.DebugWrite(scratch, assemble_loop(500)).ok());
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());
    sys->cpu->set_pc(scratch);
    auto first = sys->cpu->Run(100000);
    EXPECT_EQ(first.reason, vm::StopReason::kHalted);
    EXPECT_EQ(first.steps, 1502u) << "mode " << static_cast<int>(mode);

    // W^X flip mid-life bumps the generation, then restore rewinds all of
    // it (bytes AND permissions) to the snapshot image.
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRW).ok());
    ASSERT_TRUE(RestoreSnapshot(*sys, snap, mode).ok());

    // Round 2 on the restored image: a different loop at the same pc. A
    // stale block from round 1 would retire 1502 steps; the rewritten
    // 200-iteration loop retires 602.
    ASSERT_TRUE(sys->space.DebugWrite(scratch, assemble_loop(200)).ok());
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());
    sys->cpu->set_pc(scratch);
    auto second = sys->cpu->Run(100000);
    EXPECT_EQ(second.reason, vm::StopReason::kHalted);
    EXPECT_EQ(second.steps, 602u) << "mode " << static_cast<int>(mode);
  }
}

/// Snapshot restore drops stale successor blocks: a two-block chain
/// compiles in round 1, the restore rewinds .scratch, and round 2 rewrites
/// only the *successor* at the same addresses. The unchanged predecessor
/// must not hand control to the old successor's compiled block.
TEST(Snapshot, RestoreDropsStaleBlockLinksInBothModes) {
  for (const RestoreMode mode : {RestoreMode::kFull, RestoreMode::kDirtyOnly}) {
    auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 7).value();
    const mem::GuestAddr scratch = sys->Sym("scratch.start").value();
    const Snapshot snap = TakeSnapshot(*sys);

    // Predecessor bytes are identical in both rounds; only the successor's
    // immediate differs, so a surviving compile of B is exactly the hazard.
    util::ByteWriter probe;
    isa::vx86::EncMovImm(probe, isa::kECX, 5);
    isa::vx86::EncJmp(probe, 0);
    const std::uint32_t b_addr = static_cast<std::uint32_t>(
        scratch + probe.bytes().size());
    auto assemble_chain = [&](std::uint32_t esi_val) {
      util::ByteWriter w;
      isa::vx86::EncMovImm(w, isa::kECX, 5);  // A
      isa::vx86::EncJmp(w, b_addr);
      isa::vx86::EncMovImm(w, isa::kESI, esi_val);  // B
      isa::vx86::EncHlt(w);
      return w.bytes();
    };

    ASSERT_TRUE(sys->space.DebugWrite(scratch, assemble_chain(7)).ok());
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());
    sys->cpu->set_pc(scratch);
    EXPECT_EQ(sys->cpu->Run(100).reason, vm::StopReason::kHalted);
    EXPECT_EQ(sys->cpu->reg(isa::kESI), 7u);

    ASSERT_TRUE(RestoreSnapshot(*sys, snap, mode).ok());
    ASSERT_TRUE(sys->space.DebugWrite(scratch, assemble_chain(9)).ok());
    ASSERT_TRUE(sys->space.Protect(".scratch", mem::kPermRX).ok());
    sys->cpu->set_pc(scratch);
    EXPECT_EQ(sys->cpu->Run(100).reason, vm::StopReason::kHalted);
    EXPECT_EQ(sys->cpu->reg(isa::kESI), 9u)
        << "stale block survived restore, mode " << static_cast<int>(mode);
  }
}

// The dirty-only restore walks the page bitmap a 64-bit word at a time.
// Dirty pages at both ends of the first word, in the last word and on the
// partial tail page of an odd-sized segment all come back in both modes,
// and a second restore with nothing dirty copies nothing.
TEST(Snapshot, DirtyWalkRestoresFirstLastAndTailPagesInBothModes) {
  // 149 full pages plus a 77-byte tail page: three bitmap words, the last
  // one partly used.
  constexpr std::uint32_t kPage = mem::Segment::kDirtyPageSize;
  constexpr std::uint32_t kSize = 149 * kPage + 77;
  constexpr mem::GuestAddr kBase = 0x10000;
  for (const RestoreMode mode : {RestoreMode::kFull, RestoreMode::kDirtyOnly}) {
    System sys;
    ASSERT_TRUE(sys.space.Map("odd", kBase, kSize, mem::kPermRW).ok());
    sys.cpu = std::make_unique<vm::Cpu>(Arch::kVX86, sys.space);
    util::Bytes image(kSize);
    for (std::uint32_t i = 0; i < kSize; ++i) {
      image[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    ASSERT_TRUE(sys.space.WriteBytes(kBase, image).ok());
    const Snapshot snap = TakeSnapshot(sys);
    const mem::Segment* seg = sys.space.FindSegmentByName("odd");
    ASSERT_NE(seg, nullptr);

    // Pages 0 and 63 (first word), 128 (last word) and 149 (the tail page,
    // written at its first and its last byte).
    for (const mem::GuestAddr addr :
         {kBase, kBase + 63 * kPage + 200, kBase + 128 * kPage + 1,
          kBase + 149 * kPage, kBase + kSize - 1}) {
      ASSERT_TRUE(sys.space.WriteU8(addr, 0xEE).ok());
    }
    EXPECT_EQ(seg->CountDirtyPages(), 4u);

    obs::Scope scope;
    ASSERT_TRUE(RestoreSnapshot(sys, snap, mode).ok());
    EXPECT_EQ(seg->data(), image);
    EXPECT_FALSE(seg->HasDirtyPages());
    const std::uint64_t gen = seg->generation();
    ASSERT_TRUE(RestoreSnapshot(sys, snap, mode).ok());  // nothing dirty
    EXPECT_EQ(seg->data(), image);
    const obs::MetricsSnapshot m = scope.Metrics();
    if (mode == RestoreMode::kDirtyOnly) {
      EXPECT_EQ(m.counters.at("mem.dirty_pages_copied"), 4u);
      EXPECT_EQ(seg->generation(), gen);  // a clean restore keeps caches warm
    } else {
      EXPECT_EQ(m.counters.at("loader.restore_segments_full"), 2u);
    }
  }
}

TEST(Snapshot, DirtyOnlyFallsBackWhenBaselineBelongsToAnotherSnapshot) {
  auto sys = Boot(Arch::kVX86, ProtectionConfig::None(), 5).value();
  const mem::GuestAddr probe = sys->layout.bss_base + 8;
  const std::uint32_t probe_at_a = sys->space.ReadU32(probe).value();
  const Snapshot snap_a = TakeSnapshot(*sys);

  ASSERT_TRUE(sys->space.WriteU32(probe, 0xB000Bu).ok());
  const Snapshot snap_b = TakeSnapshot(*sys);  // baselines now point at B

  ASSERT_TRUE(sys->space.WriteU32(probe, 0xC000Cu).ok());

  // Restoring A with the bitmap armed for B must not trust the dirty bits:
  // every segment falls back to a full copy, and the probe returns to A's
  // value, not B's.
  ASSERT_TRUE(RestoreSnapshot(*sys, snap_a, RestoreMode::kDirtyOnly).ok());
  EXPECT_EQ(sys->space.ReadU32(probe).value(), probe_at_a);

  // And the fallback re-armed the baseline for A: flipping back to B now
  // takes the mismatch path again, still byte-correct.
  ASSERT_TRUE(RestoreSnapshot(*sys, snap_b, RestoreMode::kDirtyOnly).ok());
  EXPECT_EQ(sys->space.ReadU32(probe).value(), 0xB000Bu);
}

}  // namespace
}  // namespace connlab::loader
