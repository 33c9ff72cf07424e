#include "src/loader/connman_image.hpp"

#include <functional>
#include <string>
#include <vector>

#include "src/isa/assembler.hpp"
#include "src/util/rng.hpp"

namespace connlab::loader {

namespace {

using isa::Arch;
using isa::Assembler;

// The canonical image is byte-for-byte deterministic; decorative code is
// drawn from a fixed-seed stream, never from the per-boot RNG. Under the
// §IV compile-time-diversity model, `diversity_build` perturbs the block
// order (and, through the shared stream, the filler instructions), so two
// builds expose different gadget/PLT addresses.
constexpr std::uint64_t kImageSeed = 0x434f4e4e4d414e21ULL;  // "CONNMAN!"

/// Emits `blocks` in canonical order, or permuted when a diversity model is
/// active (Fisher-Yates). Compile-time diversity keys the permutation on the
/// build id alone; stochastic (DAEDALUS-style) diversity folds the boot seed
/// in and additionally pads random inter-function gaps via `pad_gap`, so two
/// boots of the same build expose different gadget/PLT addresses.
void EmitBlocks(std::vector<std::function<void()>> blocks,
                const ProtectionConfig& prot, std::uint64_t boot_seed,
                const std::function<void(util::Rng&)>& pad_gap) {
  const bool shuffled = prot.diversity || prot.stochastic_diversity;
  if (!shuffled) {
    for (auto& block : blocks) block();
    return;
  }
  std::uint64_t key = kImageSeed ^ prot.diversity_build;
  if (prot.stochastic_diversity) {
    key ^= (boot_seed + 1) * 0x9E3779B97F4A7C15ULL;  // never the canonical key
  }
  util::Rng layout_rng(key);
  for (std::size_t i = blocks.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(layout_rng.NextBelow(i));
    std::swap(blocks[i - 1], blocks[j]);
  }
  for (auto& block : blocks) {
    if (prot.stochastic_diversity) pad_gap(layout_rng);
    block();
  }
}

// ---------------------------------------------------------------- VX86 ----

void EmitDecorativeFnVX86(Assembler& a, util::Rng& rng, int index) {
  a.Label("fn.decor_" + std::to_string(index));
  isa::vx86::EncPushReg(a.w(), isa::kEBP);
  isa::vx86::EncMovReg(a.w(), isa::kEBP, isa::kESP);
  const int body = 2 + static_cast<int>(rng.NextBelow(6));
  for (int i = 0; i < body; ++i) {
    const std::uint8_t reg =
        static_cast<std::uint8_t>(rng.NextBelow(4));  // eax..ebx only
    switch (rng.NextBelow(4)) {
      case 0:
        isa::vx86::EncMovImm(a.w(), reg, rng.NextU32() & 0xFFFF);
        break;
      case 1:
        isa::vx86::EncAddImm(a.w(), reg, rng.NextU32() & 0xFF);
        break;
      case 2:
        isa::vx86::EncXorReg(a.w(), reg, reg);
        break;
      default:
        isa::vx86::EncMovReg(a.w(), reg,
                             static_cast<std::uint8_t>(rng.NextBelow(4)));
        break;
    }
  }
  isa::vx86::EncPopReg(a.w(), isa::kEBP);
  isa::vx86::EncRet(a.w());
}

util::Result<util::Bytes> BuildTextVX86(const Layout& layout, Assembler& a,
                                        const ProtectionConfig& prot,
                                        std::uint64_t boot_seed) {
  namespace x = isa::vx86;
  util::Rng rng(kImageSeed);

  // Process entry. Decorative: the DnsProxy drives the interesting paths.
  a.Label("connman._start");
  a.CallLabel("connman.main");
  x::EncHlt(a.w());

  a.Label("connman.main");
  x::EncPushReg(a.w(), isa::kEBP);
  x::EncMovReg(a.w(), isa::kEBP, isa::kESP);
  a.CallLabel("connman.forward_dns_reply");
  x::EncPopReg(a.w(), isa::kEBP);
  x::EncRet(a.w());

  // The benign return target of parse_response: a host fn is registered at
  // this address which stops the CPU cleanly ("response processed").
  a.Label("connman.resume_ok");
  x::EncHlt(a.w());

  // Parser entry points (hosted natively by connman::DnsProxy; the labels
  // anchor symbols and backtraces).
  a.Label("connman.forward_dns_reply");
  x::EncPushReg(a.w(), isa::kEBP);
  x::EncMovReg(a.w(), isa::kEBP, isa::kESP);
  a.CallLabel("connman.parse_response");
  x::EncPopReg(a.w(), isa::kEBP);
  x::EncRet(a.w());

  a.Label("connman.parse_response");
  x::EncHlt(a.w());
  a.Label("connman.get_name");
  x::EncHlt(a.w());
  a.Label("connman.parse_rr");
  x::EncHlt(a.w());

  // The inlined copy loop of get_name (the vulnerable memcpy of paper
  // Listing 1), as real guest code: copy_label(dst, src, n) — no bound
  // check anywhere in sight. The DnsProxy calls this through the CPU, so
  // the overflow writes (and the fault that ends a DoS) are executed
  // instruction by instruction.
  a.Label("connman.copy_label");
  x::EncLoad(a.w(), isa::kEDI, isa::kESP, 4);    // dst
  x::EncLoad(a.w(), isa::kESI, isa::kESP, 8);    // src
  x::EncLoad(a.w(), isa::kECX, isa::kESP, 12);   // n
  a.Label("connman.copy_label.loop");
  x::EncCmpImm(a.w(), isa::kECX, 0);
  a.JzLabel("connman.copy_label.done");
  x::EncLoadByte(a.w(), isa::kEAX, isa::kESI, 0);
  x::EncStoreByte(a.w(), isa::kEAX, isa::kEDI, 0);
  x::EncAddImm(a.w(), isa::kEDI, 1);
  x::EncAddImm(a.w(), isa::kESI, 1);
  x::EncSubImm(a.w(), isa::kECX, 1);
  a.JmpLabel("connman.copy_label.loop");
  a.Label("connman.copy_label.done");
  x::EncRet(a.w());
  // copy_label's return address: the hlt stops the CPU, and DnsProxy's
  // native parser carries on with the next label.
  a.Label("connman.copy_done");
  x::EncHlt(a.w());

  // Everything below is position-independent with respect to the exploits'
  // knowledge: under the diversity model these blocks are permuted per
  // build, moving the PLT, the gadgets and the filler around.
  std::vector<std::function<void()>> blocks;

  // PLT: one indirect jump per imported function, through its GOT slot.
  // There is intentionally no strcpy here (Connman only has __strcpy_chk,
  // which cannot be used to build strings — hence the memcpy chain).
  const std::uint32_t got = layout.got_base;
  blocks.emplace_back([&a, got] {
    a.Label("plt.memcpy");
    x::EncJmpInd(a.w(), got + 0);
    a.Label("plt.execlp");
    x::EncJmpInd(a.w(), got + 4);
    a.Label("plt.__strcpy_chk");
    x::EncJmpInd(a.w(), got + 8);
  });

  // Decorative functions, so the paper's gadgets sit in the middle of
  // plausible code rather than at the start of .text.
  for (int i = 0; i < 44; ++i) {
    blocks.emplace_back([&a, &rng, i] { EmitDecorativeFnVX86(a, rng, i); });
  }

  // The gadget the x86 ROP chain needs after each memcpy@plt call: four
  // pops (three arguments + one garbage word) then ret. (§III-C1)
  blocks.emplace_back([&a] {
    a.Label("gadget.pppr");
    x::EncPopReg(a.w(), isa::kESI);
    x::EncPopReg(a.w(), isa::kEDI);
    x::EncPopReg(a.w(), isa::kEBX);
    x::EncPopReg(a.w(), isa::kEBP);
    x::EncRet(a.w());
  });

  // Smaller pops, as found in ordinary epilogues.
  blocks.emplace_back([&a] {
    a.Label("gadget.pop_ret");
    x::EncPopReg(a.w(), isa::kEBX);
    x::EncRet(a.w());
    a.Label("gadget.pop_pop_ret");
    x::EncPopReg(a.w(), isa::kECX);
    x::EncPopReg(a.w(), isa::kEDX);
    x::EncRet(a.w());
  });

  // Gap filler is hlt bytes — the established inter-function padding, and
  // inert if a wild jump ever lands in one.
  EmitBlocks(std::move(blocks), prot, boot_seed, [&a](util::Rng& layout_rng) {
    const std::size_t pad = layout_rng.NextBelow(13);
    for (std::size_t i = 0; i < pad; ++i) x::EncHlt(a.w());
  });
  return a.Finish();
}

// ---------------------------------------------------------------- VARM ----

void EmitDecorativeFnVARM(Assembler& a, util::Rng& rng, int index) {
  namespace v = isa::varm;
  a.Label("fn.decor_" + std::to_string(index));
  v::EncPush(a.w(), v::Mask({isa::kR4, isa::kR5, isa::kLR}));
  const int body = 2 + static_cast<int>(rng.NextBelow(6));
  for (int i = 0; i < body; ++i) {
    const std::uint8_t reg = static_cast<std::uint8_t>(rng.NextBelow(4));
    switch (rng.NextBelow(4)) {
      case 0:
        v::EncMovW(a.w(), reg, static_cast<std::uint16_t>(rng.NextU32()));
        break;
      case 1:
        v::EncAddImm(a.w(), reg, reg,
                     static_cast<std::uint8_t>(rng.NextBelow(200)));
        break;
      case 2:
        v::EncMvn(a.w(), reg, static_cast<std::uint8_t>(rng.NextBelow(4)));
        break;
      default:
        v::EncMovReg(a.w(), reg,
                     static_cast<std::uint8_t>(4 + rng.NextBelow(2)));
        break;
    }
  }
  v::EncPop(a.w(), v::Mask({isa::kR4, isa::kR5, isa::kPC}));
}

util::Result<util::Bytes> BuildTextVARM(const Layout& layout, Assembler& a,
                                        const ProtectionConfig& prot,
                                        std::uint64_t boot_seed) {
  namespace v = isa::varm;
  util::Rng rng(kImageSeed ^ 0xA);

  a.Label("connman._start");
  a.BlLabel("connman.main");
  v::EncHlt(a.w());

  a.Label("connman.main");
  v::EncPush(a.w(), v::Mask({isa::kR4, isa::kLR}));
  a.BlLabel("connman.forward_dns_reply");
  v::EncPop(a.w(), v::Mask({isa::kR4, isa::kPC}));

  a.Label("connman.resume_ok");
  v::EncHlt(a.w());

  a.Label("connman.forward_dns_reply");
  v::EncPush(a.w(), v::Mask({isa::kR4, isa::kLR}));
  a.BlLabel("connman.parse_response");
  v::EncPop(a.w(), v::Mask({isa::kR4, isa::kPC}));

  a.Label("connman.parse_response");
  v::EncHlt(a.w());
  a.Label("connman.get_name");
  v::EncHlt(a.w());
  a.Label("connman.parse_rr");
  v::EncHlt(a.w());

  // get_name's inlined copy loop as guest code: copy_label(r0=dst, r1=src,
  // r2=n), returning via lr. No bound check — this IS the CVE.
  a.Label("connman.copy_label");
  a.Label("connman.copy_label.loop");
  v::EncCmpImm(a.w(), isa::kR2, 0);
  a.BeqLabel("connman.copy_label.done");
  v::EncLdrb(a.w(), isa::kR3, isa::kR1, 0);
  v::EncStrb(a.w(), isa::kR3, isa::kR0, 0);
  v::EncAddImm(a.w(), isa::kR0, isa::kR0, 1);
  v::EncAddImm(a.w(), isa::kR1, isa::kR1, 1);
  v::EncSubImm(a.w(), isa::kR2, isa::kR2, 1);
  a.BLabel("connman.copy_label.loop");
  a.Label("connman.copy_label.done");
  v::EncBx(a.w(), isa::kLR);
  a.Label("connman.copy_done");  // the return address; hlt, as on VX86
  v::EncHlt(a.w());

  std::vector<std::function<void()>> blocks;

  // PLT entries: load the GOT slot address from a literal, load the slot,
  // branch. 16 bytes each.
  blocks.emplace_back([&a, &layout] {
    const auto emit_plt = [&a](const std::string& name, std::uint32_t got_slot) {
      a.Label("plt." + name);
      a.LdrLitLabel(isa::kR12, "plt.lit." + name);
      v::EncLdrInd(a.w(), isa::kR12, isa::kR12);
      v::EncBx(a.w(), isa::kR12);
      a.Label("plt.lit." + name);
      a.Word32(got_slot);
    };
    emit_plt("memcpy", layout.got_base + 0);
    emit_plt("execlp", layout.got_base + 4);
    emit_plt("__strcpy_chk", layout.got_base + 8);
  });

  for (int i = 0; i < 44; ++i) {
    blocks.emplace_back([&a, &rng, i] { EmitDecorativeFnVARM(a, rng, i); });
  }

  // The paper's register-load gadget (§III-B2, Listing 2): pops r0-r3 and
  // r5-r7 — skipping r4 — and pc. A wide epilogue of this exact shape is
  // what made the exploit viable (narrower pops trip parse_rr, see
  // connman/frame.hpp).
  blocks.emplace_back([&a] {
    a.Label("gadget.pop_regs_pc");
    v::EncPop(a.w(), v::Mask({isa::kR0, isa::kR1, isa::kR2, isa::kR3, isa::kR5,
                              isa::kR6, isa::kR7, isa::kPC}));
  });

  // The branch-link gadget for the ASLR chain (§III-C2, Listing 5): calls
  // through r3, and on return falls into `pop {r8, pc}`, which consumes the
  // chain's "offset characters for blx" word and the next gadget address.
  blocks.emplace_back([&a] {
    a.Label("gadget.blx_r3");
    v::EncBlx(a.w(), isa::kR3);
    a.Label("gadget.pop_r8_pc");
    v::EncPop(a.w(), v::Mask({isa::kR8, isa::kPC}));

    // A deliberately narrow gadget, kept for the ablation that reproduces
    // the paper's "a gadget with fewer registers results in a SIGSEV in
    // parse_rr" observation.
    a.Label("gadget.pop_r0_pc");
    v::EncPop(a.w(), v::Mask({isa::kR0, isa::kPC}));
  });

  // VARM instructions are fixed 4-byte words; gaps stay word-aligned.
  EmitBlocks(std::move(blocks), prot, boot_seed, [&a](util::Rng& layout_rng) {
    const std::size_t pad = layout_rng.NextBelow(4);
    for (std::size_t i = 0; i < pad; ++i) v::EncHlt(a.w());
  });
  return a.Finish();
}

// -------------------------------------------------------------- rodata ----

util::Result<util::Bytes> BuildRodata(Arch arch, Assembler& a) {
  // Plausible strings for a network daemon. Together they guarantee that
  // every character of "/bin/sh" exists somewhere in the non-randomised
  // image — which is all the paper's memcpy-chain needs (§III-C1 finds
  // single characters with ROPgadget --memstr).
  a.Label("rodata.banner");
  a.Asciz(arch == Arch::kVX86 ? "connman 1.34 (x86)" : "connman 1.34 (armv7)");
  a.Label("rodata.dnsproxy");
  a.Asciz("dnsproxy: bad response from server");
  a.Label("rodata.paths");
  a.Asciz("/usr/share/connman");
  a.Label("rodata.lib");
  a.Asciz("/usr/lib/connman/include");
  a.Label("rodata.busy");
  a.Asciz("busybox network shim");
  a.Label("rodata.fmt");
  a.Asciz("%s: state %d, iface %s");
  a.Label("rodata.hosts");
  a.Asciz("/etc/hosts");
  a.Label("rodata.resolv");
  a.Asciz("/etc/resolv.conf");
  return a.Finish();
}

}  // namespace

util::Status LoadConnmanImage(System& sys) {
  const Layout& l = sys.layout;
  auto& space = sys.space;

  CONNLAB_RETURN_IF_ERROR(space.Map(".text", l.text_base, l.text_size, mem::kPermRX));
  CONNLAB_RETURN_IF_ERROR(
      space.Map(".rodata", l.rodata_base, l.rodata_size, mem::kPermR));
  CONNLAB_RETURN_IF_ERROR(space.Map(".got", l.got_base, l.got_size, mem::kPermRW));
  CONNLAB_RETURN_IF_ERROR(space.Map(".bss", l.bss_base, l.bss_size, mem::kPermRW));
  CONNLAB_RETURN_IF_ERROR(
      space.Map(".scratch", l.scratch_base, l.scratch_size, mem::kPermRW));
  // Heap: rw- under W^X, rwx otherwise — same policy as the stack (the
  // "no protections" builds leave every data mapping executable).
  const mem::Perm heap_perm = sys.prot.wx ? mem::kPermRW : mem::kPermRWX;
  CONNLAB_RETURN_IF_ERROR(space.Map("heap", l.heap_base, l.heap_size, heap_perm));

  // .text
  Assembler text_asm(sys.arch, l.text_base);
  CONNLAB_ASSIGN_OR_RETURN(
      util::Bytes text,
      sys.arch == Arch::kVX86
          ? BuildTextVX86(l, text_asm, sys.prot, sys.boot_seed)
          : BuildTextVARM(l, text_asm, sys.prot, sys.boot_seed));
  if (text.size() > l.text_size) {
    return util::ResourceExhausted("generated .text exceeds the segment");
  }
  CONNLAB_RETURN_IF_ERROR(space.DebugWrite(l.text_base, text));
  CONNLAB_RETURN_IF_ERROR(sys.symbols.Import(text_asm.labels()));
  sys.sections.push_back(
      {".text", l.text_base, static_cast<std::uint32_t>(text.size())});

  // .rodata
  Assembler ro_asm(sys.arch, l.rodata_base);
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes rodata, BuildRodata(sys.arch, ro_asm));
  if (rodata.size() > l.rodata_size) {
    return util::ResourceExhausted("generated .rodata exceeds the segment");
  }
  CONNLAB_RETURN_IF_ERROR(space.DebugWrite(l.rodata_base, rodata));
  CONNLAB_RETURN_IF_ERROR(sys.symbols.Import(ro_asm.labels()));
  sys.sections.push_back(
      {".rodata", l.rodata_base, static_cast<std::uint32_t>(rodata.size())});

  // GOT slots (resolved when libc loads).
  CONNLAB_RETURN_IF_ERROR(sys.symbols.Define("got.memcpy", l.got_base + 0));
  CONNLAB_RETURN_IF_ERROR(sys.symbols.Define("got.execlp", l.got_base + 4));
  CONNLAB_RETURN_IF_ERROR(
      sys.symbols.Define("got.__strcpy_chk", l.got_base + 8));
  sys.sections.push_back({".got", l.got_base, 12});
  sys.sections.push_back({".bss", l.bss_base, l.bss_size});
  sys.sections.push_back({".scratch", l.scratch_base, l.scratch_size});
  CONNLAB_RETURN_IF_ERROR(sys.symbols.Define("bss.start", l.bss_base));
  CONNLAB_RETURN_IF_ERROR(sys.symbols.Define("scratch.start", l.scratch_base));

  // Benign-return sentinel: parse_response's legitimate return address.
  CONNLAB_ASSIGN_OR_RETURN(mem::GuestAddr resume, sys.Sym("connman.resume_ok"));
  CONNLAB_RETURN_IF_ERROR(sys.cpu->RegisterHostFn(
      resume, "connman.resume_ok", [](vm::Cpu& cpu) {
        cpu.PushEvent(vm::EventKind::kNote, "parse_response returned cleanly");
        cpu.RequestStop(vm::StopReason::kHalted, "response processed");
        return util::OkStatus();
      }));
  return util::OkStatus();
}

}  // namespace connlab::loader
