#include "src/loader/boot.hpp"

#include "src/loader/connman_image.hpp"
#include "src/loader/libc_image.hpp"
#include "src/obs/obs.hpp"
#include "src/vm/decode_plan.hpp"

namespace connlab::loader {

util::Result<std::unique_ptr<System>> Boot(isa::Arch arch,
                                           const ProtectionConfig& prot,
                                           std::uint64_t seed,
                                           const vm::ExecConfig& exec) {
  OBS_TRACE_SPAN(boot_span, "loader", "Boot");
  OBS_COUNT("loader.boots");
  util::Rng rng(seed ^ 0xB007B007B007ULL);

  // High-entropy ASLR draws can (rarely) collide libc with the stack; real
  // kernels redraw, and so do we.
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto sys = std::make_unique<System>();
    sys->arch = arch;
    sys->prot = prot;
    sys->boot_seed = seed;
    sys->exec = exec;
    sys->rng = rng.Fork();
    sys->layout = RandomizedLayout(arch, prot, rng);
    sys->cpu = std::make_unique<vm::Cpu>(arch, sys->space, exec);
    sys->cpu->set_shadow_stack_enabled(prot.cfi);

    CONNLAB_RETURN_IF_ERROR(LoadConnmanImage(*sys));
    CONNLAB_RETURN_IF_ERROR(LoadLibcImage(*sys));

    // Stack: rw- under W^X, rwx otherwise (the paper's "no protections"
    // builds were compiled with an executable stack).
    const mem::Perm stack_perm = prot.wx ? mem::kPermRW : mem::kPermRWX;
    util::Status stack_status =
        sys->space.Map("stack", sys->layout.stack_base(),
                       sys->layout.stack_size, stack_perm);
    if (!stack_status.ok()) {
      if (stack_status.code() == util::StatusCode::kAlreadyExists) continue;
      return stack_status;
    }
    sys->sections.push_back(
        {"stack", sys->layout.stack_base(), sys->layout.stack_size});

    // Full-width canaries keep the historical draw; narrower ones (the
    // brute-force-resistance knob) live in [0x01010101, 0x01010101 + 2^bits)
    // so an attacker's search space is exactly 2^canary_entropy_bits.
    if (prot.canary) {
      const std::uint32_t draw = sys->rng.NextU32();
      const int bits = prot.canary_entropy_bits;
      sys->canary_value =
          (bits >= 32 || bits < 1)
              ? draw | 0x01010101u
              : 0x01010101u + (draw & ((1u << bits) - 1u));
    } else {
      sys->canary_value = 0;
    }
    sys->cpu->set_sp(sys->layout.initial_sp());
    CONNLAB_ASSIGN_OR_RETURN(mem::GuestAddr entry, sys->Sym("connman._start"));
    sys->cpu->set_pc(entry);

    // Shared decode plans for the immutable text images (.text, libc):
    // executable and never writable, so the plan built from this content is
    // valid until a Protect or a debugger poke moves the generation. An
    // identically-seeded boot in another worker reuses the same plan; a
    // diversity-reshuffled boot hashes differently and gets its own. RWX
    // segments (the non-W^X stack) are skipped — the first shellcode byte
    // would invalidate the plan anyway.
    if (exec.decode_caches) {
      for (const auto& seg : sys->space.segments()) {
        if (mem::Has(seg->perms(), mem::Perm::kExec) &&
            !mem::Has(seg->perms(), mem::Perm::kWrite)) {
          sys->cpu->BindDecodePlan(
              seg.get(),
              vm::DecodePlanRegistry::Instance().GetOrBuild(arch, *seg));
        }
      }
    }
    return sys;
  }
  return util::Internal("could not place stack after 16 ASLR redraws");
}

}  // namespace connlab::loader
