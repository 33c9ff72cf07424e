#include "src/loader/boot.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/loader/connman_image.hpp"
#include "src/loader/libc_image.hpp"
#include "src/obs/obs.hpp"

namespace connlab::loader {

namespace {

/// A booted System is about 290 KiB of heap: a 128 KiB stack, a 64 KiB guest
/// heap, the text images and, once it runs, the superblock slot array. The
/// defense grid boots and drops thousands a second. glibc's default
/// policy returns that span to the kernel whenever a teardown leaves more
/// than 264 KiB free at the top of the heap (twice the largest mmap'd chunk
/// freed so far, the first 128 KiB stack), and the next boot faults it back
/// in page by page: 46 minor faults per grid cell and a fifth of a grid run
/// in the kernel, at a cost that swings with the host's load. Fixed
/// thresholds keep every System allocation in the heap and keep freed
/// Systems there for the next boot. Called once, before the first boot
/// allocates.
bool KeepFreedSystemsInHeap() {
#if defined(__GLIBC__)
  constexpr int kMmapThreshold = 1 << 20;  // 8x the largest System buffer
  constexpr int kTrimThreshold = 16 << 20;
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, kTrimThreshold);
#endif
  return true;
}

}  // namespace

util::Result<std::unique_ptr<System>> Boot(isa::Arch arch,
                                           const ProtectionConfig& prot,
                                           std::uint64_t seed,
                                           const vm::ExecConfig& exec) {
  [[maybe_unused]] static const bool heap_policy = KeepFreedSystemsInHeap();
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

    return sys;
  }
  return util::Internal("could not place stack after 16 ASLR redraws");
}

}  // namespace connlab::loader
