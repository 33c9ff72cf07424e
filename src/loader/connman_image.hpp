// Builds and loads the simulated Connman main image (.text / .rodata /
// .got / .bss / .scratch) for one architecture.
//
// The image is byte-for-byte deterministic per architecture — exploit
// profiles extracted on one boot stay valid on the next, just as the
// paper's authors reused gdb-derived addresses across runs (the binary is
// not PIE, so ASLR moves only libc and the stack). What keys the image:
//   * .rodata and its symbols: the arch alone;
//   * .text and its symbols: the arch, unless a diversity model shuffles
//     the blocks — compile-time diversity adds `diversity_build`, and
//     stochastic diversity adds the boot seed.
// Each arch's canonical image (.text undiversified, and .rodata) is
// assembled once per process, on first use, and never changes after; each
// boot copies its bytes and imports its symbols. Diversified boots assemble
// their own .text and take the canonical .rodata.
//
// The .text is populated with:
//   * entry labels for the parser routines the DnsProxy hosts natively
//     (connman.parse_response / get_name / parse_rr);
//   * PLT stubs + GOT slots for memcpy / execlp / __strcpy_chk — note there
//     is deliberately NO strcpy, matching the paper's observation that
//     Connman replaces strcpy with __strcpy_chk at compile time;
//   * the specific gadgets the paper uses (x86 pop;pop;pop;pop;ret, ARM
//     pop {r0,r1,r2,r3,r5,r6,r7,pc} and blx r3), plus a population of
//     ordinary-looking functions whose prologues/epilogues provide the
//     incidental gadgets a finder would see in a real binary.
#pragma once

#include "src/loader/boot.hpp"

namespace connlab::loader {

/// Maps the main image segments into sys.space, writes the generated
/// section contents and registers their symbols. Requires layout/cpu set.
util::Status LoadConnmanImage(System& sys);

}  // namespace connlab::loader
