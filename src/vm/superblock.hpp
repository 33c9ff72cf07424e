// Superblock execution tier: lazily compiled straight-line guest regions
// executed as computed-goto threaded code.
//
// The interpreter (vm/cpu.cpp) pays a per-instruction tax: the Run() loop's
// budget check and slot probe, a host-function lookup, a permission-checked
// fetch, a decode and the switch-dispatch in ExecVX86/ExecVARM. This tier is
// the VM's only decode cache, and it hoists all of that to once per *block*:
// starting from a pc, the builder walks the instruction stream until the
// first unconditional control transfer (jmp, call, ret, indirect branch,
// syscall, hlt), host-function trampoline, undecodable byte, op no handler
// runs, segment end or the block-length cap, and records one threaded-code
// op per instruction — a direct handler address (GCC/Clang `&&label`), the
// decoded instruction, its pc / fall-through pc and its precomputed AFL
// coverage location. Execution then jumps handler-to-handler with no switch
// and no per-step fetch or decode.
//
// Conditional branches (jz/jnz) are side exits, not block ends: taken, the
// op leaves the block exactly as a terminating branch would; not taken, it
// falls through to the next op (or to the exit sentinel when the block was
// cut off right after it). So a `cmp; jz out; ...; jmp head` loop — the
// shape of connman.copy_label — compiles to one block.
//
// A direct branch back to its own block's entry (the tight-loop shape),
// whether a terminator or a taken side exit, re-enters the block without
// returning to the dispatch loop, after re-making every check a fresh entry
// from Cpu::Run makes (generation, stop state, budget). Every other block
// exit returns to Run, whose direct-mapped slot probe finds the next block.
//
// Bulk copy passes. Block formation recognises one block by the shape of its
// ops, on both ISAs: the self-looping byte copy
//   cmp n,0; jz/beq out; ldb/ldrb t,[s+a]; stb/strb t,[d+b];
//   add d,1; add s,1; sub n,1; jmp/b entry
// with n, t, s and d four distinct registers read from the ops
// (connman.copy_label's loop is this shape; nothing keys on the symbol).
// Its closing branch gets its own handler: at each self-loop re-entry it
// retires k whole passes in one host loop before the ordinary handlers
// take over again. k is the largest count that
//   - n allows (every bulk pass sees n != 0, so its jz falls through);
//   - the budget allows with one more pass to spare for the handlers;
//   - the source segment can read and the destination segment can write
//     from s+a and d+b (mem::AddressSpace::Accessible, which records no
//     fault);
// and k is 0 when the destination is the block's own code segment, whose
// stores must take the mid-block SMC exit. k bulk passes leave exactly what
// k ordinary passes leave: registers (t holds the last byte copied) and
// zf; steps_ += 8k and hits += k; each pass's eight coverage cells raised
// by k with 0xFF saturation, first touches logged in op order; a
// byte-forward copy when source and destination overlap; dirty pages and a
// generation change on the destination segment. The loop exit, the tail
// and every fault run through the ordinary handlers, so stop and fault
// records are the interpreter's. vm.superblock.bulk_passes counts the bulk
// passes, a share of vm.superblock.hits.
//
// Each CPU compiles its own blocks straight from segment bytes; no block
// store outlives its CPU or is shared between CPUs.
//
// Correctness contract (tier on vs off, the differential suite checks the
// tier's own work; the per-op goldens in tests/test_ops.cpp pin what each
// op does):
//   - Blocks are keyed to (segment, write generation). Any byte or
//     permission mutation — SMC, a W^X flip, a debugger poke, a snapshot
//     restore that copied pages back — moves the generation and the block
//     is dropped and lazily rebuilt from the new bytes.
//   - Store-class ops re-check the code segment's generation *mid-block*
//     and exit to the interpreter when the guest just overwrote its own
//     instruction stream (shellcode patching the sled it is running on).
//     Host functions and syscalls can write guest memory too; syscalls end
//     their block, and host functions only ever run from the interpreter.
//   - A handler runs its op's one definition (vm/ops.hpp), which the
//     interpreter runs too, after the interpreter's per-step work: the
//     steps_ count, the AFL edge update and, before an op that can fault,
//     stop or read r15, pc (and VARM's r15) at the op's fall-through.
//   - Anything else — tracing, a host-function pc, an unfetchable or
//     undecodable pc, a VARM op writing r15 or an ALU op reading it, a
//     budget smaller than the block (counted as a full pass, side exits
//     ignored, so an early exit only ever leaves budget over) — falls back
//     to the interpreter for one step.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "src/isa/isa.hpp"
#include "src/mem/segment.hpp"

namespace connlab::vm {

/// One threaded-code operation: everything its handler needs, precomputed.
struct SbOp {
  const void* handler = nullptr;  // &&label inside Cpu::ExecSuperblock
  isa::Instr instr{};
  mem::GuestAddr pc = 0;       // guest address of this instruction
  mem::GuestAddr pc_next = 0;  // fall-through address (pc + length)
  std::uint32_t cov_loc = 0;   // CoverageLocation(pc), hoisted out of the loop
};

/// A compiled region: straight-line code whose only exits before the last op
/// are conditional side exits. `ops[0..count)` are real instructions; when
/// the last one can fall through (cap / boundary ended the block, not an
/// unconditional control transfer — possibly right after a side exit) one
/// extra exit sentinel op follows that re-syncs pc and leaves the executor.
/// A block of one op is a block. `count == 0` marks a negative-cache entry:
/// the entry pc is a host function, undecodable, or an op only the
/// interpreter runs (VARM's r15 forms), and the interpreter steps it.
struct Superblock {
  static constexpr std::uint32_t kMaxOps = 64;

  mem::GuestAddr entry = 0;
  std::uint32_t count = 0;  // real instructions, excluding the exit sentinel
  std::vector<SbOp> ops;

  [[nodiscard]] bool usable() const noexcept { return count != 0; }
};

/// Direct-mapped hot-path slot. Valid while `seg->generation() == gen`;
/// a stale slot is overwritten without ever dereferencing `block`.
struct SuperblockSlot {
  mem::GuestAddr pc = 0;
  std::uint64_t gen = 0;
  const mem::Segment* seg = nullptr;
  const Superblock* block = nullptr;  // nullptr = empty slot
};

/// Per-CPU block store: a per-segment map of compiled blocks keyed to the
/// segment's write generation, fronted by a direct-mapped slot array for the
/// hot path. Never shared across threads (each worker owns its Cpu), so no
/// locking anywhere.
class SuperblockCache {
 public:
  static constexpr std::uint32_t kSlots = 2048;  // power of two

  [[nodiscard]] SuperblockSlot& SlotFor(mem::GuestAddr pc, std::uint32_t shift) noexcept {
    return slots_[(pc >> shift) & (kSlots - 1)];
  }

  /// Blocks compiled from one segment at one write generation. The map's
  /// nodes are pointer-stable, so SuperblockSlot::block stays valid until
  /// the whole SegBlocks is invalidated.
  struct SegBlocks {
    const mem::Segment* seg = nullptr;
    std::uint64_t gen = 0;
    std::map<mem::GuestAddr, Superblock> blocks;
  };

  /// The block store for `seg` at its *current* generation: re-keys (and
  /// drops every stale block) when the segment was written or re-protected
  /// since the blocks were compiled.
  SegBlocks& For(const mem::Segment* seg) {
    for (SegBlocks& entry : segs_) {
      if (entry.seg != seg) continue;
      if (entry.gen != seg->generation()) {
        if (!entry.blocks.empty()) {
          ++invalidations;
          entry.blocks.clear();
        }
        entry.gen = seg->generation();
      }
      return entry;
    }
    segs_.push_back(SegBlocks{seg, seg->generation(), {}});
    return segs_.back();
  }

  /// Drops everything (a host-fn registration can invalidate blocks
  /// without a generation bump).
  void Flush() noexcept {
    segs_.clear();
    slots_.fill(SuperblockSlot{});
  }

  // Tier counters, batched per-CPU like ObsBatch and flushed to the obs
  // registry as vm.superblock.{compiles,hits,fallbacks,invalidations,
  // bulk_passes}.
  std::uint64_t compiles = 0;       // usable blocks built
  std::uint64_t hits = 0;           // blocks dispatched
  std::uint64_t fallbacks = 0;      // interpreter steps Run took instead
  std::uint64_t invalidations = 0;  // generation bumps that dropped blocks
  std::uint64_t bulk_passes = 0;    // the share of `hits` retired in bulk

 private:
  std::vector<SegBlocks> segs_;  // a handful of segments per address space
  std::array<SuperblockSlot, kSlots> slots_{};
};

/// An empty type with a no-op Clear(), kept only for perfbench/workloads.cpp,
/// which calls `vm::SharedSuperblockRegistry::Instance().Clear()` before each
/// campaign. No compiled block outlives its CPU, so every campaign already
/// starts as a fresh process would.
struct SharedSuperblockRegistry {
  static SharedSuperblockRegistry Instance() noexcept { return {}; }
  void Clear() noexcept {}
};

}  // namespace connlab::vm
