// Snapshot/restore fast reboots: capture a booted System's full guest state
// once, then rewind to it in microseconds instead of re-running the loader.
//
// A snapshot records what a fork-server parent process would hold frozen:
// every segment's bytes and permissions, the CPU's architectural state
// (registers, flags, shadow stack, event log) and the boot RNG stream.
// Restoring copies the bytes back and resets the CPU. Host-side service
// objects (DnsProxy & friends) are NOT part of the snapshot — their host
// functions are stateless lambdas, so callers recreate the service object
// after a restore to clear host-side caches/pending tables, exactly as a
// fresh boot would.
//
// Restores come in two flavours:
//
//   kFull      — every segment's bytes are copied back wholesale and its
//                write generation bumped (the original behaviour).
//   kDirtyOnly — only the 256-byte pages written since TakeSnapshot are
//                copied back, using mem::Segment's dirty bitmap. A segment
//                that was never touched keeps its bytes AND its write
//                generation, so superblocks compiled from it stay warm
//                across the reboot. The dirty bitmap is only
//                trusted when the segment's baseline id matches this
//                snapshot's id (TakeSnapshot stamps it); any mismatch — an
//                older snapshot, an interleaved TakeSnapshot on the same
//                System — falls back to a full copy of that segment.
//
// Both flavours restore permissions too: a W^X flip (mprotect-style attack
// staging) between snapshot and restore is rolled back, with a generation
// bump mirroring AddressSpace::Protect so stale blocks die with it.
//
// Used by src/fuzz (per-exec reboot after a corrupted run) and the defense
// diversity lab (one boot + many volleys per diversified victim).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/loader/boot.hpp"
#include "src/mem/perms.hpp"
#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"
#include "src/util/status.hpp"
#include "src/vm/cpu.hpp"

namespace connlab::loader {

struct Snapshot {
  struct SegmentImage {
    std::string name;
    mem::GuestAddr base = 0;
    util::Bytes data;
    mem::Perm perms = mem::Perm::kNone;
  };
  std::vector<SegmentImage> segments;
  vm::Cpu::State cpu;
  util::Rng rng{0};
  // Unique id stamped into each segment's dirty baseline at TakeSnapshot
  // time; dirty-only restores verify it before trusting the dirty bitmap.
  std::uint64_t id = 0;
};

/// kDirtyOnly copies a segment whole when its dirty bitmap belongs to some
/// other snapshot of the System.
enum class RestoreMode {
  kDirtyOnly,  // copy only pages dirtied since TakeSnapshot
  kFull,       // copy every segment wholesale
};

/// Captures the complete restorable state of a booted System and resets
/// every segment's dirty bitmap against this snapshot's fresh baseline id.
[[nodiscard]] Snapshot TakeSnapshot(System& sys);

/// Rewinds `sys` to `snap`. Fails (without touching the System) if the
/// segment roster no longer matches the snapshot — snapshots are only valid
/// against the System they were taken from, which never remaps.
util::Status RestoreSnapshot(System& sys, const Snapshot& snap,
                             RestoreMode mode = RestoreMode::kDirtyOnly);

}  // namespace connlab::loader
