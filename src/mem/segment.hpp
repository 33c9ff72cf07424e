// A contiguous mapped region of guest memory: [base, base+size) with one
// permission set and a name (".text", ".bss", "libc", "stack", ...).
//
// Each segment carries a monotonically increasing write generation: any
// mutation of its bytes (or its permissions) bumps the counter. The CPU's
// superblock tier keys compiled blocks on (segment, generation), so
// self-modifying code — shellcode written onto an executable stack and then
// jumped to — is never executed from a stale decode.
//
// Piggybacked on the same write paths is page-granular dirty tracking
// (256-byte pages, one bit each): every byte mutation also sets its page's
// dirty bit. loader::TakeSnapshot resets the dirty set against a baseline
// id, and RestoreSnapshot's dirty-only mode copies back just the pages
// touched since — O(touched pages) instead of O(image) for a typical fuzz
// execution that scribbles a few stack frames of a multi-hundred-KB image.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/perms.hpp"
#include "src/util/bytes.hpp"

namespace connlab::mem {

using GuestAddr = std::uint32_t;

class Segment {
 public:
  Segment(std::string name, GuestAddr base, std::uint32_t size, Perm perms);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] GuestAddr base() const noexcept { return base_; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(data_.size());
  }
  [[nodiscard]] GuestAddr end() const noexcept { return base_ + size(); }
  [[nodiscard]] Perm perms() const noexcept { return perms_; }
  void set_perms(Perm perms) noexcept { perms_ = perms; }

  [[nodiscard]] bool Contains(GuestAddr addr) const noexcept {
    return addr >= base_ && addr < end();
  }
  /// True iff [addr, addr+len) fits wholly inside the segment.
  [[nodiscard]] bool ContainsRange(GuestAddr addr, std::uint32_t len) const noexcept;

  // Raw accessors. Callers must have validated the range (the AddressSpace
  // front door does); these index directly.
  [[nodiscard]] std::uint8_t At(GuestAddr addr) const noexcept {
    return data_[addr - base_];
  }
  void Set(GuestAddr addr, std::uint8_t value) noexcept {
    const std::uint32_t off = addr - base_;
    data_[off] = value;
    ++generation_;
    dirty_[off >> (kDirtyPageShift + 6)] |= 1ull << ((off >> kDirtyPageShift) & 63u);
  }
  /// Bulk write without per-byte generation bumps (one bump per call).
  void SetBytes(GuestAddr addr, util::ByteSpan bytes) noexcept;
  /// Copies `len` bytes from `src` to [addr, addr+len) one byte at a time,
  /// lowest address first. `src` may point into this segment and overlap
  /// the range: each byte is read after every earlier one was written,
  /// exactly as a guest byte loop would. One generation bump; every page
  /// the range touches is marked dirty.
  void CopyForward(GuestAddr addr, const std::uint8_t* src,
                   std::uint32_t len) noexcept;
  /// Sets [addr, addr+len) to `value`: one generation bump, every touched
  /// page marked dirty.
  void Fill(GuestAddr addr, std::uint32_t len, std::uint8_t value) noexcept;
  [[nodiscard]] util::ByteSpan SpanAt(GuestAddr addr, std::uint32_t len) const noexcept;

  [[nodiscard]] const util::Bytes& data() const noexcept { return data_; }
  /// Mutable backing bytes. Handing out the reference counts as a write:
  /// callers (loader image builders, snapshot restore) may scribble freely,
  /// so the generation is bumped — and every page marked dirty —
  /// pessimistically here.
  util::Bytes& mutable_data() noexcept {
    ++generation_;
    MarkAllDirty();
    return data_;
  }

  /// Write generation: bumped on every byte/permission mutation. Compiled
  /// blocks tagged with an older generation are stale.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  void BumpGeneration() noexcept { ++generation_; }

  // --- Dirty-page tracking -------------------------------------------------
  static constexpr std::uint32_t kDirtyPageShift = 8;
  static constexpr std::uint32_t kDirtyPageSize = 1u << kDirtyPageShift;  // 256

  /// Clears the dirty set and stamps whose snapshot it is measured against.
  /// A restore may only trust the dirty bits when its snapshot's id matches
  /// the current baseline; anything else (an older snapshot, a segment that
  /// never had a snapshot taken) must fall back to a full copy.
  void ResetDirty(std::uint64_t baseline_id) noexcept;
  [[nodiscard]] std::uint64_t dirty_baseline() const noexcept {
    return dirty_baseline_;
  }
  [[nodiscard]] bool HasDirtyPages() const noexcept;
  [[nodiscard]] std::uint32_t CountDirtyPages() const noexcept;
  void MarkAllDirty() noexcept;

  /// Copies every dirty page's bytes back from `reference` (a same-size
  /// image of this segment), clears the dirty set, and bumps the generation
  /// once iff anything was copied — an untouched segment keeps its
  /// generation, so blocks compiled from it stay warm across the restore.
  /// Returns the number of pages copied.
  std::uint32_t RestoreDirtyPagesFrom(util::ByteSpan reference) noexcept;

 private:
  /// Sets the dirty bit of every page [off, off+len) touches (len > 0).
  void MarkDirty(std::uint32_t off, std::uint32_t len) noexcept;

  std::string name_;
  GuestAddr base_;
  Perm perms_;
  util::Bytes data_;
  std::uint64_t generation_ = 0;
  std::vector<std::uint64_t> dirty_;  // one bit per 256-byte page
  std::uint64_t dirty_baseline_ = 0;  // 0 = no snapshot baseline yet
};

}  // namespace connlab::mem
