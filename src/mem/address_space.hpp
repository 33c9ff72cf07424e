// The 32-bit guest address space: an ordered set of non-overlapping Segments
// with permission-checked accessors. Every guest memory touch in connlab —
// the vulnerable memcpy, instruction fetch, gadget pops — goes through here,
// so a bad pointer produces a Fault record exactly where a real process
// would take SIGSEGV.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/mem/segment.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::mem {

/// What a failed access looked like; mirrors siginfo for SIGSEGV.
enum class AccessKind : std::uint8_t { kRead, kWrite, kFetch };

std::string AccessKindName(AccessKind kind);

struct FaultInfo {
  AccessKind kind = AccessKind::kRead;
  GuestAddr addr = 0;
  std::string detail;  // "unmapped", "no write permission on .text", ...
};

class AddressSpace {
 public:
  AddressSpace() = default;

  // Movable, not copyable: Segments are heavy and identity matters.
  AddressSpace(AddressSpace&&) noexcept = default;
  AddressSpace& operator=(AddressSpace&&) noexcept = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Maps a new segment. Fails on overlap with an existing one.
  util::Status Map(std::string name, GuestAddr base, std::uint32_t size, Perm perms);

  /// Changes a whole segment's permissions (mprotect analogue).
  util::Status Protect(std::string_view name, Perm perms);

  [[nodiscard]] const Segment* FindSegment(GuestAddr addr) const noexcept;
  [[nodiscard]] const Segment* FindSegmentByName(std::string_view name) const noexcept;
  Segment* FindSegmentByNameMutable(std::string_view name) noexcept;

  // --- Checked guest accessors -------------------------------------------
  // Reads require kRead, writes kWrite, fetches kExec (the W^X teeth).
  // Multi-byte accessors use guest (little-endian) byte order and may NOT
  // straddle segments (real mappings are page-padded; ours are too).

  util::Result<std::uint8_t> ReadU8(GuestAddr addr) const {
    const Segment* seg = CheckAccess(addr, 1, AccessKind::kRead);
    if (seg == nullptr) return FaultStatus();
    return seg->At(addr);
  }
  util::Result<std::uint32_t> ReadU32(GuestAddr addr) const;
  util::Result<util::Bytes> ReadBytes(GuestAddr addr, std::uint32_t len) const;
  /// Reads until NUL or `max_len`; error if it runs off the mapping.
  util::Result<std::string> ReadCString(GuestAddr addr, std::uint32_t max_len = 4096) const;

  util::Status WriteU8(GuestAddr addr, std::uint8_t value) {
    const Segment* seg = CheckAccess(addr, 1, AccessKind::kWrite);
    if (seg == nullptr) return FaultStatus();
    const_cast<Segment*>(seg)->Set(addr, value);
    return util::OkStatus();
  }
  util::Status WriteU32(GuestAddr addr, std::uint32_t value);
  util::Status WriteBytes(GuestAddr addr, util::ByteSpan data);
  /// Writes `len` copies of `value`, checked like WriteBytes.
  util::Status Fill(GuestAddr addr, std::uint32_t len, std::uint8_t value);

  /// The segment holding `addr` and the bytes from `addr` to its end, when
  /// a `kind` access is permitted there; {nullptr, 0} where an access at
  /// `addr` would fault. A probe, not an access: it records no fault. The
  /// caller reads or writes the range through the segment, and owns the
  /// fault of the first byte past it.
  struct Extent {
    Segment* seg = nullptr;
    std::uint32_t len = 0;
  };
  Extent Accessible(GuestAddr addr, AccessKind kind) noexcept;

  /// Fetch check used by the CPU: validates X permission at `addr` for `len`
  /// bytes and returns the backing segment without copying bytes out. A
  /// stack address under W^X fails here. The caller reads the window via
  /// seg->SpanAt(addr, len) and tags compiled blocks with seg->generation().
  /// The pointer stays valid for the segment's lifetime (segments are never
  /// unmapped); the *bytes* it exposes are only current while the
  /// generation is unchanged.
  util::Result<const Segment*> FetchSegment(GuestAddr addr, std::uint32_t len) const;

  /// Unchecked variants for the loader/debugger (ptrace analogue): they see
  /// memory regardless of permissions, but still fail on unmapped addresses.
  util::Result<util::Bytes> DebugRead(GuestAddr addr, std::uint32_t len) const;
  util::Status DebugWrite(GuestAddr addr, util::ByteSpan data);

  /// The last permission/unmapped fault, for diagnostics. Cleared by
  /// ClearFault(). The CPU copies this into its exit record.
  [[nodiscard]] const std::optional<FaultInfo>& last_fault() const noexcept {
    return last_fault_;
  }
  void ClearFault() noexcept { last_fault_.reset(); }

  [[nodiscard]] const std::vector<std::unique_ptr<Segment>>& segments() const noexcept {
    return segments_;
  }

  /// /proc/<pid>/maps analogue for examples and the debugger.
  [[nodiscard]] std::string MapsString() const;

 private:
  /// The front door every checked accessor goes through: returns the
  /// segment holding [addr, addr+len) when `kind` is permitted there, or
  /// nullptr after recording the fault. The inline half only answers hits
  /// on the kind's hot segment; everything else, every fault included,
  /// takes CheckAccessSlow, so fault records never depend on the cache.
  const Segment* CheckAccess(GuestAddr addr, std::uint32_t len,
                             AccessKind kind) const {
    const Segment* seg = hot_[static_cast<std::size_t>(kind)];
    if (seg != nullptr) {
      // addr must lie strictly inside the segment (a zero-length range at
      // end() may belong to the next segment), and the range must fit.
      const std::uint32_t off = addr - seg->base();
      if (off < seg->size() && len <= seg->size() - off &&
          Has(seg->perms(), NeededPerm(kind))) {
        return seg;
      }
    }
    return CheckAccessSlow(addr, len, kind);
  }
  /// Binary-search lookup, fault recording and hot-segment refill.
  const Segment* CheckAccessSlow(GuestAddr addr, std::uint32_t len,
                                 AccessKind kind) const;
  /// The status a failed access returns: last_fault_'s detail.
  [[nodiscard]] util::Status FaultStatus() const;
  static constexpr Perm NeededPerm(AccessKind kind) noexcept {
    return kind == AccessKind::kRead    ? Perm::kRead
           : kind == AccessKind::kWrite ? Perm::kWrite
                                        : Perm::kExec;
  }

  std::vector<std::unique_ptr<Segment>> segments_;  // sorted by base
  mutable std::optional<FaultInfo> last_fault_;
  /// One hot segment per AccessKind: the segment of the kind's last
  /// successful access. Loads, stores and fetches each cluster (a byte copy
  /// reads the heap and writes the stack; .text feeds every fetch), so
  /// separate entries keep one kind from evicting another's. Segment
  /// pointers are stable (unique_ptr elements, no unmap), so an entry never
  /// dangles; bounds and permissions are re-checked on every access, so
  /// permission changes that bypass Protect (snapshot rollbacks through
  /// Segment::set_perms) need no invalidation.
  mutable std::array<const Segment*, 3> hot_{};
};

}  // namespace connlab::mem
