// Unit tests for the guest memory model: segments, permissions, faults, and
// a seeded model test of the checked front door against a binary-search
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/loader/boot.hpp"
#include "src/loader/snapshot.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/perms.hpp"
#include "src/util/rng.hpp"
#include "src/vm/cpu.hpp"

namespace connlab::mem {
namespace {

using util::StatusCode;

AddressSpace MakeSpace() {
  AddressSpace space;
  EXPECT_TRUE(space.Map(".text", 0x1000, 0x1000, kPermRX).ok());
  EXPECT_TRUE(space.Map(".data", 0x3000, 0x1000, kPermRW).ok());
  EXPECT_TRUE(space.Map("stack", 0x8000, 0x2000, kPermRW).ok());
  return space;
}

TEST(Perms, StringForms) {
  EXPECT_EQ(PermString(kPermRWX), "rwx");
  EXPECT_EQ(PermString(kPermRX), "r-x");
  EXPECT_EQ(PermString(kPermRW), "rw-");
  EXPECT_EQ(PermString(Perm::kNone), "---");
}

TEST(Perms, HasChecksBits) {
  EXPECT_TRUE(Has(kPermRX, Perm::kExec));
  EXPECT_FALSE(Has(kPermRW, Perm::kExec));
  EXPECT_TRUE(Has(kPermRW, Perm::kWrite));
}

TEST(Segment, ContainsRange) {
  Segment seg("s", 0x100, 0x10, kPermRW);
  EXPECT_TRUE(seg.Contains(0x100));
  EXPECT_TRUE(seg.Contains(0x10F));
  EXPECT_FALSE(seg.Contains(0x110));
  EXPECT_TRUE(seg.ContainsRange(0x108, 8));
  EXPECT_FALSE(seg.ContainsRange(0x108, 9));
  EXPECT_FALSE(seg.ContainsRange(0xFF, 2));
}

TEST(AddressSpace, MapRejectsOverlap) {
  AddressSpace space = MakeSpace();
  EXPECT_EQ(space.Map("overlap", 0x1800, 0x100, kPermRW).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(space.Map("touching-ok", 0x2000, 0x100, kPermRW).code(),
            StatusCode::kOk);
}

TEST(AddressSpace, MapRejectsEmptyAnd32BitOverflow) {
  AddressSpace space;
  EXPECT_FALSE(space.Map("empty", 0x1000, 0, kPermRW).ok());
  EXPECT_FALSE(space.Map("huge", 0xFFFFF000, 0x2000, kPermRW).ok());
  EXPECT_TRUE(space.Map("edge", 0xFFFFF000, 0x1000, kPermRW).ok());
}

TEST(AddressSpace, ReadWriteRoundTrip) {
  AddressSpace space = MakeSpace();
  ASSERT_TRUE(space.WriteU32(0x3000, 0xdeadbeef).ok());
  EXPECT_EQ(space.ReadU32(0x3000).value(), 0xdeadbeefu);
  ASSERT_TRUE(space.WriteU8(0x3004, 0x7F).ok());
  EXPECT_EQ(space.ReadU8(0x3004).value(), 0x7F);
}

TEST(AddressSpace, LittleEndianLayout) {
  AddressSpace space = MakeSpace();
  ASSERT_TRUE(space.WriteU32(0x3000, 0x11223344).ok());
  EXPECT_EQ(space.ReadU8(0x3000).value(), 0x44);
  EXPECT_EQ(space.ReadU8(0x3003).value(), 0x11);
}

TEST(AddressSpace, WriteToReadOnlyFails) {
  AddressSpace space = MakeSpace();
  auto status = space.WriteU32(0x1000, 1);
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_EQ(space.last_fault()->kind, AccessKind::kWrite);
  EXPECT_EQ(space.last_fault()->addr, 0x1000u);
}

TEST(AddressSpace, UnmappedAccessFails) {
  AddressSpace space = MakeSpace();
  EXPECT_EQ(space.ReadU32(0x7000).status().code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_NE(space.last_fault()->detail.find("unmapped"), std::string::npos);
}

TEST(AddressSpace, RangeMayNotStraddleSegments) {
  AddressSpace space = MakeSpace();
  // 0x3FFE..0x4002 runs off the end of .data.
  EXPECT_FALSE(space.WriteU32(0x3FFE, 1).ok());
  EXPECT_FALSE(space.ReadU32(0x3FFE).ok());
}

TEST(AddressSpace, FetchEnforcesExec) {
  AddressSpace space = MakeSpace();
  EXPECT_TRUE(space.FetchSegment(0x1000, 4).ok());
  auto r = space.FetchSegment(0x8000, 4);  // stack is rw- : W^X blocks this
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_EQ(space.last_fault()->kind, AccessKind::kFetch);
}

TEST(AddressSpace, FetchFromRwxStackAllowed) {
  AddressSpace space = MakeSpace();
  ASSERT_TRUE(space.Protect("stack", kPermRWX).ok());
  EXPECT_TRUE(space.FetchSegment(0x8000, 4).ok());
}

TEST(AddressSpace, ProtectUnknownSegment) {
  AddressSpace space = MakeSpace();
  EXPECT_EQ(space.Protect("nope", kPermRW).code(), StatusCode::kNotFound);
}

TEST(AddressSpace, ReadCString) {
  AddressSpace space = MakeSpace();
  const util::Bytes s = util::BytesOf("/bin/sh");
  ASSERT_TRUE(space.WriteBytes(0x3100, s).ok());
  ASSERT_TRUE(space.WriteU8(0x3107, 0).ok());
  EXPECT_EQ(space.ReadCString(0x3100).value(), "/bin/sh");
  // Unterminated within max_len:
  EXPECT_FALSE(space.ReadCString(0x3100, 3).ok());
}

TEST(AddressSpace, DebugAccessIgnoresPerms) {
  AddressSpace space = MakeSpace();
  // .text is not writable, but the loader/debugger may write it.
  EXPECT_TRUE(space.DebugWrite(0x1000, util::Bytes{1, 2, 3}).ok());
  EXPECT_EQ(space.DebugRead(0x1000, 3).value(), (util::Bytes{1, 2, 3}));
  // But never unmapped memory.
  EXPECT_FALSE(space.DebugWrite(0x6000, util::Bytes{1}).ok());
  EXPECT_FALSE(space.DebugRead(0x6000, 1).ok());
}

TEST(AddressSpace, FindSegment) {
  AddressSpace space = MakeSpace();
  ASSERT_NE(space.FindSegment(0x1234), nullptr);
  EXPECT_EQ(space.FindSegment(0x1234)->name(), ".text");
  EXPECT_EQ(space.FindSegment(0x0), nullptr);
  EXPECT_EQ(space.FindSegment(0x2000), nullptr);
  ASSERT_NE(space.FindSegmentByName("stack"), nullptr);
  EXPECT_EQ(space.FindSegmentByName("stack")->base(), 0x8000u);
  EXPECT_EQ(space.FindSegmentByName("nope"), nullptr);
}

TEST(AddressSpace, MapsStringListsSegmentsInOrder) {
  AddressSpace space = MakeSpace();
  const std::string maps = space.MapsString();
  const auto text_pos = maps.find(".text");
  const auto data_pos = maps.find(".data");
  const auto stack_pos = maps.find("stack");
  EXPECT_NE(text_pos, std::string::npos);
  EXPECT_LT(text_pos, data_pos);
  EXPECT_LT(data_pos, stack_pos);
  EXPECT_NE(maps.find("r-x"), std::string::npos);
}

TEST(AddressSpace, WriteBytesBulk) {
  AddressSpace space = MakeSpace();
  util::Bytes big(0x800, 0xAB);
  ASSERT_TRUE(space.WriteBytes(0x3000, big).ok());
  auto back = space.ReadBytes(0x3000, 0x800);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), big);
}

TEST(AddressSpace, ClearFault) {
  AddressSpace space = MakeSpace();
  (void)space.ReadU8(0x0);
  ASSERT_TRUE(space.last_fault().has_value());
  space.ClearFault();
  EXPECT_FALSE(space.last_fault().has_value());
}

TEST(AddressSpace, FetchSegmentRequiresExecPermission) {
  AddressSpace space = MakeSpace();
  auto text = space.FetchSegment(0x1000, 4);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value()->name(), ".text");

  auto data = space.FetchSegment(0x3000, 4);
  EXPECT_FALSE(data.ok());
  ASSERT_TRUE(space.last_fault().has_value());
  EXPECT_EQ(space.last_fault()->kind, AccessKind::kFetch);

  EXPECT_FALSE(space.FetchSegment(0x0, 4).ok());       // unmapped
  EXPECT_FALSE(space.FetchSegment(0x1FFE, 4).ok());    // runs off the end
}

TEST(AddressSpace, FetchSegmentWindowMatchesFetch) {
  AddressSpace space = MakeSpace();
  const Segment* seg = space.FindSegmentByName(".text");
  ASSERT_NE(seg, nullptr);
  util::Bytes code{0xAA, 0xBB, 0xCC, 0xDD};
  ASSERT_TRUE(space.DebugWrite(0x1000, code).ok());
  auto got = space.FetchSegment(0x1000, 4);
  ASSERT_TRUE(got.ok());
  const util::ByteSpan window = got.value()->SpanAt(0x1000, 4);
  const util::Bytes copied = space.DebugRead(0x1000, 4).value();
  EXPECT_TRUE(std::equal(window.begin(), window.end(), copied.begin()));
}

TEST(Segment, GenerationBumpsOnEveryMutation) {
  AddressSpace space = MakeSpace();
  const Segment* data = space.FindSegmentByName(".data");
  ASSERT_NE(data, nullptr);
  std::uint64_t gen = data->generation();

  ASSERT_TRUE(space.WriteU8(0x3000, 1).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  ASSERT_TRUE(space.WriteU32(0x3004, 42).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  ASSERT_TRUE(space.WriteBytes(0x3008, util::Bytes{1, 2, 3}).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  ASSERT_TRUE(space.DebugWrite(0x3000, util::Bytes{9}).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  // mprotect counts as a mutation too: X may have been granted or revoked.
  ASSERT_TRUE(space.Protect(".data", kPermRWX).ok());
  EXPECT_GT(data->generation(), gen);
  gen = data->generation();

  // Reads leave the generation alone.
  (void)space.ReadU32(0x3000);
  (void)space.ReadBytes(0x3000, 8);
  EXPECT_EQ(data->generation(), gen);

  // Writes to another segment don't disturb this one.
  ASSERT_TRUE(space.WriteU8(0x8000, 7).ok());
  EXPECT_EQ(data->generation(), gen);
}

TEST(Segment, DirtyTrackingMarksTouchedPages) {
  Segment seg("scratch", 0x4000, 0x1000, kPermRW);  // 16 pages of 256 bytes
  EXPECT_EQ(seg.dirty_baseline(), 0u);  // no snapshot baseline yet

  seg.ResetDirty(7);
  EXPECT_EQ(seg.dirty_baseline(), 7u);
  EXPECT_FALSE(seg.HasDirtyPages());
  EXPECT_EQ(seg.CountDirtyPages(), 0u);

  seg.Set(0x4010, 0xAA);  // page 0
  EXPECT_TRUE(seg.HasDirtyPages());
  EXPECT_EQ(seg.CountDirtyPages(), 1u);

  // A bulk write straddling the page-0/page-1 boundary dirties both, but
  // page 0 was already dirty: only one new bit.
  seg.SetBytes(0x40F0, util::Bytes(32, 0xBB));
  EXPECT_EQ(seg.CountDirtyPages(), 2u);

  seg.Set(0x4300, 0xCC);  // page 3
  EXPECT_EQ(seg.CountDirtyPages(), 3u);

  // Reads don't dirty anything.
  (void)seg.At(0x4FFF);
  (void)seg.SpanAt(0x4800, 16);
  EXPECT_EQ(seg.CountDirtyPages(), 3u);

  seg.MarkAllDirty();
  EXPECT_EQ(seg.CountDirtyPages(), 16u);
}

TEST(Segment, RestoreDirtyPagesCopiesOnlyTouchedAndBumpsOnce) {
  Segment seg("scratch", 0x4000, 0x400, kPermRW);  // 4 pages
  seg.SetBytes(0x4000, util::Bytes(0x400, 0x11));
  seg.ResetDirty(1);
  const util::Bytes reference = seg.data();

  seg.Set(0x4100, 0xEE);  // page 1
  seg.Set(0x43FF, 0xEF);  // page 3
  EXPECT_EQ(seg.CountDirtyPages(), 2u);
  const std::uint64_t gen = seg.generation();

  EXPECT_EQ(seg.RestoreDirtyPagesFrom(
                util::ByteSpan(reference.data(), reference.size())),
            2u);
  EXPECT_EQ(seg.data(), reference);
  // One bump total — enough to kill stale decodes, cheap enough to keep the
  // restore O(touched pages).
  EXPECT_EQ(seg.generation(), gen + 1);
  EXPECT_FALSE(seg.HasDirtyPages());
  // Baseline survives the restore, so the next rewind to the same snapshot
  // may trust the bitmap again.
  EXPECT_EQ(seg.dirty_baseline(), 1u);

  // Nothing dirty => nothing copied, generation untouched, caches stay warm.
  EXPECT_EQ(seg.RestoreDirtyPagesFrom(
                util::ByteSpan(reference.data(), reference.size())),
            0u);
  EXPECT_EQ(seg.generation(), gen + 1);
}

TEST(Segment, MutableDataPessimisticallyDirtiesEverything) {
  Segment seg("scratch", 0x4000, 0x1000, kPermRW);
  seg.ResetDirty(3);
  EXPECT_FALSE(seg.HasDirtyPages());
  (void)seg.mutable_data();
  EXPECT_EQ(seg.CountDirtyPages(), 16u);
}


// --- Front-door model: the per-kind hot segments never change an answer ---

/// Reference front door: a private copy of the segment table and bytes,
/// every access resolved by binary search, faults worded like the real
/// one. The model test drives it in lock-step with a real AddressSpace.
class RefSpace {
 public:
  struct Seg {
    std::string name;
    GuestAddr base = 0;
    Perm perms = Perm::kNone;
    util::Bytes bytes;
    [[nodiscard]] std::uint64_t end() const { return base + bytes.size(); }
  };

  explicit RefSpace(const AddressSpace& space) {
    for (const auto& seg : space.segments()) {
      segs_.push_back(Seg{seg->name(), seg->base(), seg->perms(), seg->data()});
    }
  }

  /// The segment holding [addr, addr+len) with `kind` permitted, or
  /// nullptr after recording the fault.
  Seg* Check(GuestAddr addr, std::uint32_t len, AccessKind kind) {
    auto pos = std::upper_bound(
        segs_.begin(), segs_.end(), addr,
        [](GuestAddr a, const Seg& s) { return a < s.base; });
    Seg* seg = pos == segs_.begin() ? nullptr : &*std::prev(pos);
    if (seg != nullptr && addr >= seg->end()) seg = nullptr;
    if (seg == nullptr ||
        static_cast<std::uint64_t>(addr) + len > seg->end()) {
      fault = FaultInfo{kind, addr, "unmapped address " + Hex(addr)};
      ++faults;
      return nullptr;
    }
    const Perm need = kind == AccessKind::kRead    ? Perm::kRead
                      : kind == AccessKind::kWrite ? Perm::kWrite
                                                   : Perm::kExec;
    if (!Has(seg->perms, need)) {
      fault = FaultInfo{kind, addr,
                        "no " + AccessKindName(kind) + " permission on " +
                            seg->name + " (" + PermString(seg->perms) +
                            ") at " + Hex(addr)};
      ++faults;
      return nullptr;
    }
    return seg;
  }

  Seg* Named(const std::string& name) {
    for (Seg& seg : segs_) {
      if (seg.name == name) return &seg;
    }
    return nullptr;
  }
  std::vector<Seg>& segs() { return segs_; }

  std::optional<FaultInfo> fault;
  std::uint64_t faults = 0;  // accesses that faulted

 private:
  static std::string Hex(GuestAddr a) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", a);
    return buf;
  }

  std::vector<Seg> segs_;
};

/// Random ReadU8/ReadU32/ReadBytes/WriteU8/WriteU32/WriteBytes/FetchSegment
/// calls aimed at segment interiors, first and last bytes, end(), zero-length
/// and straddling ranges and unmapped gaps, interleaved with Protect calls
/// and snapshot rollbacks (which flip permissions through
/// Segment::set_perms, behind Protect's back). Every result, every status
/// and every last_fault() must match the binary-search reference.
TEST(AddressSpace, FrontDoorMatchesBinarySearchModel) {
  loader::System sys;
  // Touching neighbours (.text|.data, heap|ro) make end() of one segment
  // the first byte of the next; odd sizes put ends off word boundaries.
  ASSERT_TRUE(sys.space.Map(".text", 0x1000, 0x1000, kPermRX).ok());
  ASSERT_TRUE(sys.space.Map(".data", 0x2000, 0x800, kPermRW).ok());
  ASSERT_TRUE(sys.space.Map("heap", 0x3000, 0x123, kPermRW).ok());
  ASSERT_TRUE(sys.space.Map("ro", 0x3123, 0xDD, kPermR).ok());
  ASSERT_TRUE(sys.space.Map("stack", 0x8000, 0x2000, kPermRWX).ok());
  sys.cpu = std::make_unique<vm::Cpu>(isa::Arch::kVX86, sys.space);
  AddressSpace& space = sys.space;
  const loader::Snapshot snap = loader::TakeSnapshot(sys);
  RefSpace ref(space);
  const std::vector<RefSpace::Seg> ref_at_snap = ref.segs();

  util::Rng rng(20171017);
  const auto pick_addr = [&](std::uint32_t* len) -> GuestAddr {
    const std::vector<RefSpace::Seg>& segs = ref.segs();
    const RefSpace::Seg& s = segs[rng.NextBelow(segs.size())];
    const auto size = static_cast<std::uint32_t>(s.bytes.size());
    const auto end = static_cast<GuestAddr>(s.end());
    switch (rng.NextBelow(8)) {
      case 0: return s.base + static_cast<GuestAddr>(rng.NextBelow(size));
      case 1: return s.base;
      case 2: return end - 1;
      case 3: return end;
      case 4:  // straddles end() by 1..3 bytes
        *len = std::max<std::uint32_t>(*len, 4);
        return end - static_cast<GuestAddr>(rng.NextInRange(1, 3));
      case 5: return s.base - 1;
      case 6: return 0x4000 + static_cast<GuestAddr>(rng.NextBelow(0x4000));
      default: return rng.NextU32();
    }
  };
  const auto pick_len = [&]() -> std::uint32_t {
    switch (rng.NextBelow(4)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 4;
      default: return static_cast<std::uint32_t>(rng.NextBelow(300));
    }
  };
  const auto expect_same_fault = [&](int op) {
    ASSERT_EQ(space.last_fault().has_value(), ref.fault.has_value()) << op;
    if (!ref.fault.has_value()) return;
    EXPECT_EQ(space.last_fault()->kind, ref.fault->kind) << op;
    EXPECT_EQ(space.last_fault()->addr, ref.fault->addr) << op;
    EXPECT_EQ(space.last_fault()->detail, ref.fault->detail) << op;
  };
  const auto expect_same_status = [&](const util::Status& got, bool ref_ok,
                                      int op) {
    ASSERT_EQ(got.ok(), ref_ok) << op;
    if (!ref_ok) {
      EXPECT_EQ(got.code(), StatusCode::kPermissionDenied) << op;
      EXPECT_EQ(got.message(), ref.fault->detail) << op;
    }
  };

  constexpr Perm kPermChoices[] = {Perm::kNone, kPermR, kPermRW, kPermRX,
                                   kPermRWX};
  for (int op = 0; op < 20000; ++op) {
    std::uint32_t len = pick_len();
    const std::uint64_t verb = rng.NextBelow(20);
    if (verb == 0) {
      RefSpace::Seg& s = ref.segs()[rng.NextBelow(ref.segs().size())];
      const Perm perms = kPermChoices[rng.NextBelow(5)];
      ASSERT_TRUE(space.Protect(s.name, perms).ok());
      s.perms = perms;
      continue;
    }
    if (verb == 1) {
      const auto mode = rng.NextBool(0.5) ? loader::RestoreMode::kFull
                                          : loader::RestoreMode::kDirtyOnly;
      ASSERT_TRUE(loader::RestoreSnapshot(sys, snap, mode).ok());
      ref.segs() = ref_at_snap;  // bytes and permissions roll back
      ref.fault.reset();         // the restore clears the fault record
      expect_same_fault(op);
      continue;
    }
    if (verb == 2) {
      space.ClearFault();
      ref.fault.reset();
      continue;
    }
    const GuestAddr addr = pick_addr(&len);
    switch (verb % 7) {
      case 0: {
        auto got = space.ReadU8(addr);
        RefSpace::Seg* s = ref.Check(addr, 1, AccessKind::kRead);
        expect_same_status(got.status(), s != nullptr, op);
        if (s != nullptr && got.ok()) {
          EXPECT_EQ(got.value(), s->bytes[addr - s->base]) << op;
        }
        break;
      }
      case 1: {
        auto got = space.ReadU32(addr);
        RefSpace::Seg* s = ref.Check(addr, 4, AccessKind::kRead);
        expect_same_status(got.status(), s != nullptr, op);
        if (s != nullptr && got.ok()) {
          const std::size_t off = addr - s->base;
          std::uint32_t want = 0;
          for (int i = 3; i >= 0; --i) want = (want << 8) | s->bytes[off + i];
          EXPECT_EQ(got.value(), want) << op;
        }
        break;
      }
      case 2: {
        auto got = space.ReadBytes(addr, len);
        RefSpace::Seg* s = ref.Check(addr, len, AccessKind::kRead);
        expect_same_status(got.status(), s != nullptr, op);
        if (s != nullptr && got.ok()) {
          const auto first = s->bytes.begin() + (addr - s->base);
          EXPECT_EQ(got.value(), util::Bytes(first, first + len)) << op;
        }
        break;
      }
      case 3: {
        const auto value = static_cast<std::uint8_t>(rng.NextU32());
        const util::Status got = space.WriteU8(addr, value);
        RefSpace::Seg* s = ref.Check(addr, 1, AccessKind::kWrite);
        expect_same_status(got, s != nullptr, op);
        if (s != nullptr) s->bytes[addr - s->base] = value;
        break;
      }
      case 4: {
        const std::uint32_t value = rng.NextU32();
        const util::Status got = space.WriteU32(addr, value);
        RefSpace::Seg* s = ref.Check(addr, 4, AccessKind::kWrite);
        expect_same_status(got, s != nullptr, op);
        if (s != nullptr) {
          for (std::uint32_t i = 0; i < 4; ++i) {
            s->bytes[addr - s->base + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
          }
        }
        break;
      }
      case 5: {
        const util::Bytes data = rng.NextBytes(len);
        const util::Status got = space.WriteBytes(addr, data);
        RefSpace::Seg* s = ref.Check(addr, len, AccessKind::kWrite);
        expect_same_status(got, s != nullptr, op);
        if (s != nullptr) {
          std::copy(data.begin(), data.end(),
                    s->bytes.begin() + (addr - s->base));
        }
        break;
      }
      default: {
        auto got = space.FetchSegment(addr, len);
        RefSpace::Seg* s = ref.Check(addr, len, AccessKind::kFetch);
        expect_same_status(got.status(), s != nullptr, op);
        if (s != nullptr && got.ok()) {
          EXPECT_EQ(got.value()->name(), s->name) << op;
        }
        break;
      }
    }
    expect_same_fault(op);
  }
  // Both halves of the front door ran: hits and faults alike.
  EXPECT_GT(ref.faults, 1000u);
  for (const RefSpace::Seg& s : ref.segs()) {
    const Segment* seg = space.FindSegmentByName(s.name);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->data(), s.bytes) << s.name;
    EXPECT_EQ(seg->perms(), s.perms) << s.name;
  }
}

}  // namespace
}  // namespace connlab::mem
