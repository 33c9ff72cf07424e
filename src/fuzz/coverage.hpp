// AFL-style edge-coverage bitmap.
//
// The CPU (attached through CoverageMap::AttachTo) increments one 8-bit
// cell per retired instruction, indexed by hash(prev pc) ^ hash(cur pc);
// targets fold extra semantic features in (outcome kinds, expansion-volume
// buckets, raised events) through AddFeature. Raw hit counts are bucketed
// into the classic count classes (1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+)
// before novelty comparison, so "the copy loop ran twice as long" is new
// coverage but "ran 41 vs 42 times" is not — exactly the signal that walks
// the fuzzer from benign names toward the 1024-byte boundary and past it.
//
// Beside the 64 KiB of cells the map keeps a first-touch log: the index of
// every nonzero cell, each exactly once, in the order the cells left zero.
// One execution lights a few to a few hundred of the 65536 cells, so every
// per-exec operation (Clear, Classify, AbsorbInto) and every per-campaign
// one (MergeClassified, CountNonZero, Digest) walks the log instead of the
// map and costs O(cells lit). The invariant holds because
//   - a cell is logged exactly when it goes from 0 to nonzero, by whoever
//     writes it: the CPU's edge recorder in both execution tiers
//     (Cpu::RecordCoverageEdge, fed through AttachTo), AddFeature, the
//     virgin side of AbsorbInto, ApplyDelta and MergeClassified;
//   - no operation but Clear ever returns a cell to 0 (Classify maps a
//     nonzero count to a nonzero class bit, the others only OR or
//     saturate), and Clear empties the log with it;
//   - nothing else can write a cell: the only mutable view of the cells is
//     the one AttachTo hands the CPU together with the log.
// Every result equals a byte-at-a-time scan of the whole map (same class
// table, absorb semantics and FNV stream in index order), except that
// AbsorbInto emits its deltas in log order; ApplyDelta ORs them, so their
// order never reaches a digest.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace connlab::vm {
class Cpu;
}  // namespace connlab::vm

namespace connlab::fuzz {

/// One cell's worth of newly-discovered (classified) coverage: the bits
/// `index` gained when an execution was absorbed into a virgin map. A batch
/// of these is the sparse between-worker currency of the epoch sync — tiny
/// compared to shipping 64KiB maps around.
struct CoverageDelta {
  std::uint32_t index = 0;
  std::uint8_t bits = 0;
};

class CoverageMap {
 public:
  /// 64 KiB, the AFL default: big enough that this library's guest images
  /// (a few hundred distinct locations) essentially never collide.
  static constexpr std::uint32_t kSize = 1u << 16;
  static constexpr std::uint32_t kMask = kSize - 1;
  static_assert(kSize <= 65536, "log entries are 16-bit cell indices");

  [[nodiscard]] const std::uint8_t* data() const noexcept { return map_.data(); }

  /// Indices of the nonzero cells, each once, in first-touch order.
  [[nodiscard]] std::span<const std::uint16_t> touched() const noexcept {
    return touched_;
  }

  /// Points `cpu`'s edge recorder at this map's cells and log until
  /// Cpu::DetachCoverage. The map must outlive the attachment.
  void AttachTo(vm::Cpu& cpu) noexcept;

  void Clear() noexcept;

  /// Folds a non-edge feature (outcome kind, size bucket, event kind) into
  /// the same bitmap. Saturating, like the edge counters.
  void AddFeature(std::uint32_t feature) noexcept {
    const std::uint32_t index = feature & kMask;
    std::uint8_t& cell = map_[index];
    if (cell == 0) touched_.push_back(static_cast<std::uint16_t>(index));
    if (cell != 0xFF) ++cell;
  }

  /// Replaces every cell with its count-class bit (1<<class).
  void Classify() noexcept;

  /// OR-merges `other` (classified or raw — it is classified in place by
  /// the caller's contract being "call Classify first"; merging classified
  /// maps is commutative and associative, which is what makes multi-worker
  /// coverage deterministic regardless of scheduling).
  void MergeClassified(const CoverageMap& other) noexcept;

  /// Compares this (classified) execution map against the accumulated
  /// `virgin` map and absorbs it. Returns 2 for brand-new edges, 1 for new
  /// count classes on known edges, 0 for nothing new. When `delta` is
  /// non-null, every newly-set (index, bits) pair is appended to it — the
  /// sparse record a fuzz worker publishes at the next epoch barrier.
  int AbsorbInto(CoverageMap& virgin,
                 std::vector<CoverageDelta>* delta = nullptr) const;

  /// ORs a batch of sparse deltas (another worker's epoch finds) into this
  /// map. Idempotent, commutative across batches.
  void ApplyDelta(std::span<const CoverageDelta> delta) noexcept;

  /// Number of cells with any bit set.
  [[nodiscard]] std::uint32_t CountNonZero() const noexcept {
    return static_cast<std::uint32_t>(touched_.size());
  }

  /// Order-independent digest of the (classified) map, for determinism
  /// checks across runs / worker counts.
  [[nodiscard]] std::uint64_t Digest() const noexcept;

  [[nodiscard]] std::string Summary() const;

 private:
  /// ORs `bits` into cell `index`, logging the cell if it leaves zero.
  void OrCell(std::uint32_t index, std::uint8_t bits) noexcept;

  std::array<std::uint8_t, kSize> map_{};
  std::vector<std::uint16_t> touched_;
};

/// The count-class bucket (a single bit) for a raw hit count.
std::uint8_t CountClass(std::uint8_t raw) noexcept;

}  // namespace connlab::fuzz
