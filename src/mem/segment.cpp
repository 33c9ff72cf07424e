#include "src/mem/segment.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace connlab::mem {

namespace {

constexpr std::uint32_t DirtyWordCount(std::uint32_t size) noexcept {
  const std::uint32_t pages =
      (size + Segment::kDirtyPageSize - 1) >> Segment::kDirtyPageShift;
  return (pages + 63u) >> 6u;
}

}  // namespace

Segment::Segment(std::string name, GuestAddr base, std::uint32_t size, Perm perms)
    : name_(std::move(name)),
      base_(base),
      perms_(perms),
      data_(size, 0),
      dirty_(DirtyWordCount(size), 0) {}

bool Segment::ContainsRange(GuestAddr addr, std::uint32_t len) const noexcept {
  if (len == 0) return Contains(addr) || addr == end();
  if (addr < base_) return false;
  const std::uint64_t last = static_cast<std::uint64_t>(addr) + len;
  return last <= static_cast<std::uint64_t>(end());
}

void Segment::SetBytes(GuestAddr addr, util::ByteSpan bytes) noexcept {
  std::copy(bytes.begin(), bytes.end(), data_.begin() + (addr - base_));
  ++generation_;
  if (!bytes.empty()) {
    MarkDirty(addr - base_, static_cast<std::uint32_t>(bytes.size()));
  }
}

void Segment::CopyForward(GuestAddr addr, const std::uint8_t* src,
                          std::uint32_t len) noexcept {
  std::uint8_t* out = data_.data() + (addr - base_);
  // A plain byte loop, not memmove: when the destination starts inside
  // the source the guest loop re-reads bytes it has just written.
  for (std::uint32_t i = 0; i < len; ++i) out[i] = src[i];
  ++generation_;
  if (len != 0) MarkDirty(addr - base_, len);
}

void Segment::Fill(GuestAddr addr, std::uint32_t len,
                   std::uint8_t value) noexcept {
  std::fill_n(data_.begin() + (addr - base_), len, value);
  ++generation_;
  if (len != 0) MarkDirty(addr - base_, len);
}

void Segment::MarkDirty(std::uint32_t off, std::uint32_t len) noexcept {
  const std::uint32_t first = off >> kDirtyPageShift;
  const std::uint32_t last = (off + len - 1u) >> kDirtyPageShift;
  for (std::uint32_t page = first; page <= last; ++page) {
    dirty_[page >> 6u] |= 1ull << (page & 63u);
  }
}

util::ByteSpan Segment::SpanAt(GuestAddr addr, std::uint32_t len) const noexcept {
  return util::ByteSpan(data_.data() + (addr - base_), len);
}

void Segment::ResetDirty(std::uint64_t baseline_id) noexcept {
  // mutable_data() may have been used to swap in a differently-sized image;
  // keep the bitmap in step before clearing it.
  dirty_.assign(DirtyWordCount(size()), 0);
  dirty_baseline_ = baseline_id;
}

bool Segment::HasDirtyPages() const noexcept {
  for (const std::uint64_t word : dirty_) {
    if (word != 0) return true;
  }
  return false;
}

std::uint32_t Segment::CountDirtyPages() const noexcept {
  std::uint32_t count = 0;
  for (const std::uint64_t word : dirty_) {
    count += static_cast<std::uint32_t>(std::popcount(word));
  }
  return count;
}

void Segment::MarkAllDirty() noexcept {
  dirty_.assign(DirtyWordCount(size()), ~0ull);
  // Mask off the bits past the last real page so CountDirtyPages stays
  // honest.
  const std::uint32_t pages = (size() + kDirtyPageSize - 1) >> kDirtyPageShift;
  const std::uint32_t tail = pages & 63u;
  if (tail != 0 && !dirty_.empty()) dirty_.back() = (1ull << tail) - 1;
}

std::uint32_t Segment::RestoreDirtyPagesFrom(util::ByteSpan reference) noexcept {
  if (dirty_.size() != DirtyWordCount(size())) {
    // The image was resized through mutable_data(); the bitmap can no longer
    // be trusted, so pessimize to everything-dirty at the current size.
    dirty_.assign(DirtyWordCount(size()), ~0ull);
  }
  std::uint32_t copied = 0;
  const std::uint32_t page_count =
      (size() + kDirtyPageSize - 1) >> kDirtyPageShift;
  // Walk the bitmap a word at a time: a clean word costs one compare, and
  // countr_zero jumps straight to each dirty page inside a dirty one.
  for (std::size_t word = 0; word < dirty_.size(); ++word) {
    for (std::uint64_t bits = dirty_[word]; bits != 0; bits &= bits - 1) {
      const std::uint32_t page = static_cast<std::uint32_t>(
          (word << 6u) + static_cast<std::size_t>(std::countr_zero(bits)));
      if (page >= page_count) break;  // pessimized bits past the last page
      const std::uint32_t off = page << kDirtyPageShift;
      const std::uint32_t len = std::min(kDirtyPageSize, size() - off);
      std::copy(reference.begin() + off, reference.begin() + off + len,
                data_.begin() + off);
      ++copied;
    }
  }
  if (copied != 0) {
    ++generation_;
    std::fill(dirty_.begin(), dirty_.end(), 0);
  }
  return copied;
}

}  // namespace connlab::mem
