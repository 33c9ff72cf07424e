#include "src/fuzz/coverage.hpp"

#include <algorithm>
#include <cstdio>

#include "src/vm/cpu.hpp"

namespace connlab::fuzz {

namespace {
// 256-entry class lookup built once: raw count -> single class bit.
struct ClassTable {
  std::array<std::uint8_t, 256> t{};
  constexpr ClassTable() {
    for (int i = 0; i < 256; ++i) {
      std::uint8_t cls = 0;
      if (i == 0) cls = 0;
      else if (i == 1) cls = 1u << 0;
      else if (i == 2) cls = 1u << 1;
      else if (i == 3) cls = 1u << 2;
      else if (i <= 7) cls = 1u << 3;
      else if (i <= 15) cls = 1u << 4;
      else if (i <= 31) cls = 1u << 5;
      else if (i <= 127) cls = 1u << 6;
      else cls = 1u << 7;
      t[static_cast<std::size_t>(i)] = cls;
    }
  }
};
constexpr ClassTable kClasses;

}  // namespace

std::uint8_t CountClass(std::uint8_t raw) noexcept { return kClasses.t[raw]; }

void CoverageMap::AttachTo(vm::Cpu& cpu) noexcept {
  cpu.AttachCoverage(map_.data(), kMask, &touched_);
}

void CoverageMap::OrCell(std::uint32_t index, std::uint8_t bits) noexcept {
  std::uint8_t& cell = map_[index];
  if (cell == 0 && bits != 0) {
    touched_.push_back(static_cast<std::uint16_t>(index));
  }
  cell |= bits;
}

void CoverageMap::Clear() noexcept {
  for (const std::uint16_t i : touched_) map_[i] = 0;
  touched_.clear();
}

void CoverageMap::Classify() noexcept {
  for (const std::uint16_t i : touched_) map_[i] = kClasses.t[map_[i]];
}

void CoverageMap::MergeClassified(const CoverageMap& other) noexcept {
  for (const std::uint16_t i : other.touched_) OrCell(i, other.map_[i]);
}

int CoverageMap::AbsorbInto(CoverageMap& virgin,
                            std::vector<CoverageDelta>* delta) const {
  int news = 0;
  for (const std::uint16_t i : touched_) {
    const std::uint8_t known = virgin.map_[i];
    const std::uint8_t gained = static_cast<std::uint8_t>(map_[i] & ~known);
    if (gained == 0) continue;
    const int cell_news = known == 0 ? 2 : 1;
    if (cell_news > news) news = cell_news;
    if (delta != nullptr) delta->push_back(CoverageDelta{i, gained});
    virgin.OrCell(i, gained);
  }
  return news;
}

void CoverageMap::ApplyDelta(std::span<const CoverageDelta> delta) noexcept {
  for (const CoverageDelta& d : delta) OrCell(d.index & kMask, d.bits);
}

std::uint64_t CoverageMap::Digest() const noexcept {
  // FNV-1a over (index, value) pairs of non-zero cells, in index order.
  std::vector<std::uint16_t> order(touched_.begin(), touched_.end());
  std::sort(order.begin(), order.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t i : order) {
    h = (h ^ i) * 0x100000001b3ULL;
    h = (h ^ map_[i]) * 0x100000001b3ULL;
  }
  return h;
}

std::string CoverageMap::Summary() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u/%u cells", CountNonZero(), kSize);
  return buf;
}

}  // namespace connlab::fuzz
