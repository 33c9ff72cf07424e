// A small open-addressing hash table keyed by 64-bit integers, for the hot
// lookups where a node-based std::unordered_map costs an allocation per
// entry and a pointer chase per probe: the DHCP server's leases, the rogue
// AP's cache membership and the victim pool's lanes.
//
// Linear probing over a power-of-two slot array, with Fibonacci hashing so
// that runs of sequential keys (client ids, name ids) spread evenly. The
// array starts empty and doubles whenever an insert would fill more than
// half of it, so a table that may one day hold a large pool costs nothing
// until it does. Erase shifts the later entries of its probe run back into
// the hole, so no tombstones build up and a lookup stops at the first
// empty slot. ForEach visits entries in slot order, which follows the
// keys' hashes: a caller that needs an order sorts what it reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace connlab::util {

template <typename Value>
class IntMap {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] Value* Find(std::uint64_t key) noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (!slot.full) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Stores `value` under `key` unless `key` is present. Returns the
  /// stored value and whether this call inserted it. The pointer lasts
  /// until the next Insert or Erase.
  std::pair<Value*, bool> Insert(std::uint64_t key, Value value) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    for (std::size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (!slot.full) {
        slot.key = key;
        slot.value = std::move(value);
        slot.full = true;
        ++size_;
        return {&slot.value, true};
      }
      if (slot.key == key) return {&slot.value, false};
    }
  }

  /// Removes `key`; returns whether it was present.
  bool Erase(std::uint64_t key) noexcept {
    if (size_ == 0) return false;
    std::size_t hole = Home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
      if (!slots_[hole].full) return false;
    }
    if (!slots_[hole].full) return false;
    // Backward shift: an entry later in the run moves into the hole when
    // the hole lies between its home slot and where it sits now.
    for (std::size_t i = (hole + 1) & mask_; slots_[i].full;
         i = (i + 1) & mask_) {
      const std::size_t home = Home(slots_[i].key);
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole].full = false;
    --size_;
    return true;
  }

  /// Calls f(key, value) for every entry, in slot order.
  template <typename F>
  void ForEach(F&& f) {
    for (Slot& slot : slots_) {
      if (slot.full) f(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    Value value{};
    bool full = false;
  };

  [[nodiscard]] std::size_t Home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64;
    for (std::size_t n = slots_.size(); n > 1; n >>= 1) --shift_;
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.full) Insert(slot.key, std::move(slot.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;  // 64 - log2(slots_.size())
  std::size_t size_ = 0;
};

/// An IntMap used as a set: Insert(key, {}) and Find(key) != nullptr.
struct NoValue {};
using IntSet = IntMap<NoValue>;

}  // namespace connlab::util
