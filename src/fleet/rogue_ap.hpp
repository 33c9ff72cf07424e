// The rogue access point as the fleet sees it: a DHCP server under churn
// plus a bounded DNS response cache the concurrent sessions contend for.
//
// The cache is deliberately deterministic: FIFO ring eviction over uint64
// name-ids, with membership in a flat integer set that is never iterated,
// so a campaign digest is stable across platforms and standard-library
// implementations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/net/dhcp.hpp"
#include "src/util/int_map.hpp"

namespace connlab::fleet {

/// Fixed-capacity membership cache with FIFO (insertion-order) eviction.
class BoundedCache {
 public:
  explicit BoundedCache(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_);
  }

  /// True (and counts a hit) if `key` is cached; counts a miss otherwise.
  bool Lookup(std::uint64_t key) {
    if (members_.Find(key) != nullptr) {
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }

  /// Inserts `key`, evicting the oldest entry when full. No-op if present.
  void Insert(std::uint64_t key) {
    if (!members_.Insert(key, {}).second) return;
    if (ring_.size() == capacity_) {
      members_.Erase(ring_[head_]);
      ring_[head_] = key;
      head_ = (head_ + 1) % capacity_;
      ++evictions_;
    } else {
      ring_.push_back(key);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // next eviction slot once the ring is full
  std::vector<std::uint64_t> ring_;
  util::IntSet members_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The attacker's AP: leases addresses (pointing DNS at itself, §III-D)
/// and resolves the fleet's benign queries through a bounded cache.
class RogueAp {
 public:
  struct Config {
    int dhcp_pool = 8192;
    std::uint64_t lease_ttl_us = 500;
    std::size_t cache_entries = 256;
  };

  explicit RogueAp(const Config& config)
      : dhcp_("10.99.0", "10.99.0.1", "10.99.0.1", config.dhcp_pool),
        cache_(config.cache_entries) {
    dhcp_.set_lease_ttl(config.lease_ttl_us);
  }

  [[nodiscard]] net::DhcpServer& dhcp() noexcept { return dhcp_; }
  [[nodiscard]] BoundedCache& cache() noexcept { return cache_; }

  /// Serves one benign query: cache hit, or simulated upstream resolve +
  /// insert. Returns whether the response came from cache.
  bool ServeBenignQuery(std::uint64_t name_id) {
    if (cache_.Lookup(name_id)) return true;
    cache_.Insert(name_id);
    return false;
  }

 private:
  net::DhcpServer dhcp_;
  BoundedCache cache_;
};

}  // namespace connlab::fleet
