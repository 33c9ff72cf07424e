// Connman's DNS response cache (the reason parse_response expands names at
// all: it caches A/AAAA answers keyed by hostname).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::connman {

struct CacheEntry {
  std::string hostname;
  util::Bytes rdata;           // 4 bytes (A) or 16 bytes (AAAA)
  bool ipv6 = false;
  std::uint64_t expires_at = 0;  // sim-time seconds
};

class Cache {
 public:
  explicit Cache(std::size_t capacity = 256) : capacity_(capacity) {}

  /// Inserts/refreshes an entry. Oldest-expiry entry is evicted at capacity.
  void Insert(const std::string& hostname, util::Bytes rdata, bool ipv6,
              std::uint32_t ttl, std::uint64_t now);

  /// Valid (unexpired) entries for a hostname.
  [[nodiscard]] std::vector<CacheEntry> Lookup(const std::string& hostname,
                                               std::uint64_t now) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void Clear() noexcept { entries_.clear(); }

 private:
  std::size_t capacity_;
  std::multimap<std::string, CacheEntry> entries_;
};

}  // namespace connlab::connman
