#include "src/connman/cache.hpp"

#include <algorithm>

namespace connlab::connman {

void Cache::Insert(const std::string& hostname, util::Bytes rdata, bool ipv6,
                   std::uint32_t ttl, std::uint64_t now) {
  // Refresh an identical record instead of duplicating it.
  auto [lo, hi] = entries_.equal_range(hostname);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.rdata == rdata && it->second.ipv6 == ipv6) {
      it->second.expires_at = now + ttl;
      return;
    }
  }
  if (entries_.size() >= capacity_) {
    auto victim = std::min_element(entries_.begin(), entries_.end(),
                                   [](const auto& a, const auto& b) {
                                     return a.second.expires_at <
                                            b.second.expires_at;
                                   });
    if (victim != entries_.end()) entries_.erase(victim);
  }
  CacheEntry entry{hostname, std::move(rdata), ipv6, now + ttl};
  entries_.emplace(hostname, std::move(entry));
}

std::vector<CacheEntry> Cache::Lookup(const std::string& hostname,
                                      std::uint64_t now) const {
  std::vector<CacheEntry> out;
  auto [lo, hi] = entries_.equal_range(hostname);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.expires_at > now) out.push_back(it->second);
  }
  return out;
}

}  // namespace connlab::connman
