#include "src/net/dhcp.hpp"

#include <algorithm>

namespace connlab::net {

DhcpServer::DhcpServer(std::string prefix, std::string gateway,
                       std::string dns_server, int pool_size)
    : prefix_(std::move(prefix)),
      gateway_(std::move(gateway)),
      dns_server_(std::move(dns_server)),
      pool_size_(pool_size) {}

util::Result<DhcpLease> DhcpServer::Offer(const std::string& client_id,
                                          std::uint64_t now) {
  auto it = leases_.find(client_id);
  if (it != leases_.end()) {
    // Renewal refreshes the options (a client re-associating to a rogue AP
    // picks up the malicious DNS even if it had a lease before).
    it->second.dns_server = dns_server_;
    it->second.gateway = gateway_;
    it->second.expires_at = lease_ttl_ == 0 ? 0 : now + lease_ttl_;
    return it->second;
  }
  DhcpLease lease;
  if (!free_ips_.empty()) {
    lease.ip = std::move(free_ips_.back());
    free_ips_.pop_back();
  } else if (next_host_ - 100 < pool_size_) {
    lease.ip = prefix_ + "." + std::to_string(next_host_++);
  } else {
    ++exhaustions_;
    return util::ResourceExhausted("DHCP pool exhausted");
  }
  lease.gateway = gateway_;
  lease.dns_server = dns_server_;
  lease.expires_at = lease_ttl_ == 0 ? 0 : now + lease_ttl_;
  return leases_.emplace(client_id, std::move(lease)).first->second;
}

void DhcpServer::Release(const std::string& client_id) {
  auto it = leases_.find(client_id);
  if (it == leases_.end()) return;
  free_ips_.push_back(std::move(it->second.ip));
  leases_.erase(it);
}

std::size_t DhcpServer::ExpireLeases(std::uint64_t now) {
  std::vector<decltype(leases_)::iterator> lapsed;
  for (auto it = leases_.begin(); it != leases_.end(); ++it) {
    if (it->second.expires_at != 0 && it->second.expires_at <= now) {
      lapsed.push_back(it);
    }
  }
  // Client-id order, not the hash table's, decides the free list's order.
  std::sort(lapsed.begin(), lapsed.end(),
            [](const auto& a, const auto& b) { return a->first < b->first; });
  for (const auto& it : lapsed) {
    free_ips_.push_back(std::move(it->second.ip));
    leases_.erase(it);
  }
  return lapsed.size();
}

}  // namespace connlab::net
