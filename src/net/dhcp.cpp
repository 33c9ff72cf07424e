#include "src/net/dhcp.hpp"

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
  leases_[client_id] = lease;
  return lease;
}

void DhcpServer::Release(const std::string& client_id) {
  auto it = leases_.find(client_id);
  if (it == leases_.end()) return;
  free_ips_.push_back(std::move(it->second.ip));
  leases_.erase(it);
}

std::size_t DhcpServer::ExpireLeases(std::uint64_t now) {
  std::size_t lapsed = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expires_at != 0 && it->second.expires_at <= now) {
      free_ips_.push_back(std::move(it->second.ip));
      it = leases_.erase(it);
      ++lapsed;
    } else {
      ++it;
    }
  }
  return lapsed;
}

}  // namespace connlab::net
