// Minimal DHCP model: an address pool plus the two options the experiment
// cares about — gateway and DNS server. This is the knob the Wi-Fi
// Pineapple turns: "configure it to utilize DHCP to assign our malicious
// DNS server to clients" (§III-D).
//
// Fleet-scale additions: leases carry an expiry deadline (virtual time),
// Release() returns an address to a free list so a churning population can
// cycle through a bounded pool, and a released address is handed to the
// next client that asks — the renumbering case the churn tests cover.
//
// Leases live in a hash map keyed by client id. Its iteration order never
// reaches an output: ExpireLeases returns lapsed addresses to the free list
// in client-id string order ("c10" before "c2"), and the free list is
// last in, first out, so which client gets which address depends on the
// ids alone.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/status.hpp"

namespace connlab::net {

struct DhcpLease {
  std::string ip;
  std::string gateway;
  std::string dns_server;
  /// Virtual time at which the lease lapses (0 = no expiry configured).
  std::uint64_t expires_at = 0;
};

class DhcpServer {
 public:
  /// Pool hands out prefix.100, prefix.101, ... (prefix like "192.168.1").
  DhcpServer(std::string prefix, std::string gateway, std::string dns_server,
             int pool_size = 100);

  /// Offers (or renews) a lease for a client identifier (MAC/hostname).
  /// `now` stamps expires_at when a lease TTL is configured.
  util::Result<DhcpLease> Offer(const std::string& client_id,
                                std::uint64_t now = 0);

  /// Releases a client's lease, returning its address to the pool. The
  /// address will be re-offered to the *next* client that needs one, so a
  /// returning client usually renumbers. No-op for unknown clients.
  void Release(const std::string& client_id);

  /// Expires every lease with expires_at <= now, freeing the addresses in
  /// client-id order; returns how many lapsed.
  std::size_t ExpireLeases(std::uint64_t now);

  /// Lease lifetime in virtual time units; 0 (the default) never expires.
  void set_lease_ttl(std::uint64_t ttl) noexcept { lease_ttl_ = ttl; }

  void set_dns_server(std::string dns) { dns_server_ = std::move(dns); }
  [[nodiscard]] const std::string& dns_server() const noexcept {
    return dns_server_;
  }
  [[nodiscard]] std::size_t active_leases() const noexcept {
    return leases_.size();
  }
  [[nodiscard]] std::uint64_t exhaustions() const noexcept {
    return exhaustions_;
  }

 private:
  std::string prefix_;
  std::string gateway_;
  std::string dns_server_;
  int pool_size_;
  int next_host_ = 100;
  std::uint64_t lease_ttl_ = 0;
  std::uint64_t exhaustions_ = 0;
  std::vector<std::string> free_ips_;  // released addresses, reused LIFO
  std::unordered_map<std::string, DhcpLease> leases_;
};

}  // namespace connlab::net
