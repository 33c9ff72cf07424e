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
// Leases live in one integer table: a client is an integer handle and an
// address a std::uint32_t, so the fleet's integer Offer/Release build no
// string. The string Offer/Release intern the client name into a handle
// while it holds a lease, and render the dotted address only for the
// DhcpLease they return. The table's order never reaches an output:
// ExpireLeases returns lapsed addresses to the free list in client-name
// order, an integer client named by its decimal id ("10" before "2", as
// "c10" before "c2") and sorted before every named client, and the free
// list is last in, first out, so which client gets which address depends
// on the names alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/int_map.hpp"
#include "src/util/status.hpp"

namespace connlab::net {

struct DhcpLease {
  std::string ip;
  std::string gateway;
  std::string dns_server;
  /// Virtual time at which the lease lapses (0 = no expiry configured).
  std::uint64_t expires_at = 0;
};

/// An IPv4 address as a dotted quad ("10.99.32.99").
std::string FormatIpv4(std::uint32_t address);

class DhcpServer {
 public:
  /// Host n of the pool is the prefix's network address plus n, for n =
  /// 100, 101, ... (prefix like "192.168.1": host 300 is 192.168.2.44).
  DhcpServer(std::string prefix, std::string gateway, std::string dns_server,
             int pool_size = 100);

  /// Offers (or renews) a lease for a client identifier (MAC/hostname).
  /// `now` stamps expires_at when a lease TTL is configured.
  util::Result<DhcpLease> Offer(const std::string& client_id,
                                std::uint64_t now = 0);

  /// Offer for integer client `client`, named by its decimal id. Returns
  /// the leased address, or nullopt (counted in exhaustions()) when the
  /// pool is dry.
  std::optional<std::uint32_t> Offer(std::uint32_t client, std::uint64_t now);

  /// Releases a client's lease, returning its address to the pool. The
  /// address will be re-offered to the *next* client that needs one, so a
  /// returning client usually renumbers. No-op for unknown clients.
  void Release(const std::string& client_id);
  void Release(std::uint32_t client);

  /// Expires every lease with expires_at <= now, freeing the addresses in
  /// client-name order (integer clients first); returns how many lapsed.
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
  struct Lease {
    std::uint32_t ip = 0;
    std::uint64_t expires_at = 0;
  };

  /// A handle at or above kNamed is an interned string name; below it, an
  /// integer client.
  static constexpr std::uint64_t kNamed = std::uint64_t{1} << 32;

  [[nodiscard]] std::uint64_t ExpiresAt(std::uint64_t now) const noexcept {
    return lease_ttl_ == 0 ? 0 : now + lease_ttl_;
  }
  std::optional<std::uint32_t> OfferHandle(std::uint64_t handle,
                                           std::uint64_t now);
  void ReleaseHandle(std::uint64_t handle);
  /// Drops a named handle's name once it holds no lease.
  void Forget(std::uint64_t handle);

  std::uint32_t network_;
  std::string gateway_;
  std::string dns_server_;
  int pool_size_;
  int next_host_ = 100;
  std::uint64_t lease_ttl_ = 0;
  std::uint64_t exhaustions_ = 0;
  std::vector<std::uint32_t> free_ips_;  // released addresses, reused LIFO
  util::IntMap<Lease> leases_;           // handle -> lease
  // Interned names of the string API's lease holders.
  std::unordered_map<std::string, std::uint32_t> name_index_;
  std::vector<std::string> names_;
  std::vector<std::uint32_t> free_names_;
};

}  // namespace connlab::net
