#include "src/net/dhcp.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <utility>

namespace connlab::net {
namespace {

/// "10.99.0" -> 10.99.0.0: the prefix's octets, shifted to the top of the
/// address.
std::uint32_t NetworkOf(std::string_view prefix) {
  std::uint32_t network = 0;
  int octets = 0;
  while (!prefix.empty() && octets < 4) {
    const std::size_t dot = std::min(prefix.find('.'), prefix.size());
    unsigned octet = 0;
    std::from_chars(prefix.data(), prefix.data() + dot, octet);
    network = (network << 8) | (octet & 0xffu);
    ++octets;
    prefix.remove_prefix(std::min(dot + 1, prefix.size()));
  }
  return octets == 0 ? 0 : network << (8 * (4 - octets));
}

/// A key that orders integer clients as their decimal names sort ("10"
/// before "2"): the digits left-aligned in ten places, then the digit
/// count, so a name sorts before the longer names it prefixes.
std::uint64_t DecimalNameKey(std::uint32_t id) {
  std::uint64_t aligned = id;
  unsigned digits = 1;
  for (std::uint32_t rest = id / 10; rest != 0; rest /= 10) ++digits;
  for (unsigned d = digits; d < 10; ++d) aligned *= 10;
  return (aligned << 4) | digits;
}

}  // namespace

std::string FormatIpv4(std::uint32_t address) {
  return std::to_string(address >> 24) + "." +
         std::to_string((address >> 16) & 0xffu) + "." +
         std::to_string((address >> 8) & 0xffu) + "." +
         std::to_string(address & 0xffu);
}

DhcpServer::DhcpServer(std::string prefix, std::string gateway,
                       std::string dns_server, int pool_size)
    : network_(NetworkOf(prefix)),
      gateway_(std::move(gateway)),
      dns_server_(std::move(dns_server)),
      pool_size_(pool_size) {}

std::optional<std::uint32_t> DhcpServer::OfferHandle(std::uint64_t handle,
                                                     std::uint64_t now) {
  const std::uint64_t expires_at = ExpiresAt(now);
  if (Lease* lease = leases_.Find(handle)) {
    lease->expires_at = expires_at;  // renewal keeps the address
    return lease->ip;
  }
  std::uint32_t ip = 0;
  if (!free_ips_.empty()) {
    ip = free_ips_.back();
    free_ips_.pop_back();
  } else if (next_host_ - 100 < pool_size_) {
    ip = network_ + static_cast<std::uint32_t>(next_host_++);
  } else {
    ++exhaustions_;
    return std::nullopt;
  }
  leases_.Insert(handle, {ip, expires_at});
  return ip;
}

void DhcpServer::ReleaseHandle(std::uint64_t handle) {
  const Lease* lease = leases_.Find(handle);
  if (lease == nullptr) return;
  free_ips_.push_back(lease->ip);
  leases_.Erase(handle);
}

void DhcpServer::Forget(std::uint64_t handle) {
  if (handle < kNamed) return;
  const auto index = static_cast<std::uint32_t>(handle - kNamed);
  name_index_.erase(names_[index]);
  free_names_.push_back(index);
}

std::optional<std::uint32_t> DhcpServer::Offer(std::uint32_t client,
                                               std::uint64_t now) {
  return OfferHandle(client, now);
}

void DhcpServer::Release(std::uint32_t client) { ReleaseHandle(client); }

util::Result<DhcpLease> DhcpServer::Offer(const std::string& client_id,
                                          std::uint64_t now) {
  auto [it, fresh] = name_index_.try_emplace(client_id, 0);
  if (fresh) {
    if (free_names_.empty()) {
      it->second = static_cast<std::uint32_t>(names_.size());
      names_.push_back(client_id);
    } else {
      it->second = free_names_.back();
      free_names_.pop_back();
      names_[it->second] = client_id;
    }
  }
  const std::uint64_t handle = kNamed + it->second;
  const std::optional<std::uint32_t> ip = OfferHandle(handle, now);
  if (!ip) {
    Forget(handle);  // a dry pool only ever turns away a client with no lease
    return util::ResourceExhausted("DHCP pool exhausted");
  }
  // Renewal refreshes the options (a client re-associating to a rogue AP
  // picks up the malicious DNS even if it had a lease before).
  DhcpLease lease;
  lease.ip = FormatIpv4(*ip);
  lease.gateway = gateway_;
  lease.dns_server = dns_server_;
  lease.expires_at = ExpiresAt(now);
  return lease;
}

void DhcpServer::Release(const std::string& client_id) {
  const auto it = name_index_.find(client_id);
  if (it == name_index_.end()) return;
  const std::uint64_t handle = kNamed + it->second;
  ReleaseHandle(handle);
  Forget(handle);
}

std::size_t DhcpServer::ExpireLeases(std::uint64_t now) {
  struct Lapsed {
    std::uint64_t key;  // DecimalNameKey for an integer client, else 0
    std::uint64_t handle;
    std::uint32_t ip;
  };
  std::vector<Lapsed> lapsed;
  leases_.ForEach([&](std::uint64_t handle, const Lease& lease) {
    if (lease.expires_at != 0 && lease.expires_at <= now) {
      const std::uint64_t key =
          handle < kNamed
              ? DecimalNameKey(static_cast<std::uint32_t>(handle))
              : 0;
      lapsed.push_back({key, handle, lease.ip});
    }
  });
  // Client-name order, not the table's, decides the free list's order:
  // integer clients by decimal name, then named clients by name.
  std::sort(lapsed.begin(), lapsed.end(),
            [this](const Lapsed& a, const Lapsed& b) {
              const bool a_named = a.handle >= kNamed;
              if (a_named != (b.handle >= kNamed)) return !a_named;
              if (!a_named) return a.key < b.key;
              return names_[a.handle - kNamed] < names_[b.handle - kNamed];
            });
  for (const Lapsed& lease : lapsed) {
    free_ips_.push_back(lease.ip);
    leases_.Erase(lease.handle);
    Forget(lease.handle);
  }
  return lapsed.size();
}

}  // namespace connlab::net
