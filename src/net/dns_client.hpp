// The victim IoT device: a wireless client whose firmware runs the
// simulated Connman. Applications on the device resolve names through the
// local dnsproxy; the proxy forwards to whatever DNS server DHCP last
// assigned — the property the Pineapple attack chain rides on.
#pragma once

#include <string>
#include <vector>

#include "src/connman/dnsproxy.hpp"
#include "src/net/access_point.hpp"
#include "src/net/sim.hpp"

namespace connlab::net {

class VictimDevice : public Endpoint {
 public:
  /// `sys` hosts the device firmware (Connman); `ssid` is the network the
  /// device is provisioned for.
  VictimDevice(loader::System& sys, connman::Version version, std::string ssid,
               std::string hostname = "iot-device");

  /// Associates to the strongest AP beaconing the preferred SSID, runs
  /// DHCP, and attaches to the network at the leased address. Safe to call
  /// again after the radio environment changes (roaming).
  util::Status JoinWifi(Radio& radio, Network& net);

  /// An application on the device resolves `hostname`: the query goes
  /// through the local dnsproxy to the DHCP-assigned DNS server.
  util::Result<std::uint16_t> Lookup(Network& net, const std::string& hostname);

  void OnDatagram(Network& net, const Datagram& dgram) override;

  [[nodiscard]] connman::DnsProxy& proxy() noexcept { return proxy_; }
  [[nodiscard]] const DhcpLease& lease() const noexcept { return lease_; }
  /// Outcomes of every upstream response the proxy has processed.
  [[nodiscard]] const std::vector<connman::ProxyOutcome>& outcomes() const noexcept {
    return outcomes_;
  }
  /// True once any processed response spawned a shell (device compromised).
  [[nodiscard]] bool compromised() const noexcept;
  /// True once any processed response crashed the daemon.
  [[nodiscard]] bool crashed() const noexcept;

 private:
  connman::DnsProxy proxy_;
  std::string ssid_;
  std::string hostname_;
  DhcpLease lease_;
  std::uint16_t next_txid_ = 0x1000;
  std::uint16_t next_port_ = 40000;
  std::vector<connman::ProxyOutcome> outcomes_;
};

}  // namespace connlab::net
