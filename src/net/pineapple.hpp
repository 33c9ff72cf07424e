// The Wi-Fi Pineapple role (§III-D): a rogue access point that
//   1. impersonates a trusted SSID at higher signal strength, so nearby
//      clients roam onto it;
//   2. answers DHCP with itself as the DNS server;
//   3. runs the malicious DNS server that turns every query from the
//      victim into an exploit delivery.
// The victim needs no configuration change beyond its normal
// DHCP+auto-DNS defaults — exactly the paper's setup.
#pragma once

#include <memory>
#include <string>

#include "src/net/access_point.hpp"
#include "src/net/fake_dns_server.hpp"
#include "src/net/sim.hpp"

namespace connlab::net {

class Pineapple {
 public:
  /// Mimics `ssid` at `signal_dbm` (choose stronger than the legitimate
  /// AP). The device itself lives at `ip` on its own 10.99.0.x subnet.
  Pineapple(std::string ssid, int signal_dbm, std::string ip = "10.99.0.1");

  /// Starts beaconing and attaches the malicious DNS server.
  void PowerOn(Radio& radio, Network& net);
  void PowerOff(Radio& radio, Network& net);

  /// Arms the embedded DNS server with the exploit's crafted name.
  void Arm(dns::LabelSeq labels) { dns_.Arm(std::move(labels)); }
  void set_dns_mode(FakeDnsServer::Mode mode) { dns_.set_mode(mode); }

  [[nodiscard]] AccessPoint& ap() noexcept { return ap_; }
  [[nodiscard]] FakeDnsServer& dns() noexcept { return dns_; }
  [[nodiscard]] const std::string& ip() const noexcept { return ip_; }

 private:
  std::string ip_;
  AccessPoint ap_;
  FakeDnsServer dns_;
};

}  // namespace connlab::net
