// Wireless access points and the radio environment. Association follows
// the rule the Pineapple abuses: a client joins the strongest AP
// broadcasting its preferred SSID, no questions asked ("the Wi-Fi
// Pineapple is able to broadcast a stronger signal than the legitimate
// access point, causing our targeted machine to switch its connection").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/net/dhcp.hpp"
#include "src/util/status.hpp"

namespace connlab::net {

class AccessPoint {
 public:
  AccessPoint(std::string ssid, int signal_dbm, DhcpServer dhcp)
      : ssid_(std::move(ssid)), signal_dbm_(signal_dbm), dhcp_(std::move(dhcp)) {}

  [[nodiscard]] const std::string& ssid() const noexcept { return ssid_; }
  [[nodiscard]] int signal_dbm() const noexcept { return signal_dbm_; }
  [[nodiscard]] DhcpServer& dhcp() noexcept { return dhcp_; }

 private:
  std::string ssid_;
  int signal_dbm_;
  DhcpServer dhcp_;
};

/// The over-the-air environment: which APs are currently beaconing.
class Radio {
 public:
  /// Registers a beaconing AP (not owned).
  void AddAp(AccessPoint* ap);
  void RemoveAp(AccessPoint* ap);

  /// Strongest AP broadcasting `ssid` (the association rule).
  [[nodiscard]] util::Result<AccessPoint*> StrongestFor(const std::string& ssid) const;

 private:
  std::vector<AccessPoint*> aps_;
};

}  // namespace connlab::net
