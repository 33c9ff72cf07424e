#include "src/net/dns_client.hpp"

#include <cstdio>

#include "src/dns/message.hpp"
#include "src/util/log.hpp"

namespace connlab::net {

VictimDevice::VictimDevice(loader::System& sys, connman::Version version,
                           std::string ssid, std::string hostname)
    : proxy_(sys, version), ssid_(std::move(ssid)), hostname_(std::move(hostname)) {}

util::Status VictimDevice::JoinWifi(Radio& radio, Network& net) {
  CONNLAB_ASSIGN_OR_RETURN(AccessPoint * ap, radio.StrongestFor(ssid_));
  CONNLAB_ASSIGN_OR_RETURN(DhcpLease lease, ap->dhcp().Offer(hostname_));
  if (!lease_.ip.empty() && lease_.ip != lease.ip) {
    net.Detach(lease_.ip);
  }
  lease_ = std::move(lease);
  char ap_name[64];
  std::snprintf(ap_name, sizeof(ap_name), "%s @ %d dBm", ap->ssid().c_str(),
                ap->signal_dbm());
  net.Attach(lease_.ip, this);
  CONNLAB_INFO("victim") << "associated to " << ap_name << ", ip "
                         << lease_.ip << ", dns " << lease_.dns_server;
  return util::OkStatus();
}

util::Result<std::uint16_t> VictimDevice::Lookup(Network& net,
                                                 const std::string& hostname) {
  if (lease_.ip.empty()) return util::FailedPrecondition("not on a network");
  const std::uint16_t txid = next_txid_++;
  dns::Message query = dns::Message::Query(txid, hostname);
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes wire, dns::Encode(query));
  // The local app queries the dnsproxy on localhost; the proxy registers
  // the pending transaction and forwards upstream.
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes upstream, proxy_.AcceptClientQuery(wire));
  CONNLAB_RETURN_IF_ERROR(net.Send(Datagram{
      lease_.ip, next_port_++, lease_.dns_server, kDnsPort, std::move(upstream)}));
  return txid;
}

void VictimDevice::OnDatagram(Network& net, const Datagram& dgram) {
  (void)net;
  if (dgram.src_port != kDnsPort) return;  // only upstream DNS expected
  outcomes_.push_back(proxy_.HandleServerResponse(dgram.payload));
  CONNLAB_INFO("victim") << "proxy outcome: " << outcomes_.back().ToString();
}

bool VictimDevice::compromised() const noexcept {
  for (const auto& outcome : outcomes_) {
    if (outcome.kind == connman::ProxyOutcome::Kind::kShell) return true;
  }
  return false;
}

bool VictimDevice::crashed() const noexcept {
  for (const auto& outcome : outcomes_) {
    if (outcome.kind == connman::ProxyOutcome::Kind::kCrash) return true;
  }
  return false;
}

}  // namespace connlab::net
