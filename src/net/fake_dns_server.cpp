#include "src/net/fake_dns_server.hpp"

#include "src/dns/record.hpp"
#include "src/util/log.hpp"

namespace connlab::net {

void LegitDnsServer::AddRecord(const std::string& name, const std::string& ipv4) {
  zone_[name] = ipv4;
}

void LegitDnsServer::OnDatagram(Network& net, const Datagram& dgram) {
  auto query = dns::Decode(dgram.payload);
  if (!query.ok() || query.value().header.qr ||
      query.value().questions.size() != 1) {
    return;  // silently ignore junk, like a real resolver
  }
  dns::Message response = dns::Message::ResponseFor(query.value());
  auto it = zone_.find(query.value().questions[0].name);
  if (it != zone_.end()) {
    response.answers.push_back(
        dns::MakeA(query.value().questions[0].name, it->second, 300));
  } else {
    response.header.rcode = dns::Rcode::kNXDomain;
  }
  auto wire = dns::Encode(response);
  if (!wire.ok()) return;
  ++served_;
  (void)net.Send(Datagram{ip_, kDnsPort, dgram.src_ip, dgram.src_port,
                          std::move(wire).value()});
}

util::Result<util::Bytes> FakeDnsServer::Answer(
    const dns::Message& query) const {
  if (mode_ == Mode::kBenign) {
    dns::Message response = dns::Message::ResponseFor(query);
    response.answers.push_back(
        dns::MakeA(query.questions[0].name, "10.66.66.66", 60));
    return dns::Encode(response);
  }
  // The DoS and the exploit answer alike; only the crafted name differs.
  dns::LabelSeq labels = armed_;
  if (mode_ == Mode::kDos) {
    CONNLAB_ASSIGN_OR_RETURN(labels, dns::JunkLabels(4096));
  } else if (labels.empty()) {
    return util::FailedPrecondition("exploit mode without an armed name");
  }
  return dns::Encode(dns::MaliciousAResponse(query, std::move(labels)));
}

void FakeDnsServer::OnDatagram(Network& net, const Datagram& dgram) {
  auto query = dns::Decode(dgram.payload);
  if (!query.ok() || query.value().header.qr ||
      query.value().questions.size() != 1) {
    return;
  }
  ++seen_;
  util::Result<util::Bytes> wire = Answer(query.value());
  if (!wire.ok()) {
    last_error_ = wire.status().ToString();
    return;
  }
  ++sent_;
  CONNLAB_INFO("fakedns") << "answering " << dns::Summary(query.value())
                          << " with " << wire.value().size() << " bytes";
  (void)net.Send(Datagram{ip_, kDnsPort, dgram.src_ip, dgram.src_port,
                          std::move(wire).value()});
}

}  // namespace connlab::net
