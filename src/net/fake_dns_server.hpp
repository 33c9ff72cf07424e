// DNS servers for the simulated LAN.
//
// LegitDnsServer answers from a static zone — the well-behaved upstream.
//
// FakeDnsServer is the paper's "simple Python DNS server" (§III,
// Experimental Setup): on every query it "copies the relevant portions of
// the query from the target machine's packet, inserts the proper flags,
// and encodes the malicious code into the record response". The malicious
// code is a crafted name — the exploit's label sequence the attacker armed
// it with, or a raw DoS name — or, for staging, a benign forged address.
#pragma once

#include <map>
#include <string>

#include "src/dns/craft.hpp"
#include "src/net/sim.hpp"

namespace connlab::net {

class LegitDnsServer : public Endpoint {
 public:
  explicit LegitDnsServer(std::string ip) : ip_(std::move(ip)) {}

  void AddRecord(const std::string& name, const std::string& ipv4);
  void OnDatagram(Network& net, const Datagram& dgram) override;

  [[nodiscard]] const std::string& ip() const noexcept { return ip_; }
  [[nodiscard]] std::uint64_t queries_served() const noexcept { return served_; }

 private:
  std::string ip_;
  std::map<std::string, std::string> zone_;
  std::uint64_t served_ = 0;
};

class FakeDnsServer : public Endpoint {
 public:
  enum class Mode { kBenign, kDos, kExploit };

  FakeDnsServer(std::string ip, Mode mode)
      : ip_(std::move(ip)), mode_(mode) {}

  /// Arms the server with the exploit's crafted name (kExploit mode): every
  /// answer carries `labels` as its owner name.
  void Arm(dns::LabelSeq labels) {
    armed_ = std::move(labels);
    mode_ = Mode::kExploit;
  }
  void set_mode(Mode mode) noexcept { mode_ = mode; }

  void OnDatagram(Network& net, const Datagram& dgram) override;

  [[nodiscard]] const std::string& ip() const noexcept { return ip_; }
  [[nodiscard]] std::uint64_t queries_seen() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t payloads_sent() const noexcept { return sent_; }
  [[nodiscard]] const std::string& last_error() const noexcept { return last_error_; }

 private:
  /// The answer to `query` in the current mode.
  util::Result<util::Bytes> Answer(const dns::Message& query) const;

  std::string ip_;
  Mode mode_;
  dns::LabelSeq armed_;  // the exploit name Arm installed
  std::uint64_t seen_ = 0;
  std::uint64_t sent_ = 0;
  std::string last_error_;
};

}  // namespace connlab::net
