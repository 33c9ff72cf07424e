#include "src/net/sim.hpp"

#include <cstdio>

#include "src/obs/obs.hpp"

namespace connlab::net {

std::string Datagram::Summary() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s:%u -> %s:%u (%zu bytes)",
                src_ip.c_str(), src_port, dst_ip.c_str(), dst_port,
                payload.size());
  return buf;
}

void Network::Attach(const std::string& ip, Endpoint* endpoint) {
  endpoints_[ip] = endpoint;
}

void Network::Detach(const std::string& ip) { endpoints_.erase(ip); }

void Network::EnableCapture(std::size_t max_datagrams) {
  capture_ = true;
  capture_cap_ = max_datagrams;
  while (log_.size() > capture_cap_) log_.pop_front();
}

util::Status Network::Send(Datagram dgram) {
  if (dgram.dst_ip.empty()) return util::InvalidArgument("no destination");
  OBS_COUNT("net.datagrams");
  if (dgram.dst_port == kDnsPort) OBS_COUNT("net.dns_queries");
  if (dgram.src_port == kDnsPort) OBS_COUNT("net.dns_responses");
  if (capture_) {
    log_.push_back(dgram);
    while (log_.size() > capture_cap_) log_.pop_front();
  }
  queue_.push_back(std::move(dgram));
  return util::OkStatus();
}

int Network::DeliverAll(int max) {
  int count = 0;
  while (!queue_.empty() && count < max) {
    const Datagram dgram = std::move(queue_.front());
    queue_.pop_front();
    ++count;
    auto it = endpoints_.find(dgram.dst_ip);
    if (it == endpoints_.end() || it->second == nullptr) {
      ++dropped_;
      OBS_COUNT("net.dropped");
      continue;
    }
    ++delivered_;
    OBS_COUNT("net.delivered");
    it->second->OnDatagram(*this, dgram);
  }
  return count;
}

}  // namespace connlab::net
