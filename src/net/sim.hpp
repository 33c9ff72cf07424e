// The simulated LAN: endpoints addressed by IPv4 string, UDP-like
// datagrams delivered in send order, and an opt-in traffic capture.
// Single-threaded and deterministic.
//
// Send() appends to a FIFO and DeliverAll() drains it, datagrams sent
// during delivery included, so a reply lands after every datagram already
// in flight. The paper's chain (§III-D) is one lookup and one answer per
// victim and needs no clock; the fleet simulator keeps its own virtual
// time in fleet::EventQueue.
//
// Traffic capture is opt-in and ring-buffered: `log_` used to record every
// datagram ever sent, which reads as tcpdump in the tests but is an OOM in
// a million-victim campaign. Call EnableCapture() where the full trace is
// wanted; past the cap the oldest datagrams fall off the front.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::net {

struct Datagram {
  std::string src_ip;
  std::uint16_t src_port = 0;
  std::string dst_ip;
  std::uint16_t dst_port = 0;
  util::Bytes payload;

  [[nodiscard]] std::string Summary() const;
};

class Network;

/// Anything that can receive datagrams (devices, servers, routers).
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Handles one datagram; may call net.Send() to respond.
  virtual void OnDatagram(Network& net, const Datagram& dgram) = 0;
};

class Network {
 public:
  /// Attaches `endpoint` at `ip`. Re-attaching an ip replaces the binding
  /// (devices renumber when they change networks). Endpoint is not owned.
  void Attach(const std::string& ip, Endpoint* endpoint);
  void Detach(const std::string& ip);

  /// Queues a datagram behind every datagram already in flight.
  util::Status Send(Datagram dgram);

  /// Delivers queued datagrams (including ones sent during delivery) in
  /// send order until the queue drains or `max` deliveries. Returns
  /// deliveries made.
  int DeliverAll(int max = 1000);

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Starts capturing sent datagrams into a ring buffer of at most
  /// `max_datagrams` entries (tcpdump for the tests). Off by default: a
  /// fleet campaign sends millions of datagrams and must not retain them.
  void EnableCapture(std::size_t max_datagrams = 4096);
  [[nodiscard]] bool capturing() const noexcept { return capture_; }
  /// The captured traffic, oldest first (empty unless EnableCapture'd).
  [[nodiscard]] const std::deque<Datagram>& log() const noexcept { return log_; }

 private:
  std::map<std::string, Endpoint*> endpoints_;
  std::deque<Datagram> queue_;
  std::deque<Datagram> log_;
  bool capture_ = false;
  std::size_t capture_cap_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

inline constexpr std::uint16_t kDnsPort = 53;
inline constexpr std::uint16_t kDhcpPort = 67;

}  // namespace connlab::net
