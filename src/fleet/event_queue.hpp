// The discrete-event core of the fleet simulator.
//
// Virtual time only: client-lifecycle events (join, query, renew, roam,
// leave) are (time, seq) pairs popped in deadline order with FIFO
// tie-breaking. No wall clock anywhere — a campaign replayed from the same
// seed pops the same events in the same order on any machine.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

namespace connlab::fleet {

/// Virtual microseconds since campaign start.
using SimTime = std::uint64_t;

struct Event {
  enum class Kind : std::uint8_t {
    kJoin,       // client attaches: DHCP exchange with the rogue AP
    kQuery,      // client issues one DNS query
    kRenew,      // client renews its lease mid-session
    kLeave,      // client detaches: releases its lease
    kHousekeep,  // AP-side sweep: expire lapsed leases
  };

  SimTime at = 0;
  Kind kind = Kind::kJoin;
  std::uint32_t client = 0;  // global client id (== victim index)
};

class EventQueue {
 public:
  void Push(const Event& event) {
    heap_.push(Entry{event, next_seq_++});
  }

  /// Pops the earliest event (FIFO among equal deadlines) and advances
  /// virtual time to it. Requires !empty().
  Event Pop() {
    Entry entry = heap_.top();
    heap_.pop();
    if (entry.event.at > now_) now_ = entry.event.at;
    return entry.event;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] SimTime now() const noexcept { return now_; }

 private:
  struct Entry {
    Event event;
    std::uint64_t seq;
  };
  struct After {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.event.at != b.event.at) return a.event.at > b.event.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, After> heap_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;
};

}  // namespace connlab::fleet
