// The discrete-event core of the fleet simulator.
//
// Virtual time only: client-lifecycle events (join, query, renew, roam,
// leave) pop in (deadline, push order): earliest deadline first, equal
// deadlines first in, first out. No wall clock anywhere — a campaign
// replayed from the same seed pops the same events in the same order on
// any machine.
//
// Almost every push lands within a lease TTL of now(), so the queue keeps
// a ring of kWindow one-µs FIFO buckets covering [now(), now() + kWindow)
// and a bitmap of the non-empty ones. A push outside that window (before
// now(), or kWindow or more ahead, like the initial seating of a large
// fleet) goes to a binary heap instead. Pop takes whichever comes first by
// (deadline, push order): the head of the first non-empty bucket or the
// heap's top. That is exactly the order of one heap over every event, for
// any push sequence; a lease TTL longer than the window only sends more
// events to the heap. The buckets share one node array with a free list.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
  std::uint32_t slot = 0;    // the driver's state slot the client held
};

class EventQueue {
 public:
  void Push(const Event& event) {
    const Entry entry{event, next_seq_++};
    if (event.at < now_ || event.at - now_ >= kWindow) {
      heap_.push(entry);
      return;
    }
    std::uint32_t node = free_;
    if (node != kNone) {
      free_ = nodes_[node].next;
    } else {
      node = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[node] = {entry, kNone};
    const std::size_t bucket = event.at % kWindow;
    std::uint64_t& word = nonempty_[bucket / 64];
    const std::uint64_t bit = std::uint64_t{1} << (bucket % 64);
    if ((word & bit) == 0) {
      word |= bit;
      head_[bucket] = node;
    } else {
      nodes_[tail_[bucket]].next = node;
    }
    tail_[bucket] = node;
    ++bucketed_;
  }

  /// Pops the earliest event (FIFO among equal deadlines) and advances
  /// virtual time to it. Requires !empty().
  Event Pop() {
    if (bucketed_ != 0) {
      const std::size_t bucket = FirstBucket();
      Node& node = nodes_[head_[bucket]];
      if (heap_.empty() || After{}(heap_.top(), node.entry)) {
        const std::uint32_t next = node.next;
        node.next = free_;
        free_ = head_[bucket];
        head_[bucket] = next;
        if (next == kNone) {
          nonempty_[bucket / 64] &= ~(std::uint64_t{1} << (bucket % 64));
        }
        --bucketed_;
        now_ = node.entry.event.at;  // a bucketed deadline is >= now_
        return node.entry.event;
      }
    }
    const Event event = heap_.top().event;
    heap_.pop();
    now_ = std::max(now_, event.at);
    return event;
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return bucketed_ + heap_.size();
  }
  [[nodiscard]] SimTime now() const noexcept { return now_; }

 private:
  /// Bucket span in virtual µs: a power of two, above the fleet's lease
  /// TTL so that only the initial seating reaches the heap.
  static constexpr SimTime kWindow = 1024;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static_assert(std::has_single_bit(kWindow) && kWindow % 64 == 0);

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
  struct Node {
    Entry entry;
    std::uint32_t next;  // next node in its bucket or the free list
  };

  /// The bucket of the earliest bucketed deadline. Every bucketed event
  /// lies in [now_, now_ + kWindow), so the ring read from now_'s bucket
  /// onwards is in deadline order. Requires bucketed_ != 0.
  [[nodiscard]] std::size_t FirstBucket() const noexcept {
    const std::size_t start = now_ % kWindow;
    std::size_t word = start / 64;
    std::uint64_t bits = nonempty_[word] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
      word = (word + 1) % nonempty_.size();
      bits = nonempty_[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
  }

  std::priority_queue<Entry, std::vector<Entry>, After> heap_;
  std::vector<Node> nodes_;
  std::array<std::uint32_t, kWindow> head_{};
  std::array<std::uint32_t, kWindow> tail_{};
  std::array<std::uint64_t, kWindow / 64> nonempty_{};
  std::uint32_t free_ = kNone;
  std::size_t bucketed_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;
};

}  // namespace connlab::fleet
