// "camstored" — an HTTP-ish camera-config cache daemon built on the guest
// heap (src/heap/): PUT bodies are cached in GuestHeap chunks, and the
// daemon trusts the client's X-Record-Size header for the allocation while
// copying Content-Length bytes — the attacker-sized heap write. An
// oversized body overwrites the next chunk's boundary tags in guest
// memory, and the following free drives the classic dlmalloc unlink
// (mem[fd+16]=bk / mem[bk+12]=fd): an allocator-powered arbitrary write
// aimed at the daemon's flush-hook function pointer. With the heap mapped
// executable (no W^X) the hook pivots into heap-resident shellcode; the
// heap-integrity mitigation detects the corrupted tags at free time
// instead and raises the HeapCorruption stop.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/adapt/minimasq.hpp"
#include "src/exploit/heap_smash.hpp"
#include "src/exploit/profile.hpp"
#include "src/heap/heap.hpp"
#include "src/loader/boot.hpp"

namespace connlab::adapt {

/// The zoo's one HTTP header reader: the decimal value after the first
/// `key` in `text`, read as strtoul would (leading whitespace and one sign
/// skipped, digits until the first non-digit or the end of `text`,
/// ULONG_MAX on overflow, a '-' negating modulo 2^64). 0, and `present`
/// false, when `key` does not occur before `headers_end`.
std::size_t HeaderValue(std::string_view text, std::string_view key,
                        std::size_t headers_end, bool* present = nullptr);

/// A request's bytes as text, without copying them.
inline std::string_view RequestText(util::ByteSpan request) noexcept {
  return {reinterpret_cast<const char*>(request.data()), request.size()};
}

class Camstored {
 public:
  /// Payload bytes of the daemon state block — the first heap allocation,
  /// holding the flush hook (offset 0) and the record counter (offset 4).
  static constexpr std::uint32_t kStateBytes = 24;
  /// Chunk size that allocation occupies (header + payload, aligned).
  static constexpr std::uint32_t kStateChunk = 40;
  /// The daemon's record-table capacity.
  static constexpr std::size_t kMaxRecords = 8;

  explicit Camstored(loader::System& sys);

  /// Handles one request. Verbs: "GET /..." (status), "PUT /cache/<name>"
  /// with X-Record-Size + Content-Length headers, "DELETE /cache/<name>".
  /// Size signal, for every request with a header end that starts "PUT ",
  /// whatever becomes of it: Content-Length as sent, cast to 32 bits;
  /// overflowed when X-Record-Size is nonzero and smaller (the bug's
  /// precondition); gradient: X-Record-Size as sent, 0 when absent.
  ServiceOutcome HandleRequest(util::ByteSpan request);

  /// Profile for the heap-metadata exploit builder: arch/prot plus the
  /// flush-hook slot and the first user-chunk address (both static — the
  /// heap base is not randomised).
  [[nodiscard]] util::Result<exploit::TargetProfile> ProfileFor() const;

  /// Builds a PUT request wire: the attacker-visible protocol surface.
  static util::Bytes WrapInPut(util::ByteSpan body, const std::string& name,
                               std::uint32_t record_size);
  static util::Bytes WrapInDelete(const std::string& name);
  /// The heap-metadata exploit as four requests: the groom PUT, the victim
  /// PUT, the overflowing groom PUT that rewrites the victim's boundary
  /// tags, and the DELETE whose free drives the unlink write.
  static std::vector<util::Bytes> UnlinkVolley(
      const exploit::HeapUnlinkPlan& plan);

  /// Guest address of the flush-hook slot (state-block payload offset 0).
  [[nodiscard]] mem::GuestAddr HookSlot() const noexcept {
    return heap_.FirstChunk() + heap::GuestHeap::kHeaderSize;
  }
  /// Guest address of the first user chunk (right after the state block).
  [[nodiscard]] mem::GuestAddr UserBase() const noexcept {
    return heap_.FirstChunk() + kStateChunk;
  }

  [[nodiscard]] heap::GuestHeap& heap() noexcept { return heap_; }
  [[nodiscard]] loader::System& system() noexcept { return sys_; }
  [[nodiscard]] const std::string& last_response() const noexcept {
    return last_response_;
  }

 private:
  ServiceOutcome HandlePut(const std::string& name, util::ByteSpan body,
                           std::uint32_t record_size);
  ServiceOutcome HandleDelete(const std::string& name);
  /// Frees a payload and classifies allocator failures (heap-integrity
  /// aborts vs unlink writes into unmapped memory).
  ServiceOutcome FreeRecord(mem::GuestAddr payload);
  /// The daemon's post-update flush: an indirect call through the hook
  /// slot — the forward-edge pivot the unlink write retargets.
  ServiceOutcome CallFlushHook();

  loader::System& sys_;
  heap::GuestHeap heap_;
  std::map<std::string, mem::GuestAddr> records_;  // name -> payload addr
  std::string last_response_;
};

}  // namespace connlab::adapt
