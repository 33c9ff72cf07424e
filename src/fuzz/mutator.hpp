// Mutation engine: generic havoc plus DNS-structure-aware operators.
//
// The structural tier understands just enough of the wire format to mutate
// at DNS-field granularity without a full (strict) decode — crafted inputs
// are exactly the ones dns::Decode rejects. It walks the label sequence at
// the first answer's owner name (right after the harness-fixed
// header/question prefix) with the same tolerant algorithm the vulnerable
// parser uses, then performs label surgery: grow a label toward the 0x3f
// boundary, duplicate label runs (the cheapest road to a >1024-byte
// expansion), splice in compression pointers (including the self-pointer
// that makes a compact packet expand many times — the CVE's compression
// facet), bump the answer count, truncate mid-structure.
//
// Every draw comes from the caller's Rng, so a campaign is replayable from
// its root seed.
//
// MutateInto is the one entry point: it writes the mutant into a
// caller-owned buffer and routes every intermediate copy through member
// scratch space, so a steady-state fuzz loop allocates nothing per
// execution. The structural operators edit a buffer in place and are
// public so tests can drive each one alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/bytes.hpp"
#include "src/util/rng.hpp"

namespace connlab::fuzz {

struct MutationHint {
  /// Bytes [0, fixed_prefix) are copied through untouched (the id +
  /// question echo the service checks before parsing). One exception:
  /// BumpAnswerCount edits header bytes 6-7 (ancount) — the services
  /// parse that count but never echo-check it.
  std::size_t fixed_prefix = 0;
  /// Enables the DNS structural operators.
  bool dns = false;
  /// Hard cap on output size (the simulated datagram/heap limit).
  std::size_t max_size = 8192;
  /// Optional user token list (AFL-style dictionary): when non-null and
  /// non-empty, the havoc tier gains insert-token / overwrite-with-token
  /// operators. Null or empty leaves the RNG draw sequence — and therefore
  /// every existing campaign's replay — bit-identical to the no-dictionary
  /// build. Not owned; must outlive the mutation calls.
  const std::vector<util::Bytes>* dictionary = nullptr;
};

class Mutator {
 public:
  explicit Mutator(util::Rng rng) noexcept : rng_(rng) {}

  /// Mutates `input` into `out`, reusing out's capacity (no allocation
  /// after warmup). `splice_donor` (optional second corpus entry) feeds
  /// the crossover operator. `input` and `splice_donor` must not alias
  /// `out`.
  void MutateInto(util::ByteSpan input, const MutationHint& hint,
                  util::ByteSpan splice_donor, util::Bytes& out);

  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

  // The structural operators. Each edits `data` in place and leaves it
  // unchanged when it has no usable structure. `start` is the offset of
  // the first answer's owner name. `scratch` buffers a self-insertion
  // (vector ranges must not alias their own insert).
  static void GrowLabel(util::Bytes& data, std::size_t start, util::Rng& rng);
  static void DuplicateLabelRun(util::Bytes& data, std::size_t start,
                                util::Rng& rng, util::Bytes& scratch);
  static void PlantCompressionPointer(util::Bytes& data, std::size_t start,
                                      util::Rng& rng);
  static void BumpAnswerCount(util::Bytes& data, util::Rng& rng);

 private:
  void DnsOnce(util::Bytes& data, const MutationHint& hint);
  void HavocOnce(util::Bytes& data, const MutationHint& hint,
                 util::ByteSpan splice_donor);

  util::Rng rng_;
  util::Bytes chunk_;  // chunk-duplication / label-run scratch
};

}  // namespace connlab::fuzz
