// Byte-buffer primitives: Bytes (owning), ByteReader / ByteWriter cursors.
//
// All simulated wire formats (DNS, guest memory snapshots, exploit payloads)
// are built and parsed through these. Readers are bounds-checked and report
// Malformed on truncation rather than asserting — parsing attacker-crafted
// packets is the normal case in this library.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.hpp"

namespace connlab::util {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// Builds Bytes from a string literal's characters (no trailing NUL).
Bytes BytesOf(std::string_view text);

/// Renders bytes as lowercase hex, e.g. "dead beef" -> "646561642062656566".
std::string ToHex(ByteSpan data);

/// Parses hex digits of either case back into bytes. Malformed on an odd
/// length ("odd hex length") or a non-hex character ("bad hex digit").
Result<Bytes> FromHex(std::string_view hex);

/// Bounds-checked big-endian/little-endian reader over a non-owned span.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  [[nodiscard]] bool empty() const noexcept { return remaining() == 0; }

  /// Moves the cursor to an absolute offset (used for DNS compression jumps).
  Status Seek(std::size_t offset);

  Result<std::uint8_t> ReadU8();
  Result<std::uint16_t> ReadU16BE();
  Result<std::uint32_t> ReadU32BE();
  Result<std::uint16_t> ReadU16LE();
  Result<std::uint32_t> ReadU32LE();
  Result<Bytes> ReadBytes(std::size_t count);
  Status Skip(std::size_t count);

 private:
  ByteSpan data_;
  std::size_t offset_ = 0;
};

/// Append-only writer producing Bytes.
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(std::uint8_t v);
  void WriteU16BE(std::uint16_t v);
  void WriteU32BE(std::uint32_t v);
  void WriteU32LE(std::uint32_t v);
  void WriteBytes(ByteSpan data);
  void WriteString(std::string_view text);  // raw chars, no NUL
  /// Overwrites 2 bytes at an earlier offset (e.g. patching DNS counts).
  Status PatchU16BE(std::size_t offset, std::uint16_t v);

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] const Bytes& bytes() const noexcept { return out_; }
  [[nodiscard]] Bytes Take() && { return std::move(out_); }

 private:
  Bytes out_;
};

}  // namespace connlab::util
