#include "src/util/bytes.hpp"

namespace connlab::util {

Bytes BytesOf(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string ToHex(ByteSpan data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Result<Bytes> FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) return Malformed("odd hex length");
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return Malformed("bad hex digit");
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Status ByteReader::Seek(std::size_t offset) {
  if (offset > data_.size()) {
    return OutOfRange("seek past end of buffer");
  }
  offset_ = offset;
  return OkStatus();
}

Result<std::uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) return Malformed("truncated: need 1 byte");
  return data_[offset_++];
}

Result<std::uint16_t> ByteReader::ReadU16BE() {
  if (remaining() < 2) return Malformed("truncated: need 2 bytes");
  std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[offset_]) << 8) | data_[offset_ + 1]);
  offset_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::ReadU32BE() {
  if (remaining() < 4) return Malformed("truncated: need 4 bytes");
  std::uint32_t v = (static_cast<std::uint32_t>(data_[offset_]) << 24) |
                    (static_cast<std::uint32_t>(data_[offset_ + 1]) << 16) |
                    (static_cast<std::uint32_t>(data_[offset_ + 2]) << 8) |
                    static_cast<std::uint32_t>(data_[offset_ + 3]);
  offset_ += 4;
  return v;
}

Result<std::uint16_t> ByteReader::ReadU16LE() {
  if (remaining() < 2) return Malformed("truncated: need 2 bytes");
  std::uint16_t v = static_cast<std::uint16_t>(
      data_[offset_] | (static_cast<std::uint16_t>(data_[offset_ + 1]) << 8));
  offset_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::ReadU32LE() {
  if (remaining() < 4) return Malformed("truncated: need 4 bytes");
  std::uint32_t v = static_cast<std::uint32_t>(data_[offset_]) |
                    (static_cast<std::uint32_t>(data_[offset_ + 1]) << 8) |
                    (static_cast<std::uint32_t>(data_[offset_ + 2]) << 16) |
                    (static_cast<std::uint32_t>(data_[offset_ + 3]) << 24);
  offset_ += 4;
  return v;
}

Result<Bytes> ByteReader::ReadBytes(std::size_t count) {
  if (remaining() < count) return Malformed("truncated: need more bytes");
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
            data_.begin() + static_cast<std::ptrdiff_t>(offset_ + count));
  offset_ += count;
  return out;
}

Status ByteReader::Skip(std::size_t count) {
  if (remaining() < count) return Malformed("truncated: cannot skip");
  offset_ += count;
  return OkStatus();
}

void ByteWriter::WriteU8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::WriteU16BE(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void ByteWriter::WriteU32BE(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
  out_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void ByteWriter::WriteU32LE(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void ByteWriter::WriteBytes(ByteSpan data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::WriteString(std::string_view text) {
  out_.insert(out_.end(), text.begin(), text.end());
}

Status ByteWriter::PatchU16BE(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > out_.size()) return OutOfRange("patch past end of buffer");
  out_[offset] = static_cast<std::uint8_t>(v >> 8);
  out_[offset + 1] = static_cast<std::uint8_t>(v & 0xFF);
  return OkStatus();
}

}  // namespace connlab::util
