#include "src/dns/name.hpp"

#include <cstdio>

namespace connlab::dns {

namespace {

bool IsDigit(char c) noexcept { return c >= '0' && c <= '9'; }

}  // namespace

util::Result<LabelSeq> ParseDotted(std::string_view dotted) {
  LabelSeq labels;
  if (dotted.empty() || dotted == ".") return labels;  // root

  std::size_t total = 1;  // terminating root byte
  util::Bytes label;
  for (std::size_t i = 0; i <= dotted.size(); ++i) {
    if (i == dotted.size() || dotted[i] == '.') {
      if (label.empty()) return util::InvalidArgument("empty label in name");
      if (label.size() > kMaxLabelLen) {
        return util::InvalidArgument("label exceeds 63 bytes");
      }
      total += label.size() + 1;
      if (total > kMaxNameLen) {
        return util::InvalidArgument("name exceeds 255 bytes");
      }
      labels.push_back(std::move(label));
      label.clear();
      if (i + 1 == dotted.size()) break;  // a trailing dot is the root's
      continue;
    }
    if (dotted[i] != '\\') {
      label.push_back(static_cast<std::uint8_t>(dotted[i]));
      continue;
    }
    const std::string_view rest = dotted.substr(i + 1);
    if (!rest.empty() && (rest[0] == '.' || rest[0] == '\\')) {
      label.push_back(static_cast<std::uint8_t>(rest[0]));
      i += 1;
    } else if (rest.size() >= 3 && IsDigit(rest[0]) && IsDigit(rest[1]) &&
               IsDigit(rest[2])) {
      const int value =
          (rest[0] - '0') * 100 + (rest[1] - '0') * 10 + (rest[2] - '0');
      if (value > 255) return util::InvalidArgument("escape exceeds \\255");
      label.push_back(static_cast<std::uint8_t>(value));
      i += 3;
    } else {
      return util::InvalidArgument("bad escape in name");
    }
  }
  return labels;
}

std::string ToDotted(const LabelSeq& labels) {
  if (labels.empty()) return ".";
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back('.');
    for (std::uint8_t b : labels[i]) {
      if (b >= 0x21 && b <= 0x7E && b != '.' && b != '\\') {
        out.push_back(static_cast<char>(b));
      } else {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\%03u", b);
        out += esc;
      }
    }
  }
  return out;
}

util::Status EncodeName(util::ByteWriter& w, std::string_view dotted) {
  CONNLAB_ASSIGN_OR_RETURN(LabelSeq labels, ParseDotted(dotted));
  return EncodeLabels(w, labels, /*terminate=*/true);
}

util::Status EncodeLabels(util::ByteWriter& w, const LabelSeq& labels,
                          bool terminate) {
  for (const util::Bytes& label : labels) {
    if (label.empty()) return util::InvalidArgument("cannot encode empty label");
    if (label.size() > kMaxLabelLen) {
      return util::InvalidArgument("label exceeds 63 bytes (unencodable)");
    }
    w.WriteU8(static_cast<std::uint8_t>(label.size()));
    w.WriteBytes(label);
  }
  if (terminate) w.WriteU8(0);
  return util::OkStatus();
}

util::Result<std::size_t> FlatNameLength(util::ByteSpan packet,
                                         std::size_t offset) {
  std::size_t pos = offset;
  std::size_t total = 1;
  while (true) {
    if (pos >= packet.size()) return util::Malformed("name runs off packet");
    const std::uint8_t len = packet[pos];
    if ((len & kCompressionFlags) == kCompressionFlags) {
      return util::Malformed("compressed name");
    }
    if ((len & kCompressionFlags) != 0) {
      return util::Malformed("reserved label type");
    }
    if (len == 0) return pos + 1 - offset;
    if (pos + 1 + len > packet.size()) return util::Malformed("label off packet");
    total += len + 1;
    if (total > kMaxNameLen) return util::Malformed("decoded name exceeds 255");
    pos += 1 + len;
  }
}

util::Result<DecodedName> DecodeName(util::ByteSpan packet, std::size_t offset,
                                     int max_hops) {
  DecodedName out;
  std::size_t pos = offset;
  std::size_t end_of_original = 0;  // set when the first pointer is taken
  bool jumped = false;
  int hops = 0;
  std::size_t total = 1;

  while (true) {
    if (pos >= packet.size()) return util::Malformed("name runs off packet");
    const std::uint8_t len = packet[pos];
    if ((len & kCompressionFlags) == kCompressionFlags) {
      if (pos + 1 >= packet.size()) return util::Malformed("truncated pointer");
      if (++hops > max_hops) return util::Malformed("compression pointer loop");
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | packet[pos + 1];
      if (!jumped) {
        end_of_original = pos + 2;
        jumped = true;
      }
      if (target >= packet.size()) return util::Malformed("pointer off packet");
      pos = target;
      continue;
    }
    if ((len & kCompressionFlags) != 0) {
      return util::Malformed("reserved label type");
    }
    if (len == 0) {
      if (!jumped) end_of_original = pos + 1;
      break;
    }
    if (pos + 1 + len > packet.size()) return util::Malformed("label off packet");
    total += len + 1;
    if (total > kMaxNameLen) return util::Malformed("decoded name exceeds 255");
    out.labels.emplace_back(packet.begin() + static_cast<std::ptrdiff_t>(pos + 1),
                            packet.begin() + static_cast<std::ptrdiff_t>(pos + 1 + len));
    pos += 1 + len;
  }
  out.dotted = ToDotted(out.labels);
  out.wire_len = end_of_original - offset;
  return out;
}

}  // namespace connlab::dns
