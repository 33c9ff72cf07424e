#include "src/adapt/httpcamd.hpp"

#include <algorithm>

#include "src/adapt/camstored.hpp"  // HeaderValue

namespace connlab::adapt {

util::Bytes HttpCamd::WrapInRequest(util::ByteSpan payload,
                                    const std::string& path) {
  util::ByteWriter w;
  w.WriteString("POST " + path + " HTTP/1.0\r\n");
  w.WriteString("Host: camera.lan\r\n");
  w.WriteString("Content-Length: " + std::to_string(payload.size()) + "\r\n");
  w.WriteString("\r\n");
  w.WriteBytes(payload);
  return std::move(w).Take();
}

ServiceOutcome HttpCamd::HandleRequest(util::ByteSpan request) {
  last_response_.clear();
  const std::string_view text = RequestText(request);

  // Request line + headers end at the first blank line.
  const std::size_t headers_end = text.find("\r\n\r\n");
  if (headers_end == std::string_view::npos || !text.starts_with("POST ")) {
    if (text.starts_with("GET ")) {
      last_response_ = "HTTP/1.0 200 OK\r\n\r\ncamd ready";
      ServiceOutcome outcome;
      outcome.kind = ServiceOutcome::Kind::kOk;
      outcome.detail = "GET served";
      return outcome;
    }
    last_response_ = "HTTP/1.0 400 Bad Request\r\n\r\n";
    return Rejected("malformed request");
  }
  bool has_clen = false;
  const std::size_t content_length =
      HeaderValue(text, "Content-Length:", headers_end, &has_clen);
  if (!has_clen) {
    last_response_ = "HTTP/1.0 411 Length Required\r\n\r\n";
    return Rejected("no content-length");
  }
  // The bug: Content-Length is trusted, the body is memcpy'd into a
  // 256-byte stack buffer. Every outcome from here on reports the copy.
  const std::size_t body_start = headers_end + 4;
  const std::size_t body_len =
      std::min(content_length, request.size() - body_start);
  const auto measured = [&](ServiceOutcome outcome) {
    outcome.bytes_written = static_cast<std::uint32_t>(body_len);
    outcome.overflowed = body_len > kBufSize;
    outcome.gradient = static_cast<std::uint32_t>(
        std::min<std::size_t>(content_length, 0xFFFFFFFFu));
    return outcome;
  };

  if (util::Status staged = frame_.Stage(); !staged.ok()) {
    ServiceOutcome outcome;
    outcome.detail = staged.message();
    return measured(std::move(outcome));
  }
  auto& space = sys_.space;
  const util::ByteSpan body = request.subspan(body_start, body_len);
  if (!space.WriteBytes(frame_.base(), body).ok()) {
    return measured(
        ServiceOutcomeFromFault(space, "body copy ran off the stack"));
  }

  // Handler returns through the guest frame.
  ServiceOutcome outcome = measured(frame_.Return());
  if (outcome.kind == ServiceOutcome::Kind::kOk) {
    last_response_ = "HTTP/1.0 200 OK\r\n\r\nconfig updated";
    outcome.detail = "request served";
  }
  return outcome;
}

util::Result<exploit::TargetProfile> HttpCamd::ProfileFor() const {
  exploit::TargetProfile profile;
  profile.ret_offset = ret_offset();
  profile.buffer_addr = frame_.base();
  CONNLAB_RETURN_IF_ERROR(exploit::FillImageAddresses(sys_, profile));
  return profile;
}

}  // namespace connlab::adapt
