// "httpcamd" — an HTTP-flavoured IP-camera daemon with a body-copy
// overflow (CVE-2019-8985 analogue), reproducing §V's second claim: with
// *moderate* modification — swap the packet-crafting layer from DNS to
// HTTP — the same exploit generation approach lands on protocol-based
// overflows generally.
//
// The parser trusts Content-Length and memcpy's the request body into a
// 256-byte stack buffer. Unlike the DNS vector there is no label
// interleaving: the body bytes land verbatim (the constraint that changes
// is the protocol framing, not the payload arithmetic).
#pragma once

#include <string>

#include "src/adapt/minimasq.hpp"  // ServiceOutcome
#include "src/exploit/profile.hpp"
#include "src/loader/boot.hpp"

namespace connlab::adapt {

class HttpCamd {
 public:
  static constexpr std::uint32_t kBufSize = 256;
  static constexpr std::uint32_t kLocals = 8;

  explicit HttpCamd(loader::System& sys)
      : sys_(sys), frame_(sys, kBufSize, kLocals) {}

  [[nodiscard]] std::uint32_t ret_offset() const noexcept {
    return frame_.ret_offset();
  }

  /// Parses and "handles" one HTTP/1.0 request. A benign request gets a
  /// 200; an oversized body smashes the handler's frame. Size signal: the
  /// body bytes copied, min(Content-Length, body present), overflowed past
  /// kBufSize (0 for GET, malformed or length-less requests); gradient:
  /// the claimed Content-Length, clamped to 32 bits. The copy saturates in
  /// both halves, so the claim needs its own signal.
  ServiceOutcome HandleRequest(util::ByteSpan request);

  /// TargetProfile for this service (the §V "changed variables").
  [[nodiscard]] util::Result<exploit::TargetProfile> ProfileFor() const;

  /// Wraps a raw overflow payload in a valid POST request.
  static util::Bytes WrapInRequest(util::ByteSpan payload,
                                   const std::string& path = "/camera/config");

  [[nodiscard]] const std::string& last_response() const noexcept {
    return last_response_;
  }

 private:
  loader::System& sys_;
  HandlerFrame frame_;
  std::string last_response_;
};

}  // namespace connlab::adapt
