#include "src/fuzz/target.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "src/adapt/camstored.hpp"
#include "src/adapt/httpcamd.hpp"
#include "src/adapt/minimasq.hpp"
#include "src/adapt/resolvd.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/dns/craft.hpp"
#include "src/dns/message.hpp"
#include "src/dns/name.hpp"
#include "src/loader/boot.hpp"
#include "src/loader/snapshot.hpp"
#include "src/vm/events.hpp"

namespace connlab::fuzz {

namespace {

// Feature salts keep the semantic features in disjoint bitmap families.
constexpr std::uint32_t kOutcomeSalt = 0x0070c0deu;
constexpr std::uint32_t kSizeSalt = 0x00517e00u;
constexpr std::uint32_t kOverflowSalt = 0x0f10c0deu;
constexpr std::uint32_t kClaimSalt = 0x00c1a100u;
constexpr std::uint32_t kDepthSalt = 0x00d3e970u;
constexpr std::uint32_t kRecordSalt = 0x00ca54edu;
constexpr std::uint32_t kHeapSalt = 0x0077ea90u;

constexpr std::string_view kDnsproxyQName = "fuzz.example.com";
constexpr std::string_view kMinimasqQName = "cam.firmware.lan";

/// Header plus one question for `qname`: the bytes a reply must echo. A
/// dotted name encodes as its characters plus a leading length byte and the
/// root label; qtype and qclass add four.
constexpr std::size_t EchoedQuestion(std::string_view qname) {
  return dns::kHeaderSize + qname.size() + 2 + 4;
}

constexpr TargetTraits kTraits[] = {
    {TargetKind::kDnsproxy, "dnsproxy", "connman::dnsproxy",
     EchoedQuestion(kDnsproxyQName), true, false},
    // dnsmasq-style checks: only the id + QR flag matter (bytes 0-2), but
    // keeping the whole header + question keeps the question-skip walker
    // happy more often.
    {TargetKind::kMinimasq, "minimasq", "adapt::minimasq",
     EchoedQuestion(kMinimasqQName), true, false},
    {TargetKind::kHttpcamd, "httpcamd", "adapt::httpcamd", 0, false, false},
    // Only the header survives untouched: the question *name* is the whole
    // attack surface, so the label/pointer mutators must reach it.
    {TargetKind::kResolvd, "resolvd", "adapt::resolvd", dns::kHeaderSize,
     true, false},
    // The daemon keeps heap state across requests (until a corrupting run
    // reboots it), so the fuzzer composes multi-request heap shapes.
    {TargetKind::kCamstored, "camstored", "adapt::camstored", 0, false, true},
};

constexpr bool TraitsInKindOrder() {
  for (std::size_t i = 0; i < std::size(kTraits); ++i) {
    if (kTraits[i].kind != static_cast<TargetKind>(i)) return false;
  }
  return true;
}
static_assert(TraitsInKindOrder(), "kTraits is indexed by TargetKind");

std::uint32_t SizeBucket(std::uint32_t bytes) noexcept {
  std::uint32_t bucket = 0;
  while (bytes != 0) {
    bytes >>= 1;
    ++bucket;
  }
  return bucket;  // floor(log2)+1; 0 for 0
}

/// Return-address-looking words near the stop sp: the triage frame context.
std::vector<mem::GuestAddr> StackContext(const loader::System& sys) {
  std::vector<mem::GuestAddr> frames;
  const mem::GuestAddr sp = sys.cpu->sp();
  auto words = sys.space.DebugRead(sp, 64);
  if (!words.ok()) return frames;
  const util::Bytes& raw = words.value();
  for (std::size_t i = 0; i + 4 <= raw.size(); i += 4) {
    const std::uint32_t w = static_cast<std::uint32_t>(raw[i]) |
                            (static_cast<std::uint32_t>(raw[i + 1]) << 8) |
                            (static_cast<std::uint32_t>(raw[i + 2]) << 16) |
                            (static_cast<std::uint32_t>(raw[i + 3]) << 24);
    if (w >= sys.layout.text_base &&
        w < sys.layout.text_base + sys.layout.text_size) {
      frames.push_back(w);
      if (frames.size() == 4) break;
    }
  }
  return frames;
}

/// How the fuzz loop sees an outcome: parsed, served and rejected inputs
/// are benign; anything else is a finding.
ExecResult::Kind ExecKindOf(connman::ProxyOutcome::Kind kind) noexcept {
  using Kind = connman::ProxyOutcome::Kind;
  switch (kind) {
    case Kind::kDroppedInvalid:
    case Kind::kParseError:
    case Kind::kParsedOk: return ExecResult::Kind::kBenign;
    case Kind::kCrash: return ExecResult::Kind::kCrash;
    case Kind::kAbort:
    case Kind::kCfiViolation: return ExecResult::Kind::kAbort;
    case Kind::kShell:
    case Kind::kExec: return ExecResult::Kind::kHijack;
    case Kind::kOther: break;
  }
  return ExecResult::Kind::kOther;
}

ExecResult::Kind ExecKindOf(adapt::ServiceOutcome::Kind kind) noexcept {
  return ExecKindOf(adapt::ToProxyOutcomeKind(kind));
}

/// A service outcome (connman::ProxyOutcome or adapt::ServiceOutcome) with
/// its size signal, in the skeleton's terms.
template <typename Outcome>
FuzzTarget::Delivery Delivered(Outcome outcome, std::uint32_t size,
                               bool overflow) {
  FuzzTarget::Delivery delivery;
  delivery.kind = ExecKindOf(outcome.kind);
  delivery.outcome = static_cast<std::uint32_t>(outcome.kind);
  delivery.stop = std::move(outcome.stop);
  delivery.detail = std::move(outcome.detail);
  delivery.size = size;
  delivery.overflow = overflow;
  return delivery;
}

void AddSizeFeature(FuzzTarget::Delivery& delivery, std::uint32_t salt,
                    std::uint32_t value) noexcept {
  delivery.features[delivery.feature_count++] = salt ^ SizeBucket(value);
}

/// Host-side mirror of Minimasq's expansion loop: how many bytes the first
/// answer's name would write into its 512-byte buffer. The adapt services
/// parse host-side (only the epilogue runs on the guest CPU), so this is
/// the size signal the edge map can't provide.
std::uint32_t MinimasqExpansion(util::ByteSpan wire) {
  if (wire.size() < dns::kHeaderSize) return 0;
  const std::uint16_t qdcount =
      static_cast<std::uint16_t>((wire[4] << 8) | wire[5]);
  const std::uint16_t ancount =
      static_cast<std::uint16_t>((wire[6] << 8) | wire[7]);
  std::size_t pos = dns::kHeaderSize;
  for (int q = 0; q < qdcount; ++q) {
    auto name = dns::DecodeName(wire, pos);
    if (!name.ok()) return 0;
    pos += name.value().wire_len + 4;
  }
  std::uint32_t written = 0;
  if (ancount > 0) {
    while (pos < wire.size()) {
      const std::uint8_t len = wire[pos];
      if (len == 0 || (len & dns::kCompressionFlags) != 0) break;
      if (pos + 1 + len > wire.size()) break;
      written += 1 + len;
      pos += 1 + len;
    }
  }
  return written;
}

/// Host-side mirror of HttpCamd's body-length computation: how many body
/// bytes would be memcpy'd into the 256-byte buffer. The claimed
/// Content-Length comes back too — body_len = min(claimed, available)
/// saturates in both directions, so each needs its own coverage feature or
/// the fuzzer can't hold onto "bigger claim" / "bigger body" mutants while
/// it works on the other half.
struct HttpBodyView {
  std::uint32_t body_len = 0;
  std::uint32_t claimed = 0;
};

HttpBodyView HttpcamdBodyView(util::ByteSpan request) {
  HttpBodyView view;
  const std::string text(request.begin(), request.end());
  const std::size_t headers_end = text.find("\r\n\r\n");
  if (headers_end == std::string::npos || text.compare(0, 5, "POST ") != 0) {
    return view;
  }
  const std::size_t clen_pos = text.find("Content-Length:");
  if (clen_pos == std::string::npos || clen_pos > headers_end) return view;
  const std::size_t content_length = static_cast<std::size_t>(
      std::strtoul(text.c_str() + clen_pos + 15, nullptr, 10));
  const std::size_t body_avail = request.size() - (headers_end + 4);
  view.body_len =
      static_cast<std::uint32_t>(std::min(content_length, body_avail));
  view.claimed = static_cast<std::uint32_t>(
      std::min<std::size_t>(content_length, 0xFFFFFFFFu));
  return view;
}

/// Host-side mirror of Camstored's size handling: the claimed
/// Content-Length vs X-Record-Size mismatch is the bug's precondition, so
/// it gets its own coverage feature (the fuzzer can hold a "sizes
/// disagree" mutant while it works on making the body long enough).
struct CacheSizeView {
  std::uint32_t record_size = 0;
  std::uint32_t content_length = 0;
  bool mismatch = false;
};

CacheSizeView CamstoredSizeView(util::ByteSpan request) {
  CacheSizeView view;
  const std::string text(request.begin(), request.end());
  const std::size_t headers_end = text.find("\r\n\r\n");
  if (headers_end == std::string::npos || text.compare(0, 4, "PUT ") != 0) {
    return view;
  }
  const std::size_t clen = text.find("Content-Length:");
  const std::size_t rsize = text.find("X-Record-Size:");
  if (clen != std::string::npos && clen < headers_end) {
    view.content_length = static_cast<std::uint32_t>(
        std::strtoul(text.c_str() + clen + 15, nullptr, 10));
  }
  if (rsize != std::string::npos && rsize < headers_end) {
    view.record_size = static_cast<std::uint32_t>(
        std::strtoul(text.c_str() + rsize + 14, nullptr, 10));
  }
  view.mismatch = view.record_size != 0 &&
                  view.content_length > view.record_size;
  return view;
}

// ----------------------------------------------------------------- dnsproxy --

class DnsproxyTarget final : public FuzzTarget {
 public:
  explicit DnsproxyTarget(const TargetConfig& config)
      : FuzzTarget(config, Seeds()),
        version_(config.patched ? connman::Version::k135
                                : connman::Version::k134),
        query_wire_(dns::Encode(Query()).value()) {}

 private:
  static constexpr std::uint16_t kQueryId = 0x4655;  // "FU"

  static dns::Message Query() {
    return dns::Message::Query(kQueryId, std::string(kDnsproxyQName));
  }

  static std::vector<util::Bytes> Seeds() {
    const std::string qname(kDnsproxyQName);
    const dns::Message query = Query();
    std::vector<util::Bytes> seeds;
    // One A answer, one AAAA answer, two answers, and a compressed-name
    // answer (pointer back to the question at offset 12) — the benign
    // shapes a real upstream server produces.
    {
      dns::Message r = dns::Message::ResponseFor(query);
      r.answers.push_back(dns::MakeA(qname, "93.184.216.34", 300));
      seeds.push_back(dns::Encode(r).value());
    }
    {
      dns::Message r = dns::Message::ResponseFor(query);
      r.answers.push_back(dns::MakeAAAA(qname, 60));
      seeds.push_back(dns::Encode(r).value());
    }
    {
      dns::Message r = dns::Message::ResponseFor(query);
      r.answers.push_back(dns::MakeA(qname, "10.0.0.1", 60));
      r.answers.push_back(dns::MakeA(qname, "10.0.0.2", 60));
      seeds.push_back(dns::Encode(r).value());
    }
    {
      util::ByteWriter w;
      w.WriteBytes(util::ByteSpan(seeds[0].data(),
                                  EchoedQuestion(kDnsproxyQName)));
      w.WriteU8(0xC0);  // answer owner name: pointer to the question name
      w.WriteU8(12);
      w.WriteU16BE(1);   // type A
      w.WriteU16BE(1);   // class IN
      w.WriteU32BE(60);  // ttl
      w.WriteU16BE(4);   // rdlength
      w.WriteBytes(util::Bytes{9, 9, 9, 9});
      seeds.push_back(std::move(w).Take());
    }
    return seeds;
  }

  void Attach(loader::System& sys) override { proxy_.emplace(sys, version_); }

  util::Result<Delivery> Deliver(util::ByteSpan input) override {
    // Re-register the pending query: HandleServerResponse consumes it on
    // the benign path, and a reboot forgets it.
    if (!proxy_->AcceptClientQuery(query_wire_).ok()) {
      return util::Internal("query registration failed");
    }
    connman::ProxyOutcome outcome = proxy_->HandleServerResponse(input);
    const std::uint32_t written = outcome.name_bytes_written;
    const bool overflowed = outcome.overflowed;
    Delivery delivery = Delivered(std::move(outcome), written, overflowed);
    // A deep non-crashing overflow still trashed the caller stack area.
    delivery.corrupted = overflowed;
    return delivery;
  }

  connman::Version version_;
  util::Bytes query_wire_;
  std::optional<connman::DnsProxy> proxy_;
};

// ----------------------------------------------------------------- minimasq --

class MinimasqTarget final : public FuzzTarget {
 public:
  explicit MinimasqTarget(const TargetConfig& config)
      : FuzzTarget(config, Seeds()),
        query_wire_(dns::Encode(Query()).value()) {}

 private:
  static dns::Message Query() {
    return dns::Message::Query(0x6d71, std::string(kMinimasqQName));
  }

  static std::vector<util::Bytes> Seeds() {
    const std::string qname(kMinimasqQName);
    std::vector<util::Bytes> seeds;
    dns::Message r = dns::Message::ResponseFor(Query());
    r.answers.push_back(dns::MakeA(qname, "172.16.0.9", 120));
    seeds.push_back(dns::Encode(r).value());
    dns::Message r2 = dns::Message::ResponseFor(Query());
    r2.answers.push_back(dns::MakeTXT(qname, "v=spf1 -all", 60));
    seeds.push_back(dns::Encode(r2).value());
    return seeds;
  }

  void Attach(loader::System& sys) override { service_.emplace(sys); }

  util::Result<Delivery> Deliver(util::ByteSpan input) override {
    if (!service_->ForwardQuery(query_wire_).ok()) {
      return util::Internal("forward registration failed");
    }
    const std::uint32_t expanded = MinimasqExpansion(input);
    return Delivered(service_->HandleReply(input), expanded,
                     expanded > adapt::Minimasq::kBufSize);
  }

  util::Bytes query_wire_;
  std::optional<adapt::Minimasq> service_;
};

// ----------------------------------------------------------------- httpcamd --

class HttpcamdTarget final : public FuzzTarget {
 public:
  explicit HttpcamdTarget(const TargetConfig& config)
      : FuzzTarget(config, Seeds()) {}

 private:
  static std::vector<util::Bytes> Seeds() {
    std::vector<util::Bytes> seeds;
    seeds.push_back(util::BytesOf("GET /status HTTP/1.0\r\n\r\n"));
    const util::Bytes body = util::BytesOf("{\"res\":\"720p\"}");
    seeds.push_back(adapt::HttpCamd::WrapInRequest(body));
    // A config upload near (but under) the 256-byte buffer: realistic for
    // a camera firmware blob, and it parks the corpus next to the cliff.
    util::Bytes config(200, '=');
    const util::Bytes header = util::BytesOf("{\"firmware\":\"");
    config.insert(config.begin(), header.begin(), header.end());
    seeds.push_back(adapt::HttpCamd::WrapInRequest(config));
    return seeds;
  }

  void Attach(loader::System& sys) override { service_.emplace(sys); }

  util::Result<Delivery> Deliver(util::ByteSpan input) override {
    const HttpBodyView view = HttpcamdBodyView(input);
    Delivery delivery =
        Delivered(service_->HandleRequest(input), view.body_len,
                  view.body_len > adapt::HttpCamd::kBufSize);
    AddSizeFeature(delivery, kClaimSalt, view.claimed);
    return delivery;
  }

  std::optional<adapt::HttpCamd> service_;
};

// ------------------------------------------------------------------ resolvd --

class ResolvdTarget final : public FuzzTarget {
 public:
  explicit ResolvdTarget(const TargetConfig& config)
      : FuzzTarget(config, Seeds()) {}

 private:
  static std::vector<util::Bytes> Seeds() {
    std::vector<util::Bytes> seeds;
    seeds.push_back(
        dns::Encode(dns::Message::Query(0x7264, "printer.office.lan")).value());
    seeds.push_back(
        dns::Encode(dns::Message::Query(0x7265, "a.deeply.nested.label.chain.lan"))
            .value());
    // A benign *compressed* query: name ends in a pointer to a second name
    // stored after the question — legal, loop-free, and one byte flip away
    // from pointing at itself.
    {
      util::ByteWriter w;
      w.WriteU16BE(0x7266);
      w.WriteU16BE(0x0100);
      w.WriteU16BE(1);
      w.WriteU16BE(0);
      w.WriteU16BE(0);
      w.WriteU16BE(0);
      w.WriteU8(3);
      w.WriteString("cam");
      w.WriteU8(0xC0);  // pointer to the tail name at offset 22
      w.WriteU8(22);
      w.WriteU16BE(1);
      w.WriteU16BE(1);
      w.WriteU8(3);
      w.WriteString("lan");
      w.WriteU8(0);
      seeds.push_back(std::move(w).Take());
    }
    return seeds;
  }

  void Attach(loader::System& sys) override { service_.emplace(sys); }

  util::Result<Delivery> Deliver(util::ByteSpan input) override {
    adapt::ServiceOutcome outcome = service_->HandleQuery(input);
    Delivery delivery = Delivered(std::move(outcome),
                                  service_->last_expanded(),
                                  /*overflow=*/false);
    // The recursion-depth gradient: deeper expansions are new coverage, so
    // the corpus walks toward (and finally off) the stack cliff.
    AddSizeFeature(delivery, kDepthSalt, service_->last_hops());
    return delivery;
  }

  std::optional<adapt::Resolvd> service_;
};

// ---------------------------------------------------------------- camstored --

class CamstoredTarget final : public FuzzTarget {
 public:
  explicit CamstoredTarget(const TargetConfig& config)
      : FuzzTarget(config, Seeds()) {}

 private:
  static std::vector<util::Bytes> Seeds() {
    // The benign protocol: store two adjacent records, read, delete one.
    // The seeds park the daemon next to the size-mismatch cliff.
    std::vector<util::Bytes> seeds;
    seeds.push_back(
        adapt::Camstored::WrapInPut(util::Bytes(56, 'a'), "snap", 64));
    seeds.push_back(
        adapt::Camstored::WrapInPut(util::Bytes(180, 'b'), "clip", 200));
    seeds.push_back(util::BytesOf("GET /cache/snap HTTP/1.0\r\n\r\n"));
    seeds.push_back(adapt::Camstored::WrapInDelete("snap"));
    return seeds;
  }

  void Attach(loader::System& sys) override { service_.emplace(sys); }

  util::Result<Delivery> Deliver(util::ByteSpan input) override {
    const CacheSizeView view = CamstoredSizeView(input);
    Delivery delivery = Delivered(service_->HandleRequest(input),
                                  view.content_length, view.mismatch);
    AddSizeFeature(delivery, kRecordSalt, view.record_size);
    // Allocator-shape features: split/coalesce counts change only when an
    // input exercised a new heap path.
    AddSizeFeature(delivery, kHeapSalt,
                   static_cast<std::uint32_t>(
                       service_->heap().stats().coalesces));
    return delivery;
  }

  std::optional<adapt::Camstored> service_;
};

}  // namespace

const TargetTraits& TraitsOf(TargetKind kind) noexcept {
  return kTraits[static_cast<std::size_t>(kind)];
}

std::string_view TargetKindName(TargetKind kind) noexcept {
  return TraitsOf(kind).id;
}

util::Result<TargetKind> ParseTargetKind(std::string_view name) {
  for (const TargetTraits& traits : kTraits) {
    if (traits.id == name) return traits.kind;
  }
  return util::InvalidArgument("unknown fuzz target: " + std::string(name));
}

FuzzTarget::FuzzTarget(const TargetConfig& config,
                       std::vector<util::Bytes> seeds)
    : config_(config), seeds_(std::move(seeds)) {}

FuzzTarget::~FuzzTarget() = default;

util::Status FuzzTarget::Boot() {
  CONNLAB_ASSIGN_OR_RETURN(
      sys_, loader::Boot(config_.arch, loader::ProtectionConfig::None(),
                         config_.boot_seed, config_.exec));
  CONNLAB_ASSIGN_OR_RETURN(get_name_, sys_->Sym("connman.get_name"));
  CONNLAB_ASSIGN_OR_RETURN(copy_entry_, sys_->Sym("connman.copy_label"));
  CONNLAB_ASSIGN_OR_RETURN(copy_done_, sys_->Sym("connman.copy_done"));
  Attach(*sys_);
  if (config_.fast_reset) {
    snapshot_ = std::make_unique<loader::Snapshot>(loader::TakeSnapshot(*sys_));
  }
  return util::OkStatus();
}

/// Fresh process image after a corrupting execution. Fast path: rewind
/// guest memory + CPU to the post-boot snapshot and recreate the service;
/// identical to a full re-Boot because the boot seed is fixed and host
/// functions are stateless. Falls back to Boot() when fast_reset is off or
/// the restore is refused.
util::Status FuzzTarget::Reboot() {
  if (snapshot_ != nullptr && loader::RestoreSnapshot(*sys_, *snapshot_).ok()) {
    Attach(*sys_);
    return util::OkStatus();
  }
  return Boot();
}

ExecResult FuzzTarget::Execute(util::ByteSpan input, CoverageMap& map) {
  vm::Cpu& cpu = *sys_->cpu;
  // The event log is per execution: an input the service rejects before
  // the guest runs must not fold in the previous execution's events.
  cpu.ClearEvents();
  map.AttachTo(cpu);
  cpu.ResetCoverageEdge();
  util::Result<Delivery> delivered = Deliver(input);
  cpu.DetachCoverage();

  ExecResult result;
  if (!delivered.ok()) {
    result.kind = ExecResult::Kind::kOther;
    result.detail = "harness: " + delivered.status().message();
    return result;
  }
  Delivery& delivery = delivered.value();
  result.kind = delivery.kind;
  result.stop_reason = delivery.stop.reason;
  result.pc = delivery.stop.pc;
  result.write_fault = delivery.stop.fault.has_value() &&
                       delivery.stop.fault->kind == mem::AccessKind::kWrite;
  result.bytes_expanded = delivery.size;
  result.overflow = delivery.overflow;
  result.detail = std::move(delivery.detail);

  map.AddFeature(vm::CoverageLocation(kOutcomeSalt ^ delivery.outcome));
  map.AddFeature(vm::CoverageLocation(kSizeSalt ^ SizeBucket(delivery.size)));
  if (delivery.overflow) map.AddFeature(vm::CoverageLocation(kOverflowSalt));
  for (const vm::Event& event : cpu.events()) {
    map.AddFeature(vm::EventFeature(event.kind));
  }
  for (std::size_t i = 0; i < delivery.feature_count; ++i) {
    map.AddFeature(vm::CoverageLocation(delivery.features[i]));
  }

  const bool benign = result.kind == ExecResult::Kind::kBenign;
  if (!benign) result.stack = StackContext(*sys_);
  if (!benign || delivery.corrupted) {
    // Fresh process image, identical layout (fixed boot seed, no ASLR).
    if (Reboot().ok()) ++reboots_;
  }
  return result;
}

mem::GuestAddr FuzzTarget::NormalizePc(mem::GuestAddr pc) const {
  if (AtOverflowSite(pc)) return copy_entry_;
  return sys_->space.FindSegment(pc) != nullptr ? pc : kWildPc;
}

bool FuzzTarget::AtOverflowSite(mem::GuestAddr pc) const {
  return (pc >= copy_entry_ && pc <= copy_done_) || pc == get_name_;
}

util::Result<std::unique_ptr<FuzzTarget>> MakeTarget(
    const TargetConfig& config) {
  std::unique_ptr<FuzzTarget> target;
  switch (config.kind) {
    case TargetKind::kDnsproxy:
      target = std::make_unique<DnsproxyTarget>(config);
      break;
    case TargetKind::kMinimasq:
      target = std::make_unique<MinimasqTarget>(config);
      break;
    case TargetKind::kHttpcamd:
      target = std::make_unique<HttpcamdTarget>(config);
      break;
    case TargetKind::kResolvd:
      target = std::make_unique<ResolvdTarget>(config);
      break;
    case TargetKind::kCamstored:
      target = std::make_unique<CamstoredTarget>(config);
      break;
  }
  if (target == nullptr) {
    return util::InvalidArgument("unknown fuzz target kind");
  }
  CONNLAB_RETURN_IF_ERROR(target->Boot());
  return target;
}

}  // namespace connlab::fuzz
