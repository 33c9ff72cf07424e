#include "src/fuzz/target.hpp"

#include <algorithm>
#include <cstdlib>

#include "src/adapt/camstored.hpp"
#include "src/adapt/httpcamd.hpp"
#include "src/adapt/minimasq.hpp"
#include "src/adapt/resolvd.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/dns/craft.hpp"
#include "src/dns/message.hpp"
#include "src/dns/name.hpp"
#include <optional>

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

std::uint32_t SizeBucket(std::uint32_t bytes) noexcept {
  std::uint32_t bucket = 0;
  while (bytes != 0) {
    bytes >>= 1;
    ++bucket;
  }
  return bucket;  // floor(log2)+1; 0 for 0
}

void FoldFeatures(CoverageMap& map, std::uint32_t outcome_kind,
                  std::uint32_t bytes_expanded, bool overflow,
                  const std::vector<vm::Event>& events) {
  map.AddFeature(vm::CoverageLocation(kOutcomeSalt ^ outcome_kind));
  map.AddFeature(vm::CoverageLocation(kSizeSalt ^ SizeBucket(bytes_expanded)));
  if (overflow) map.AddFeature(vm::CoverageLocation(kOverflowSalt));
  for (const vm::Event& event : events) {
    map.AddFeature(vm::EventFeature(event.kind));
  }
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

void FillFromServiceOutcome(const adapt::ServiceOutcome& outcome,
                            ExecResult* result, CoverageMap& map,
                            const std::vector<vm::Event>& events,
                            std::uint32_t bytes_expanded, bool overflow) {
  using Kind = adapt::ServiceOutcome::Kind;
  result->stop_reason = outcome.stop.reason;
  result->pc = outcome.stop.pc;
  result->detail = outcome.detail;
  result->bytes_expanded = bytes_expanded;
  result->overflow = overflow;
  result->write_fault = outcome.stop.fault.has_value() &&
                        outcome.stop.fault->kind == mem::AccessKind::kWrite;
  switch (outcome.kind) {
    case Kind::kOk:
    case Kind::kRejected:
      result->kind = ExecResult::Kind::kBenign;
      break;
    case Kind::kCrash:
      result->kind = ExecResult::Kind::kCrash;
      break;
    case Kind::kShell:
    case Kind::kExec:
      result->kind = ExecResult::Kind::kHijack;
      break;
    case Kind::kAbort:
      result->kind = ExecResult::Kind::kAbort;
      break;
    case Kind::kOther:
      result->kind = ExecResult::Kind::kOther;
      break;
  }
  FoldFeatures(map, static_cast<std::uint32_t>(outcome.kind), bytes_expanded,
               overflow, events);
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

/// Shared boot + overflow-site symbol plumbing for all three services.
class BootedTarget : public FuzzTarget {
 public:
  explicit BootedTarget(const TargetConfig& config) : config_(config) {}

  [[nodiscard]] TargetKind kind() const noexcept override {
    return config_.kind;
  }
  [[nodiscard]] std::uint64_t reboots() const noexcept override {
    return reboots_;
  }

  [[nodiscard]] mem::GuestAddr NormalizePc(mem::GuestAddr pc) const override {
    if (AtOverflowSite(pc)) return copy_entry_;
    return sys_->space.FindSegment(pc) != nullptr ? pc : kWildPc;
  }

  [[nodiscard]] bool AtOverflowSite(mem::GuestAddr pc) const override {
    return (pc >= copy_entry_ && pc <= copy_done_) || pc == get_name_;
  }

 protected:
  /// Full boot path: loader + symbols + service. Implemented per target.
  virtual util::Status Init() = 0;
  /// Recreates the host-side service object against the (restored) System:
  /// every service constructor is a pure computation over the layout (plus,
  /// for DnsProxy, an idempotent host-fn registration), so reconstruction
  /// clears host caches/pending tables exactly as a fresh boot would.
  virtual void ReattachService() = 0;

  util::Status BootSystem() {
    CONNLAB_ASSIGN_OR_RETURN(
        sys_, loader::Boot(config_.arch, loader::ProtectionConfig::None(),
                           config_.boot_seed, config_.exec));
    CONNLAB_ASSIGN_OR_RETURN(get_name_, sys_->Sym("connman.get_name"));
    CONNLAB_ASSIGN_OR_RETURN(copy_entry_, sys_->Sym("connman.copy_label"));
    CONNLAB_ASSIGN_OR_RETURN(copy_done_, sys_->Sym("connman.copy_done"));
    return util::OkStatus();
  }

  /// Called at the end of each target's Init(): freezes the post-boot image
  /// so later reboots are restores instead of loader runs.
  void CaptureSnapshot() {
    if (config_.fast_reset) snapshot_ = loader::TakeSnapshot(*sys_);
  }

  /// Fresh process image after a corrupting execution. Fast path: rewind
  /// guest memory + CPU to the post-boot snapshot and recreate the service;
  /// identical to a full re-Boot because the boot seed is fixed and host
  /// functions are stateless. Falls back to Init() when fast_reset is off
  /// or the restore is refused.
  util::Status Reboot() {
    if (config_.fast_reset && snapshot_.has_value()) {
      if (loader::RestoreSnapshot(*sys_, *snapshot_).ok()) {
        ReattachService();
        return util::OkStatus();
      }
    }
    return Init();
  }

  TargetConfig config_;
  std::unique_ptr<loader::System> sys_;
  std::optional<loader::Snapshot> snapshot_;
  mem::GuestAddr get_name_ = 0;
  mem::GuestAddr copy_entry_ = 0;
  mem::GuestAddr copy_done_ = 0;
  std::uint64_t reboots_ = 0;
};

// ----------------------------------------------------------------- dnsproxy --

class DnsproxyTarget : public BootedTarget {
 public:
  static util::Result<std::unique_ptr<FuzzTarget>> Make(
      const TargetConfig& config) {
    auto target = std::make_unique<DnsproxyTarget>(config);
    CONNLAB_RETURN_IF_ERROR(target->Init());
    return std::unique_ptr<FuzzTarget>(std::move(target));
  }

  explicit DnsproxyTarget(const TargetConfig& config) : BootedTarget(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "connman::dnsproxy";
  }
  [[nodiscard]] std::size_t fixed_prefix() const noexcept override {
    return dns::kHeaderSize + question_wire_len_;
  }
  [[nodiscard]] bool dns_shaped() const noexcept override { return true; }

  [[nodiscard]] std::vector<util::Bytes> SeedCorpus() const override {
    std::vector<util::Bytes> seeds;
    // One A answer, one AAAA answer, two answers, and a compressed-name
    // answer (pointer back to the question at offset 12) — the benign
    // shapes a real upstream server produces.
    {
      dns::Message r = dns::Message::ResponseFor(query_);
      r.answers.push_back(dns::MakeA(kQName, "93.184.216.34", 300));
      seeds.push_back(dns::Encode(r).value());
    }
    {
      dns::Message r = dns::Message::ResponseFor(query_);
      r.answers.push_back(dns::MakeAAAA(kQName, 60));
      seeds.push_back(dns::Encode(r).value());
    }
    {
      dns::Message r = dns::Message::ResponseFor(query_);
      r.answers.push_back(dns::MakeA(kQName, "10.0.0.1", 60));
      r.answers.push_back(dns::MakeA(kQName, "10.0.0.2", 60));
      seeds.push_back(dns::Encode(r).value());
    }
    {
      util::ByteWriter w;
      w.WriteBytes(util::ByteSpan(seeds[0].data(), fixed_prefix()));
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

  ExecResult Execute(util::ByteSpan input, CoverageMap& map) override {
    using Kind = connman::ProxyOutcome::Kind;
    ExecResult result;
    // Re-register the pending query: HandleServerResponse consumes it on
    // the benign path, and a reboot forgets it.
    if (!proxy_->AcceptClientQuery(query_wire_).ok()) {
      result.kind = ExecResult::Kind::kOther;
      result.detail = "harness: query registration failed";
      return result;
    }
    auto& cpu = *sys_->cpu;
    map.AttachTo(cpu);
    cpu.ResetCoverageEdge();
    const connman::ProxyOutcome outcome = proxy_->HandleServerResponse(input);
    cpu.DetachCoverage();

    result.stop_reason = outcome.stop.reason;
    result.pc = outcome.stop.pc;
    result.bytes_expanded = outcome.name_bytes_written;
    result.overflow = outcome.overflowed;
    result.detail = outcome.detail;
    result.write_fault = outcome.stop.fault.has_value() &&
                         outcome.stop.fault->kind == mem::AccessKind::kWrite;
    bool corrupted = false;
    switch (outcome.kind) {
      case Kind::kDroppedInvalid:
      case Kind::kParseError:
      case Kind::kParsedOk:
        result.kind = ExecResult::Kind::kBenign;
        // A deep non-crashing overflow still trashed the caller stack area.
        corrupted = outcome.overflowed;
        break;
      case Kind::kCrash:
        result.kind = ExecResult::Kind::kCrash;
        corrupted = true;
        break;
      case Kind::kAbort:
      case Kind::kCfiViolation:
        result.kind = ExecResult::Kind::kAbort;
        corrupted = true;
        break;
      case Kind::kShell:
      case Kind::kExec:
        result.kind = ExecResult::Kind::kHijack;
        corrupted = true;
        break;
      case Kind::kOther:
        result.kind = ExecResult::Kind::kOther;
        corrupted = true;
        break;
    }
    FoldFeatures(map, static_cast<std::uint32_t>(outcome.kind),
                 result.bytes_expanded, result.overflow, cpu.events());
    if (result.kind != ExecResult::Kind::kBenign) {
      result.stack = StackContext(*sys_);
    }
    if (corrupted) {
      // Fresh process image, identical layout (fixed boot seed, no ASLR).
      if (Reboot().ok()) ++reboots_;
    }
    return result;
  }

  util::Status Init() override {
    CONNLAB_RETURN_IF_ERROR(BootSystem());
    ReattachService();
    query_ = dns::Message::Query(kQueryId, kQName);
    CONNLAB_ASSIGN_OR_RETURN(query_wire_, dns::Encode(query_));
    util::ByteWriter w;
    CONNLAB_RETURN_IF_ERROR(dns::EncodeName(w, kQName));
    question_wire_len_ = w.size() + 4;  // + qtype + qclass
    CaptureSnapshot();
    return util::OkStatus();
  }

  void ReattachService() override {
    proxy_ = std::make_unique<connman::DnsProxy>(
        *sys_, config_.patched ? connman::Version::k135
                               : connman::Version::k134);
  }

 private:
  static constexpr std::uint16_t kQueryId = 0x4655;  // "FU"
  static constexpr const char* kQName = "fuzz.example.com";

  std::unique_ptr<connman::DnsProxy> proxy_;
  dns::Message query_;
  util::Bytes query_wire_;
  std::size_t question_wire_len_ = 0;
};

// ----------------------------------------------------------------- minimasq --

class MinimasqTarget : public BootedTarget {
 public:
  static util::Result<std::unique_ptr<FuzzTarget>> Make(
      const TargetConfig& config) {
    auto target = std::make_unique<MinimasqTarget>(config);
    CONNLAB_RETURN_IF_ERROR(target->Init());
    return std::unique_ptr<FuzzTarget>(std::move(target));
  }

  explicit MinimasqTarget(const TargetConfig& config) : BootedTarget(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "adapt::minimasq";
  }
  [[nodiscard]] std::size_t fixed_prefix() const noexcept override {
    // dnsmasq-style checks: only the id + QR flag matter (bytes 0-2), but
    // keeping the whole header + question keeps the question-skip walker
    // happy more often.
    return dns::kHeaderSize + question_wire_len_;
  }
  [[nodiscard]] bool dns_shaped() const noexcept override { return true; }

  [[nodiscard]] std::vector<util::Bytes> SeedCorpus() const override {
    std::vector<util::Bytes> seeds;
    dns::Message r = dns::Message::ResponseFor(query_);
    r.answers.push_back(dns::MakeA(kQName, "172.16.0.9", 120));
    seeds.push_back(dns::Encode(r).value());
    dns::Message r2 = dns::Message::ResponseFor(query_);
    r2.answers.push_back(dns::MakeTXT(kQName, "v=spf1 -all", 60));
    seeds.push_back(dns::Encode(r2).value());
    return seeds;
  }

  ExecResult Execute(util::ByteSpan input, CoverageMap& map) override {
    ExecResult result;
    if (!service_->ForwardQuery(query_wire_).ok()) {
      result.kind = ExecResult::Kind::kOther;
      result.detail = "harness: forward registration failed";
      return result;
    }
    auto& cpu = *sys_->cpu;
    map.AttachTo(cpu);
    cpu.ResetCoverageEdge();
    const adapt::ServiceOutcome outcome = service_->HandleReply(input);
    cpu.DetachCoverage();
    const std::uint32_t expanded = MinimasqExpansion(input);
    FillFromServiceOutcome(outcome, &result, map, cpu.events(), expanded,
                           expanded > adapt::Minimasq::kBufSize);
    if (result.kind != ExecResult::Kind::kBenign) {
      result.stack = StackContext(*sys_);
      if (Reboot().ok()) ++reboots_;
    }
    return result;
  }

  util::Status Init() override {
    CONNLAB_RETURN_IF_ERROR(BootSystem());
    ReattachService();
    query_ = dns::Message::Query(0x6d71, kQName);
    CONNLAB_ASSIGN_OR_RETURN(query_wire_, dns::Encode(query_));
    util::ByteWriter w;
    CONNLAB_RETURN_IF_ERROR(dns::EncodeName(w, kQName));
    question_wire_len_ = w.size() + 4;
    CaptureSnapshot();
    return util::OkStatus();
  }

  void ReattachService() override {
    service_ = std::make_unique<adapt::Minimasq>(*sys_);
  }

 private:
  static constexpr const char* kQName = "cam.firmware.lan";

  std::unique_ptr<adapt::Minimasq> service_;
  dns::Message query_;
  util::Bytes query_wire_;
  std::size_t question_wire_len_ = 0;
};

// ----------------------------------------------------------------- httpcamd --

class HttpcamdTarget : public BootedTarget {
 public:
  static util::Result<std::unique_ptr<FuzzTarget>> Make(
      const TargetConfig& config) {
    auto target = std::make_unique<HttpcamdTarget>(config);
    CONNLAB_RETURN_IF_ERROR(target->Init());
    return std::unique_ptr<FuzzTarget>(std::move(target));
  }

  explicit HttpcamdTarget(const TargetConfig& config) : BootedTarget(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "adapt::httpcamd";
  }
  [[nodiscard]] std::size_t fixed_prefix() const noexcept override { return 0; }
  [[nodiscard]] bool dns_shaped() const noexcept override { return false; }

  [[nodiscard]] std::vector<util::Bytes> SeedCorpus() const override {
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

  ExecResult Execute(util::ByteSpan input, CoverageMap& map) override {
    ExecResult result;
    auto& cpu = *sys_->cpu;
    map.AttachTo(cpu);
    cpu.ResetCoverageEdge();
    const adapt::ServiceOutcome outcome = service_->HandleRequest(input);
    cpu.DetachCoverage();
    const HttpBodyView view = HttpcamdBodyView(input);
    FillFromServiceOutcome(outcome, &result, map, cpu.events(), view.body_len,
                           view.body_len > adapt::HttpCamd::kBufSize);
    map.AddFeature(vm::CoverageLocation(kClaimSalt ^ SizeBucket(view.claimed)));
    if (result.kind != ExecResult::Kind::kBenign) {
      result.stack = StackContext(*sys_);
      if (Reboot().ok()) ++reboots_;
    }
    return result;
  }

  util::Status Init() override {
    CONNLAB_RETURN_IF_ERROR(BootSystem());
    ReattachService();
    CaptureSnapshot();
    return util::OkStatus();
  }

  void ReattachService() override {
    service_ = std::make_unique<adapt::HttpCamd>(*sys_);
  }

 private:
  std::unique_ptr<adapt::HttpCamd> service_;
};

// ------------------------------------------------------------------ resolvd --

class ResolvdTarget : public BootedTarget {
 public:
  static util::Result<std::unique_ptr<FuzzTarget>> Make(
      const TargetConfig& config) {
    auto target = std::make_unique<ResolvdTarget>(config);
    CONNLAB_RETURN_IF_ERROR(target->Init());
    return std::unique_ptr<FuzzTarget>(std::move(target));
  }

  explicit ResolvdTarget(const TargetConfig& config) : BootedTarget(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "adapt::resolvd";
  }
  [[nodiscard]] std::size_t fixed_prefix() const noexcept override {
    // Only the header survives untouched: the question *name* is the whole
    // attack surface, so the label/pointer mutators must reach it.
    return dns::kHeaderSize;
  }
  [[nodiscard]] bool dns_shaped() const noexcept override { return true; }

  [[nodiscard]] std::vector<util::Bytes> SeedCorpus() const override {
    std::vector<util::Bytes> seeds;
    seeds.push_back(dns::Encode(dns::Message::Query(0x7264, kQName)).value());
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

  ExecResult Execute(util::ByteSpan input, CoverageMap& map) override {
    ExecResult result;
    auto& cpu = *sys_->cpu;
    cpu.ClearEvents();
    map.AttachTo(cpu);
    cpu.ResetCoverageEdge();
    const adapt::ServiceOutcome outcome = service_->HandleQuery(input);
    cpu.DetachCoverage();
    FillFromServiceOutcome(outcome, &result, map, cpu.events(),
                           service_->last_expanded(),
                           /*overflow=*/false);
    // The recursion-depth gradient: deeper expansions are new coverage, so
    // the corpus walks toward (and finally off) the stack cliff.
    map.AddFeature(vm::CoverageLocation(kDepthSalt ^
                                        SizeBucket(service_->last_hops())));
    if (result.kind != ExecResult::Kind::kBenign) {
      result.stack = StackContext(*sys_);
      if (Reboot().ok()) ++reboots_;
    }
    return result;
  }

  util::Status Init() override {
    CONNLAB_RETURN_IF_ERROR(BootSystem());
    ReattachService();
    CaptureSnapshot();
    return util::OkStatus();
  }

  void ReattachService() override {
    service_ = std::make_unique<adapt::Resolvd>(*sys_);
  }

 private:
  static constexpr std::uint32_t kDepthSalt = 0x00d3e970u;
  static constexpr const char* kQName = "printer.office.lan";

  std::unique_ptr<adapt::Resolvd> service_;
};

// ---------------------------------------------------------------- camstored --

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

class CamstoredTarget : public BootedTarget {
 public:
  static util::Result<std::unique_ptr<FuzzTarget>> Make(
      const TargetConfig& config) {
    auto target = std::make_unique<CamstoredTarget>(config);
    CONNLAB_RETURN_IF_ERROR(target->Init());
    return std::unique_ptr<FuzzTarget>(std::move(target));
  }

  explicit CamstoredTarget(const TargetConfig& config) : BootedTarget(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "adapt::camstored";
  }
  [[nodiscard]] std::size_t fixed_prefix() const noexcept override { return 0; }
  [[nodiscard]] bool dns_shaped() const noexcept override { return false; }
  [[nodiscard]] bool stateful_across_execs() const noexcept override {
    return true;
  }

  [[nodiscard]] std::vector<util::Bytes> SeedCorpus() const override {
    // The benign protocol: store two adjacent records, read, delete one.
    // The daemon keeps heap state *across* executions (until a corrupting
    // run reboots it), so the fuzzer composes multi-request heap shapes
    // for free; the seeds park it next to the size-mismatch cliff.
    std::vector<util::Bytes> seeds;
    seeds.push_back(
        adapt::Camstored::WrapInPut(util::Bytes(56, 'a'), "snap", 64));
    seeds.push_back(
        adapt::Camstored::WrapInPut(util::Bytes(180, 'b'), "clip", 200));
    seeds.push_back(util::BytesOf("GET /cache/snap HTTP/1.0\r\n\r\n"));
    seeds.push_back(adapt::Camstored::WrapInDelete("snap"));
    return seeds;
  }

  ExecResult Execute(util::ByteSpan input, CoverageMap& map) override {
    ExecResult result;
    auto& cpu = *sys_->cpu;
    cpu.ClearEvents();
    map.AttachTo(cpu);
    cpu.ResetCoverageEdge();
    const adapt::ServiceOutcome outcome = service_->HandleRequest(input);
    cpu.DetachCoverage();
    const CacheSizeView view = CamstoredSizeView(input);
    FillFromServiceOutcome(outcome, &result, map, cpu.events(),
                           view.content_length, view.mismatch);
    map.AddFeature(
        vm::CoverageLocation(kRecordSalt ^ SizeBucket(view.record_size)));
    // Allocator-shape features: split/coalesce counts change only when an
    // input exercised a new heap path.
    const heap::GuestHeap::Stats& stats = service_->heap().stats();
    map.AddFeature(vm::CoverageLocation(
        kHeapSalt ^ SizeBucket(static_cast<std::uint32_t>(stats.coalesces))));
    if (result.kind != ExecResult::Kind::kBenign) {
      result.stack = StackContext(*sys_);
      if (Reboot().ok()) ++reboots_;
    }
    return result;
  }

  util::Status Init() override {
    CONNLAB_RETURN_IF_ERROR(BootSystem());
    ReattachService();
    CaptureSnapshot();
    return util::OkStatus();
  }

  void ReattachService() override {
    service_ = std::make_unique<adapt::Camstored>(*sys_);
  }

 private:
  static constexpr std::uint32_t kRecordSalt = 0x00ca54edu;
  static constexpr std::uint32_t kHeapSalt = 0x0077ea90u;

  std::unique_ptr<adapt::Camstored> service_;
};

}  // namespace

std::string_view TargetKindName(TargetKind kind) noexcept {
  switch (kind) {
    case TargetKind::kDnsproxy: return "dnsproxy";
    case TargetKind::kMinimasq: return "minimasq";
    case TargetKind::kHttpcamd: return "httpcamd";
    case TargetKind::kResolvd: return "resolvd";
    case TargetKind::kCamstored: return "camstored";
  }
  return "?";
}

util::Result<TargetKind> ParseTargetKind(std::string_view name) {
  if (name == "dnsproxy") return TargetKind::kDnsproxy;
  if (name == "minimasq") return TargetKind::kMinimasq;
  if (name == "httpcamd") return TargetKind::kHttpcamd;
  if (name == "resolvd") return TargetKind::kResolvd;
  if (name == "camstored") return TargetKind::kCamstored;
  return util::InvalidArgument("unknown fuzz target: " + std::string(name));
}

util::Result<std::unique_ptr<FuzzTarget>> MakeTarget(
    const TargetConfig& config) {
  switch (config.kind) {
    case TargetKind::kDnsproxy: return DnsproxyTarget::Make(config);
    case TargetKind::kMinimasq: return MinimasqTarget::Make(config);
    case TargetKind::kHttpcamd: return HttpcamdTarget::Make(config);
    case TargetKind::kResolvd: return ResolvdTarget::Make(config);
    case TargetKind::kCamstored: return CamstoredTarget::Make(config);
  }
  return util::InvalidArgument("unknown fuzz target kind");
}

}  // namespace connlab::fuzz
