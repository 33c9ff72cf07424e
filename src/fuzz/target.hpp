// FuzzTarget: one instrumented service under fuzz.
//
// A target owns a booted System plus the service object (DnsProxy or one of
// the adapt:: zoo services), executes one input per Execute() call with the
// caller's coverage bitmap attached to the CPU, classifies the result, and
// reboots itself after any execution that corrupted guest state (a real
// fuzzing harness would fork a fresh process; we restore a post-boot
// snapshot — fork-server style — or fall back to a full re-Boot when
// fast_reset is off). The per-kind facts the mutation engine needs (how
// many leading bytes are the harness-fixed header/question echo, whether
// DNS-structure mutators apply) are data: TraitsOf(kind).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fuzz/coverage.hpp"
#include "src/mem/segment.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"
#include "src/vm/cpu.hpp"

namespace connlab::loader {
struct Snapshot;
struct System;
}  // namespace connlab::loader

namespace connlab::fuzz {

/// Which service to fuzz.
enum class TargetKind : std::uint8_t {
  kDnsproxy,   // connman::DnsProxy (CVE-2017-12865 path)
  kMinimasq,   // adapt::Minimasq (dnsmasq-flavoured overflow)
  kHttpcamd,   // adapt::HttpCamd (HTTP body overflow)
  kResolvd,    // adapt::Resolvd (compression-pointer loop)
  kCamstored,  // adapt::Camstored (heap-metadata overwrite)
};

/// What the fuzz loop, the mutation engine and the examples know about a
/// kind of target without booting one.
struct TargetTraits {
  TargetKind kind;
  std::string_view id;    // "dnsproxy": the CLI and reproducer spelling
  std::string_view name;  // "connman::dnsproxy": the service
  /// Leading bytes every input must keep verbatim to get past the
  /// service's header sanity checks (transaction-id + question echo for
  /// DNS targets; 0 when the whole input is fair game).
  std::size_t fixed_prefix;
  /// Whether the DNS-structure mutators (label surgery, compression
  /// pointers, count bumps) apply to this target's inputs.
  bool dns_shaped;
  /// True when the service keeps guest state across executions (e.g. a
  /// daemon whose heap survives benign requests). Crashes in such targets
  /// are sequence properties: a single witness input need not reproduce on
  /// a freshly booted instance, so single-input replay is not a validity
  /// check for them.
  bool stateful_across_execs;
};

const TargetTraits& TraitsOf(TargetKind kind) noexcept;
std::string_view TargetKindName(TargetKind kind) noexcept;
util::Result<TargetKind> ParseTargetKind(std::string_view name);

struct TargetConfig {
  TargetKind kind = TargetKind::kDnsproxy;
  isa::Arch arch = isa::Arch::kVX86;
  /// Boot seed: same seed => identical process image (ASLR off by default
  /// so reproducers replay across runs).
  std::uint64_t boot_seed = 1;
  /// For the dnsproxy target: fuzz the vulnerable 1.34 build by default;
  /// flip to fuzz the patched build (regression mode: expect NO crashes).
  bool patched = false;
  /// Reboot after a corrupting execution by restoring a post-boot snapshot
  /// (fork-server style) instead of re-running the loader. Off = full
  /// re-Boot per corruption, the legacy baseline for the differential gate.
  bool fast_reset = true;
  /// Execution tier and restore mode of the target's System (every boot and
  /// every snapshot restore of the campaign).
  vm::ExecConfig exec;
};

/// What one execution did, reduced to what the fuzz loop and the triage
/// layer need. `stack` holds return-address-looking words found near the
/// stop sp (text addresses only) — the triage bucket's frame context.
struct ExecResult {
  enum class Kind : std::uint8_t {
    kBenign,    // parsed / served / rejected cleanly; daemon fine
    kCrash,     // segfault-equivalent
    kAbort,     // canary / CFI abort
    kHijack,    // shell or foreign exec — control flow captured
    kOther,     // step limit, unexpected halt, harness error
  };
  Kind kind = Kind::kBenign;
  vm::StopReason stop_reason = vm::StopReason::kRunning;
  mem::GuestAddr pc = 0;          // pc at stop (crash site or junk target)
  bool write_fault = false;       // faulting access was a write
  std::uint32_t bytes_expanded = 0;  // name/body bytes written by the parser
  bool overflow = false;          // expansion exceeded the target's buffer
  std::vector<mem::GuestAddr> stack;  // text-segment words near sp
  std::string detail;
};

/// One booted service under fuzz. This class owns the boot, the overflow
/// site's symbols, the post-boot snapshot, every reboot and the one
/// Execute. Each kind of service supplies only its seed inputs, how it
/// attaches to a fresh or restored System, and one delivery call.
class FuzzTarget {
 public:
  virtual ~FuzzTarget();
  FuzzTarget(const FuzzTarget&) = delete;
  FuzzTarget& operator=(const FuzzTarget&) = delete;

  [[nodiscard]] std::size_t fixed_prefix() const noexcept {
    return TraitsOf(config_.kind).fixed_prefix;
  }
  [[nodiscard]] bool dns_shaped() const noexcept {
    return TraitsOf(config_.kind).dns_shaped;
  }
  [[nodiscard]] bool stateful_across_execs() const noexcept {
    return TraitsOf(config_.kind).stateful_across_execs;
  }

  /// Benign inputs that exercise the parser without crashing it.
  [[nodiscard]] std::vector<util::Bytes> SeedCorpus() const { return seeds_; }

  /// Runs one input; edge coverage and semantic features land in `map`.
  /// The CPU's event log is cleared first, so no feature comes from an
  /// earlier execution's events.
  ExecResult Execute(util::ByteSpan input, CoverageMap& map);

  /// Normalises a crash pc for bucketing: pcs inside the known overflow
  /// copy routine collapse to its entry, pcs outside any text segment
  /// (wild jumps through a smashed frame) collapse to a sentinel.
  [[nodiscard]] mem::GuestAddr NormalizePc(mem::GuestAddr pc) const;

  /// True when `pc` (already normalised or not) is inside the overflow
  /// copy site — the CVE's signature location.
  [[nodiscard]] bool AtOverflowSite(mem::GuestAddr pc) const;

  /// Total reboots performed (diagnostics; a crash-heavy campaign pays
  /// one Boot per crash).
  [[nodiscard]] std::uint64_t reboots() const noexcept { return reboots_; }

  /// One input's trip through the service, in the terms Execute needs.
  struct Delivery {
    ExecResult::Kind kind = ExecResult::Kind::kOther;
    std::uint32_t outcome = 0;  // the service's own outcome kind: a feature
    vm::StopInfo stop;
    std::string detail;
    std::uint32_t size = 0;     // the size signal: bytes the parser wrote
    bool overflow = false;      // the size signal passed the buffer
    /// A benign-looking execution that still left guest state corrupt.
    /// Every other kind reboots anyway.
    bool corrupted = false;
    /// Service-specific features: gradients the edge map cannot see.
    std::array<std::uint32_t, 2> features{};
    std::size_t feature_count = 0;
  };

 protected:
  FuzzTarget(const TargetConfig& config, std::vector<util::Bytes> seeds);

 private:
  friend util::Result<std::unique_ptr<FuzzTarget>> MakeTarget(
      const TargetConfig& config);

  /// Creates the host-side service object against a freshly booted or
  /// snapshot-restored System. Every service constructor reads only the
  /// System (DnsProxy also registers an idempotent host function; Camstored
  /// formats its heap arena only when guest memory holds none), so
  /// recreating it clears host caches and pending tables exactly as a fresh
  /// boot would.
  virtual void Attach(loader::System& sys) = 0;

  /// Hands `input` to the service. An error is a harness failure: nothing
  /// ran, so Execute reports kOther and folds no features.
  virtual util::Result<Delivery> Deliver(util::ByteSpan input) = 0;

  /// Loader, overflow-site symbols, Attach, then (fast_reset) the post-boot
  /// snapshot later reboots restore.
  util::Status Boot();
  util::Status Reboot();

  TargetConfig config_;
  std::vector<util::Bytes> seeds_;
  std::unique_ptr<loader::System> sys_;
  std::unique_ptr<loader::Snapshot> snapshot_;
  mem::GuestAddr get_name_ = 0;
  mem::GuestAddr copy_entry_ = 0;
  mem::GuestAddr copy_done_ = 0;
  std::uint64_t reboots_ = 0;
};

/// Sentinel NormalizePc returns for a pc outside every text mapping.
inline constexpr mem::GuestAddr kWildPc = 0xFFFFFFFFu;

util::Result<std::unique_ptr<FuzzTarget>> MakeTarget(const TargetConfig& config);

}  // namespace connlab::fuzz
