// FuzzTarget: one instrumented service under fuzz.
//
// A target owns a booted System plus the service object (DnsProxy,
// Minimasq, HttpCamd), executes one input per Execute() call with the
// caller's coverage bitmap attached to the CPU, classifies the result, and
// reboots itself after any execution that corrupted guest state (a real
// fuzzing harness would fork a fresh process; we restore a post-boot
// snapshot — fork-server style — or fall back to a full re-Boot when
// fast_reset is off). Targets also describe the input format to the
// mutation engine: how many leading bytes are the harness-fixed
// header/question echo, and whether DNS-structure mutators apply.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fuzz/coverage.hpp"
#include "src/mem/segment.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"
#include "src/vm/cpu.hpp"

namespace connlab::fuzz {

/// Which service to fuzz.
enum class TargetKind : std::uint8_t {
  kDnsproxy,   // connman::DnsProxy (CVE-2017-12865 path)
  kMinimasq,   // adapt::Minimasq (dnsmasq-flavoured overflow)
  kHttpcamd,   // adapt::HttpCamd (HTTP body overflow)
  kResolvd,    // adapt::Resolvd (compression-pointer loop)
  kCamstored,  // adapt::Camstored (heap-metadata overwrite)
};

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

class FuzzTarget {
 public:
  virtual ~FuzzTarget() = default;

  [[nodiscard]] virtual TargetKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Leading bytes every input must keep verbatim to get past the
  /// service's header sanity checks (transaction-id + question echo for
  /// DNS targets; 0 when the whole input is fair game).
  [[nodiscard]] virtual std::size_t fixed_prefix() const noexcept = 0;

  /// Whether the DNS-structure mutators (label surgery, compression
  /// pointers, count bumps) apply to this target's inputs.
  [[nodiscard]] virtual bool dns_shaped() const noexcept = 0;

  /// True when the service keeps guest state across executions (e.g. a
  /// daemon whose heap survives benign requests). Crashes in such targets
  /// are sequence properties: a single witness input need not reproduce on
  /// a freshly booted instance, so single-input replay is not a validity
  /// check for them.
  [[nodiscard]] virtual bool stateful_across_execs() const noexcept {
    return false;
  }

  /// Benign inputs that exercise the parser without crashing it.
  [[nodiscard]] virtual std::vector<util::Bytes> SeedCorpus() const = 0;

  /// Runs one input; edge coverage and semantic features land in `map`.
  virtual ExecResult Execute(util::ByteSpan input, CoverageMap& map) = 0;

  /// Normalises a crash pc for bucketing: pcs inside the known overflow
  /// copy routine collapse to its entry, pcs outside any text segment
  /// (wild jumps through a smashed frame) collapse to a sentinel.
  [[nodiscard]] virtual mem::GuestAddr NormalizePc(mem::GuestAddr pc) const = 0;

  /// True when `pc` (already normalised or not) is inside the overflow
  /// copy site — the CVE's signature location.
  [[nodiscard]] virtual bool AtOverflowSite(mem::GuestAddr pc) const = 0;

  /// Total reboots performed (diagnostics; a crash-heavy campaign pays
  /// one Boot per crash).
  [[nodiscard]] virtual std::uint64_t reboots() const noexcept = 0;
};

/// Sentinel NormalizePc returns for a pc outside every text mapping.
inline constexpr mem::GuestAddr kWildPc = 0xFFFFFFFFu;

util::Result<std::unique_ptr<FuzzTarget>> MakeTarget(const TargetConfig& config);

}  // namespace connlab::fuzz
