// The simulated Connman dnsproxy: the paper's attack surface.
//
// Faithfully re-implements the dnsproxy.c response path against *guest*
// memory: the response header must look legitimate (id echo, QR, question
// echo) or the packet is dumped; then parse_response expands each answer's
// owner name into the 1024-byte `name` stack buffer via get_name — with the
// CVE-2017-12865 unchecked copy in the 1.34 build, or the 1.35 size check —
// caches A/AAAA answers, runs the parse_rr quirks (see frame.hpp), checks
// the canary if the build has one, and finally *returns through the guest
// stack*: the saved registers and return address are loaded from the frame
// and the CPU interpreter takes over. A clean return reaches the
// connman.resume_ok sentinel; a smashed frame goes wherever the attacker
// pointed it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/connman/cache.hpp"
#include "src/connman/frame.hpp"
#include "src/dns/message.hpp"
#include "src/loader/boot.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"
#include "src/vm/cpu.hpp"

namespace connlab::connman {

enum class Version : std::uint8_t {
  k134,  // <= 1.34: vulnerable (no bound check in get_name)
  k135,  // 1.35: patched (size check added August 2017)
};

std::string_view VersionName(Version v) noexcept;

struct ProxyOutcome {
  enum class Kind : std::uint8_t {
    kDroppedInvalid,  // failed header/question sanity checks ("bad response")
    kParseError,      // parser rejected the record (patched path, truncation)
    kParsedOk,        // benign: cached + forwarded to the client
    kCrash,           // SIGSEGV-equivalent (DoS)
    kShell,           // root shell spawned (RCE)
    kExec,            // some other program exec'd
    kAbort,           // canary / fortify abort
    kCfiViolation,    // shadow-stack CFI rejected a return target
    kOther,           // anything else (step limit, unexpected halt)
  };

  Kind kind = Kind::kOther;
  std::string detail;
  vm::StopInfo stop;                    // final CPU state (when the CPU ran)
  std::vector<CacheEntry> cached;      // entries added this response
  util::Bytes reply_to_client;         // forwarded wire bytes when benign
  std::uint32_t name_bytes_written = 0;  // get_name expansion volume
  bool overflowed = false;             // expansion exceeded the 1024 buffer

  [[nodiscard]] std::string ToString() const;
};

std::string_view OutcomeKindName(ProxyOutcome::Kind kind) noexcept;

class DnsProxy {
 public:
  /// Attaches to a booted system. The proxy does not own the System; one
  /// System hosts one proxy (it claims the parse_response stack area).
  DnsProxy(loader::System& sys, Version version);

  DnsProxy(const DnsProxy&) = delete;
  DnsProxy& operator=(const DnsProxy&) = delete;

  /// A query arriving from a local client. Registers it as pending and
  /// returns the bytes to forward to the configured upstream server.
  util::Result<util::Bytes> AcceptClientQuery(util::ByteSpan wire);

  /// A response arriving from the upstream server: the vulnerable path.
  ProxyOutcome HandleServerResponse(util::ByteSpan wire);

  [[nodiscard]] Cache& cache() noexcept { return cache_; }
  [[nodiscard]] const FrameLayout& frame() const noexcept { return frame_; }
  [[nodiscard]] loader::System& system() noexcept { return sys_; }
  [[nodiscard]] Version version() const noexcept { return version_; }

  void set_step_budget(std::uint64_t budget) noexcept { budget_ = budget; }

  /// When true (default), each label's unchecked copy runs as interpreted
  /// guest code (the connman.copy_label routine) instead of a host-side
  /// write — the overflow and any resulting fault execute instruction by
  /// instruction. Host mode is the reference GuestCopyTest compares the
  /// guest routine against.
  void set_guest_copy(bool enabled) noexcept { guest_copy_ = enabled; }
  [[nodiscard]] bool guest_copy() const noexcept { return guest_copy_; }
  void set_now(std::uint64_t now) noexcept { now_ = now; }
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t responses = 0;
    std::uint64_t dropped = 0;
    std::uint64_t parsed_ok = 0;
    std::uint64_t crashes = 0;
    std::uint64_t shells = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    dns::Message query;
    util::Bytes question_wire;  // encoded question section, for echo check
  };

  enum class GetNameStatus : std::uint8_t {
    kOk,
    kWireError,    // ran off the packet / bad pointer
    kTooLong,      // patched bound check fired
    kGuestFault,   // guest write faulted mid-copy (ran off the stack)
  };

  GetNameStatus GetName(util::ByteSpan wire, std::size_t offset,
                        std::size_t* end_offset, std::uint32_t* name_len);
  /// Performs one label copy through the guest CPU (connman.copy_label).
  GetNameStatus GuestCopy(mem::GuestAddr dst, mem::GuestAddr src,
                          std::uint32_t len);
  util::Status PrepareFrame();
  ProxyOutcome RunEpilogueAndClassify(ProxyOutcome outcome);
  /// A fault stop for a crash the host-side parser detected in `where`,
  /// reported at that function's entry `pc`.
  vm::StopInfo SynthesizeFaultStop(const char* where, mem::GuestAddr pc);

  loader::System& sys_;
  Version version_;
  FrameLayout frame_;
  mem::GuestAddr frame_base_;
  // Guest symbols, resolved once at attach: GuestCopy and PrepareFrame run
  // per label and per response, so they must not look names up by string.
  util::Result<mem::GuestAddr> copy_label_;
  util::Result<mem::GuestAddr> copy_done_;
  util::Result<mem::GuestAddr> resume_ok_;
  // Entry pcs reported in synthesized crash/abort stops (0 when absent).
  mem::GuestAddr parse_response_pc_;
  mem::GuestAddr get_name_pc_;
  mem::GuestAddr parse_rr_pc_;
  Cache cache_;
  std::map<std::uint16_t, Pending> pending_;
  std::uint64_t now_ = 1000;
  std::uint64_t budget_ = 200000;
  bool guest_copy_ = true;
  std::optional<vm::StopInfo> guest_copy_stop_;
  Stats stats_;
};

}  // namespace connlab::connman
