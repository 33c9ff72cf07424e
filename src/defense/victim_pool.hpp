// A pool of diversified victim boots for population-scale campaigns.
//
// The fleet simulator boots millions of victims, but a population only has
// as many *distinct* memory layouts as its diversity entropy allows: with b
// bits of boot-seed entropy there are 2^b variants, and every victim is a
// snapshot-restore of one of them. The pool makes that explicit: a "lane"
// is one real loader::Boot of (variant seed, policy) kept alive with its
// snapshot, a per-victim boot is a dirty-page RestoreSnapshot on its lane
// (~sub-microsecond), and exploit deliveries against a lane are memoized —
// the same snapshot fed the same wire bytes is deterministic, so only the
// first victim on a lane pays the guest-code cost.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/connman/dnsproxy.hpp"
#include "src/defense/mitigation.hpp"
#include "src/isa/isa.hpp"
#include "src/loader/boot.hpp"
#include "src/loader/snapshot.hpp"
#include "src/util/bytes.hpp"
#include "src/util/status.hpp"

namespace connlab::defense {

class VictimPool {
 public:
  struct Config {
    isa::Arch arch = isa::Arch::kVX86;
    loader::ProtectionConfig base;       // population-wide baseline
    std::uint64_t seed0 = 1;             // variant v boots at seed0 + v
    connman::Version version = connman::Version::k134;
  };

  struct VolleyOutcome {
    connman::ProxyOutcome::Kind kind = connman::ProxyOutcome::Kind::kOther;
    bool shell = false;    // exploit got its shell (compromise)
    bool crashed = false;  // DoS: the device went down
    bool trapped = false;  // a mitigation fired (abort / CFI / parse reject)
  };

  /// Which guest daemon FireServiceVolley constructs over the lane. The
  /// dnsproxy path keeps its dedicated FireVolley (query + raced response);
  /// the target-zoo daemons take a plain request sequence instead.
  enum class ServiceKind : std::uint8_t {
    kResolvd,    // pointer-loop name expander (adapt::Resolvd)
    kCamstored,  // heap-backed cache daemon (adapt::Camstored)
  };

  struct Stats {
    std::uint64_t lanes = 0;        // real boots: distinct (variant, policy)
    std::uint64_t restores = 0;     // per-victim snapshot restores
    std::uint64_t evaluations = 0;  // real guest-code volley runs
    std::uint64_t memo_hits = 0;    // deliveries answered from the memo
  };

  explicit VictimPool(Config config) : config_(config) {}

  VictimPool(const VictimPool&) = delete;
  VictimPool& operator=(const VictimPool&) = delete;

  /// Boots this victim: lazily materialises the (variant, policy) lane on
  /// first use, then restores its snapshot. Records the restore cost in the
  /// `loader.restore_cost` histogram (nanoseconds).
  util::Status BootVictim(std::uint32_t variant, const DefensePolicy& policy);

  /// Boots the victim, then fires `query_wire` + `response_wire` through a
  /// fresh proxy attached to it. Memoized on (variant, policy, volley_id);
  /// pass `bypass_memo` to force a real guest-code run (tests use this to
  /// check the memo's honesty). Real runs record `vm.exec_latency` (ns).
  util::Result<VolleyOutcome> FireVolley(std::uint32_t variant,
                                         const DefensePolicy& policy,
                                         std::uint64_t volley_id,
                                         const util::Bytes& query_wire,
                                         const util::Bytes& response_wire,
                                         bool bypass_memo = false);

  /// Boots the victim, constructs `service` over the restored lane (a fresh
  /// daemon on a freshly-restored device, exactly like FireVolley's fresh
  /// proxy), and feeds `requests` in order — the groom sequence plus the
  /// trigger. The first non-OK outcome ends the run: a device that dies
  /// mid-groom is down, there is nobody left to parse the rest. Memoized on
  /// (variant, policy, volley_id) like FireVolley; callers must hand distinct
  /// volley_ids to distinct request sequences.
  util::Result<VolleyOutcome> FireServiceVolley(
      std::uint32_t variant, const DefensePolicy& policy,
      std::uint64_t volley_id, ServiceKind service,
      const std::vector<util::Bytes>& requests, bool bypass_memo = false);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Lane {
    std::unique_ptr<loader::System> sys;
    loader::Snapshot snap;
  };

  static std::uint64_t LaneKey(std::uint32_t variant,
                               const DefensePolicy& policy) noexcept {
    return (static_cast<std::uint64_t>(variant) << 32) | policy.Key();
  }

  util::Result<Lane*> GetLane(std::uint32_t variant,
                              const DefensePolicy& policy);

  Config config_;
  std::map<std::uint64_t, Lane> lanes_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, VolleyOutcome> memo_;
  Stats stats_;
};

}  // namespace connlab::defense
