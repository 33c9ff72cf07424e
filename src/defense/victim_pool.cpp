#include "src/defense/victim_pool.hpp"

#include <algorithm>
#include <chrono>

#include "src/adapt/camstored.hpp"
#include "src/adapt/resolvd.hpp"
#include "src/obs/obs.hpp"

namespace connlab::defense {
namespace {

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

util::Result<VictimPool::Lane*> VictimPool::GetLane(
    std::uint32_t variant, const DefensePolicy& policy) {
  const std::uint64_t key = LaneKey(variant, policy);
  if (Lane** lane = lane_index_.Find(key)) return *lane;
  CONNLAB_ASSIGN_OR_RETURN(
      auto sys, policy.BootHardened(
                    config_.arch, config_.base,
                    config_.seed0 + static_cast<std::uint64_t>(variant)));
  Lane& lane = lanes_.emplace_back();
  lane.sys = std::move(sys);
  lane.snap = loader::TakeSnapshot(*lane.sys);
  lane_index_.Insert(key, &lane);
  ++stats_.lanes;
  OBS_COUNT("fleet.lanes_booted");
  return &lane;
}

util::Status VictimPool::Restore(Lane& lane) {
  const auto start = std::chrono::steady_clock::now();
  CONNLAB_RETURN_IF_ERROR(loader::RestoreSnapshot(*lane.sys, lane.snap));
  OBS_HISTOGRAM("loader.restore_cost", ElapsedNs(start));
  ++stats_.restores;
  return util::OkStatus();
}

util::Status VictimPool::BootVictim(std::uint32_t variant,
                                    const DefensePolicy& policy) {
  CONNLAB_ASSIGN_OR_RETURN(Lane * lane, GetLane(variant, policy));
  return Restore(*lane);
}

VictimPool::VolleyOutcome VictimPool::VolleyOutcome::Of(
    connman::ProxyOutcome::Kind kind) noexcept {
  using Kind = connman::ProxyOutcome::Kind;
  VolleyOutcome result;
  result.kind = kind;
  result.shell = kind == Kind::kShell;
  result.crashed = kind == Kind::kCrash;
  result.trapped = kind == Kind::kAbort || kind == Kind::kCfiViolation ||
                   kind == Kind::kParseError;
  return result;
}

template <typename Deliver>
util::Result<VictimPool::VolleyOutcome> VictimPool::Evaluate(
    std::uint32_t variant, const DefensePolicy& policy, std::uint64_t memo_id,
    bool bypass_memo, Deliver deliver) {
  CONNLAB_ASSIGN_OR_RETURN(Lane * lane, GetLane(variant, policy));
  auto memo = std::find_if(lane->memo.begin(), lane->memo.end(),
                           [&](const auto& entry) {
                             return entry.first == memo_id;
                           });
  if (!bypass_memo && memo != lane->memo.end()) {
    ++stats_.memo_hits;
    return memo->second;
  }

  CONNLAB_RETURN_IF_ERROR(Restore(*lane));
  const auto start = std::chrono::steady_clock::now();
  CONNLAB_ASSIGN_OR_RETURN(const connman::ProxyOutcome::Kind kind,
                           deliver(*lane->sys));
  OBS_HISTOGRAM("vm.exec_latency", ElapsedNs(start));
  ++stats_.evaluations;

  const VolleyOutcome result = VolleyOutcome::Of(kind);
  if (memo != lane->memo.end()) {
    memo->second = result;
  } else {
    lane->memo.emplace_back(memo_id, result);
  }
  return result;
}

util::Result<VictimPool::VolleyOutcome> VictimPool::FireVolley(
    std::uint32_t variant, const DefensePolicy& policy, std::uint64_t volley_id,
    const util::Bytes& query_wire, const util::Bytes& response_wire,
    bool bypass_memo) {
  return Evaluate(
      variant, policy, volley_id, bypass_memo,
      [&](loader::System& sys) -> util::Result<connman::ProxyOutcome::Kind> {
        // A fresh proxy per delivery clears host-side pending state,
        // exactly like the freshly-rebooted device it models.
        connman::DnsProxy proxy(sys, config_.version);
        CONNLAB_ASSIGN_OR_RETURN(util::Bytes fwd,
                                 proxy.AcceptClientQuery(query_wire));
        (void)fwd;
        return proxy.HandleServerResponse(response_wire).kind;
      });
}

util::Result<VictimPool::VolleyOutcome> VictimPool::FireServiceVolley(
    std::uint32_t variant, const DefensePolicy& policy, std::uint64_t volley_id,
    ServiceKind service, const std::vector<util::Bytes>& requests,
    bool bypass_memo) {
  // Salt the service into the id's top bits so resolvd, camstored, and the
  // dnsproxy volleys of FireVolley (which keeps the top bits zero) can
  // never share a memo slot even at identical (lane, volley_id)
  // coordinates.
  const std::uint64_t salted_id =
      volley_id | (static_cast<std::uint64_t>(service) + 1) << 56;
  return Evaluate(
      variant, policy, salted_id, bypass_memo,
      [&](loader::System& sys) -> util::Result<connman::ProxyOutcome::Kind> {
        adapt::ServiceOutcome outcome;
        switch (service) {
          case ServiceKind::kResolvd: {
            adapt::Resolvd daemon(sys);
            for (const util::Bytes& wire : requests) {
              outcome = daemon.HandleQuery(wire);
              if (outcome.kind != adapt::ServiceOutcome::Kind::kOk) break;
            }
            break;
          }
          case ServiceKind::kCamstored: {
            adapt::Camstored daemon(sys);
            for (const util::Bytes& wire : requests) {
              outcome = daemon.HandleRequest(wire);
              if (outcome.kind != adapt::ServiceOutcome::Kind::kOk) break;
            }
            break;
          }
        }
        return adapt::ToProxyOutcomeKind(outcome.kind);
      });
}

}  // namespace connlab::defense
