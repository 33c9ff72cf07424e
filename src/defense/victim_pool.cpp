#include "src/defense/victim_pool.hpp"

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
  auto it = lanes_.find(key);
  if (it == lanes_.end()) {
    CONNLAB_ASSIGN_OR_RETURN(
        auto sys, policy.BootHardened(
                      config_.arch, config_.base,
                      config_.seed0 + static_cast<std::uint64_t>(variant)));
    Lane lane;
    lane.sys = std::move(sys);
    lane.snap = loader::TakeSnapshot(*lane.sys);
    it = lanes_.emplace(key, std::move(lane)).first;
    ++stats_.lanes;
    OBS_COUNT("fleet.lanes_booted");
  }
  return &it->second;
}

util::Status VictimPool::BootVictim(std::uint32_t variant,
                                    const DefensePolicy& policy) {
  CONNLAB_ASSIGN_OR_RETURN(Lane * lane, GetLane(variant, policy));
  const auto start = std::chrono::steady_clock::now();
  CONNLAB_RETURN_IF_ERROR(loader::RestoreSnapshot(*lane->sys, lane->snap));
  OBS_HISTOGRAM("loader.restore_cost", ElapsedNs(start));
  ++stats_.restores;
  return util::OkStatus();
}

util::Result<VictimPool::VolleyOutcome> VictimPool::FireVolley(
    std::uint32_t variant, const DefensePolicy& policy, std::uint64_t volley_id,
    const util::Bytes& query_wire, const util::Bytes& response_wire,
    bool bypass_memo) {
  const auto memo_key = std::make_pair(LaneKey(variant, policy), volley_id);
  if (!bypass_memo) {
    auto hit = memo_.find(memo_key);
    if (hit != memo_.end()) {
      ++stats_.memo_hits;
      return hit->second;
    }
  }

  CONNLAB_RETURN_IF_ERROR(BootVictim(variant, policy));
  CONNLAB_ASSIGN_OR_RETURN(Lane * lane, GetLane(variant, policy));

  // A fresh proxy per delivery clears host-side pending state, exactly like
  // the freshly-rebooted device it models.
  connman::DnsProxy proxy(*lane->sys, config_.version);
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes fwd, proxy.AcceptClientQuery(query_wire));
  (void)fwd;

  const auto start = std::chrono::steady_clock::now();
  const connman::ProxyOutcome outcome =
      proxy.HandleServerResponse(response_wire);
  OBS_HISTOGRAM("vm.exec_latency", ElapsedNs(start));
  ++stats_.evaluations;

  using Kind = connman::ProxyOutcome::Kind;
  VolleyOutcome result;
  result.kind = outcome.kind;
  result.shell = outcome.kind == Kind::kShell;
  result.crashed = outcome.kind == Kind::kCrash;
  result.trapped = outcome.kind == Kind::kAbort ||
                   outcome.kind == Kind::kCfiViolation ||
                   outcome.kind == Kind::kParseError;
  memo_[memo_key] = result;
  return result;
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
  const auto memo_key = std::make_pair(LaneKey(variant, policy), salted_id);
  if (!bypass_memo) {
    auto hit = memo_.find(memo_key);
    if (hit != memo_.end()) {
      ++stats_.memo_hits;
      return hit->second;
    }
  }

  CONNLAB_RETURN_IF_ERROR(BootVictim(variant, policy));
  CONNLAB_ASSIGN_OR_RETURN(Lane * lane, GetLane(variant, policy));

  const auto start = std::chrono::steady_clock::now();
  adapt::ServiceOutcome outcome;
  switch (service) {
    case ServiceKind::kResolvd: {
      adapt::Resolvd daemon(*lane->sys);
      for (const util::Bytes& wire : requests) {
        outcome = daemon.HandleQuery(wire);
        if (outcome.kind != adapt::ServiceOutcome::Kind::kOk) break;
      }
      break;
    }
    case ServiceKind::kCamstored: {
      adapt::Camstored daemon(*lane->sys);
      for (const util::Bytes& wire : requests) {
        outcome = daemon.HandleRequest(wire);
        if (outcome.kind != adapt::ServiceOutcome::Kind::kOk) break;
      }
      break;
    }
  }
  OBS_HISTOGRAM("vm.exec_latency", ElapsedNs(start));
  ++stats_.evaluations;

  VolleyOutcome result;
  result.kind = adapt::ToProxyOutcomeKind(outcome.kind);
  result.shell = outcome.kind == adapt::ServiceOutcome::Kind::kShell;
  result.crashed = outcome.kind == adapt::ServiceOutcome::Kind::kCrash;
  result.trapped = outcome.kind == adapt::ServiceOutcome::Kind::kAbort;
  memo_[memo_key] = result;
  return result;
}

}  // namespace connlab::defense
