#include "src/fleet/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/adapt/camstored.hpp"
#include "src/adapt/resolvd.hpp"
#include "src/attack/battery.hpp"
#include "src/defense/canary.hpp"
#include "src/exploit/generator.hpp"
#include "src/exploit/heap_smash.hpp"
#include "src/obs/obs.hpp"
#include "src/util/parallel.hpp"

namespace connlab::fleet {
namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void Fold(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffu;
    digest *= kFnvPrime;
  }
}

struct ClientState {
  ClientTraits traits;
  util::Rng rng{0};
  std::uint32_t remaining = 0;  // queries left in the current session
  bool attached = false;
  bool roamed = false;
  bool renew_scheduled = false;
  bool canary_burned = false;  // guard already brute-forced
};

std::string ClientName(std::uint32_t id) { return "c" + std::to_string(id); }

}  // namespace

std::string_view BugClassName(BugClass bug_class) noexcept {
  switch (bug_class) {
    case BugClass::kStackSmash:
      return "stack-smash";
    case BugClass::kPointerLoop:
      return "pointer-loop";
    case BugClass::kHeapMetadata:
      return "heap-metadata";
  }
  return "unknown";
}

util::Result<FleetResult> RunFleetCampaign(const FleetConfig& config) {
  if (config.victims == 0) {
    return util::InvalidArgument("victims must be positive");
  }
  if (config.max_concurrent == 0) {
    return util::InvalidArgument("max_concurrent must be positive");
  }
  if (config.population.diversity_bits < 0 ||
      config.population.diversity_bits > 8) {
    return util::InvalidArgument("diversity_bits must be in [0, 8]");
  }
  const std::uint64_t variants = 1ull << config.population.diversity_bits;
  if (config.profiled_variant >= variants) {
    return util::InvalidArgument("profiled_variant outside the variant space");
  }
  if (config.ap.lease_ttl_us == 0) {
    // Crashed and shelled devices leak their leases; without expiry a long
    // campaign wedges on a permanently exhausted pool.
    return util::InvalidArgument("fleet campaigns need a nonzero lease TTL");
  }

  OBS_TRACE_SPAN(span, "fleet", "RunFleetCampaign");
  const auto wall_start = std::chrono::steady_clock::now();

  FleetResult r;
  r.bug_class = config.bug_class;
  r.victims = config.victims;
  r.digest = kFnvOffset;

  // The attacker's lab boot IS the captured device: same variant seed, same
  // diversity setting, so the recovered addresses are that variant's — the
  // rest of the fleet is compromised only insofar as it shares them. The
  // stack class delivers through the dnsproxy (query + raced response); the
  // zoo classes deliver a plain request sequence to their daemon.
  const std::uint64_t victim_seed0 = config.seed ^ 0x9e3779b97f4a7c15ull;
  loader::ProtectionConfig lab_prot = config.base;
  if (config.population.diversity_bits > 0) {
    lab_prot.stochastic_diversity = true;
  }
  attack::VolleyBattery battery;
  std::vector<util::Bytes> service_requests;
  switch (config.bug_class) {
    case BugClass::kStackSmash: {
      const exploit::Technique technique =
          exploit::TechniqueFor(config.arch, config.base);
      CONNLAB_ASSIGN_OR_RETURN(
          battery,
          attack::BuildVolleyBattery(config.arch, lab_prot,
                                     victim_seed0 + config.profiled_variant,
                                     {technique}));
      break;
    }
    case BugClass::kPointerLoop: {
      // Pure wire bytes: no lab boot, nothing to profile.
      service_requests.push_back(adapt::Resolvd::SelfPointerQuery(0x1007));
      break;
    }
    case BugClass::kHeapMetadata: {
      // The heap plan does come from a lab boot, but every address in it is
      // allocator geometry the diversity shuffle never moves.
      CONNLAB_ASSIGN_OR_RETURN(
          auto lab, loader::Boot(config.arch, lab_prot,
                                 victim_seed0 + config.profiled_variant));
      adapt::Camstored lab_daemon(*lab);
      CONNLAB_ASSIGN_OR_RETURN(const exploit::TargetProfile profile,
                               lab_daemon.ProfileFor());
      CONNLAB_ASSIGN_OR_RETURN(const exploit::HeapUnlinkPlan plan,
                               exploit::BuildHeapUnlinkPlan(profile));
      service_requests.push_back(
          adapt::Camstored::WrapInPut(plan.benign_body, "pad",
                                      plan.groom_size));
      service_requests.push_back(adapt::Camstored::WrapInPut(
          plan.victim_body, "vic", plan.victim_size));
      service_requests.push_back(adapt::Camstored::WrapInPut(
          plan.overflow_body, "pad", plan.groom_size));
      service_requests.push_back(adapt::Camstored::WrapInDelete("vic"));
      break;
    }
  }

  defense::VictimPool::Config pool_config{config.arch, config.base,
                                          victim_seed0};
  defense::VictimPool pool(pool_config);
  // Per-victim boots restore the victim's own variant lane (its diversity
  // draw is the whole point); mitigation hardening only matters when a
  // volley is actually evaluated, so it stays off the restore path and the
  // resident-lane count is 2^b + a handful of hardened eval lanes.
  defense::DefensePolicy restore_spec;
  restore_spec.stochastic_diversity = config.population.diversity_bits > 0;
  // Every mismatched variant fails the same way — the volley's addresses
  // are stale — so one representative wrong variant stands in for all of
  // them at evaluation time. Victims on the profiled variant are evaluated
  // exactly.
  const std::uint32_t wrong_rep =
      variants > 1 ? static_cast<std::uint32_t>(
                         (config.profiled_variant + 1) & (variants - 1))
                   : 0;
  // One delivery, three shapes. The volley_id keys the pool's memo, so each
  // bug class owns a distinct id. (For the zoo classes the wrong-variant
  // collapse is exact, not an approximation: their volleys carry no
  // diversity-sensitive addresses, so every variant behaves identically.)
  const auto volley_id = static_cast<std::uint64_t>(config.bug_class);
  const auto fire = [&](std::uint32_t eval_variant,
                        const defense::DefensePolicy& spec)
      -> util::Result<defense::VictimPool::VolleyOutcome> {
    switch (config.bug_class) {
      case BugClass::kStackSmash:
        return pool.FireVolley(eval_variant, spec, volley_id,
                               battery.query_wire,
                               battery.volleys[0].response_wire);
      case BugClass::kPointerLoop:
        return pool.FireServiceVolley(
            eval_variant, spec, volley_id,
            defense::VictimPool::ServiceKind::kResolvd, service_requests);
      case BugClass::kHeapMetadata:
        return pool.FireServiceVolley(
            eval_variant, spec, volley_id,
            defense::VictimPool::ServiceKind::kCamstored, service_requests);
    }
    return util::InvalidArgument("unknown bug class");
  };
  RogueAp ap(config.ap);
  EventQueue queue;
  const util::Rng master(config.seed);
  std::unordered_map<std::uint32_t, ClientState> active;
  std::uint64_t next_client = 0;

  const SimTime ttl = config.ap.lease_ttl_us;
  const SimTime stagger =
      std::max<SimTime>(config.population.join_stagger_us, 1);
  const SimTime gap_span =
      2 * std::max<SimTime>(config.population.query_gap_us, 1);

  auto seat = [&](SimTime at) {
    if (next_client >= config.victims) return;
    const auto id = static_cast<std::uint32_t>(next_client++);
    ClientState st;
    st.rng = master.Split(id);
    st.traits = SampleTraits(config.population, st.rng);
    st.remaining = st.traits.queries;
    active.emplace(id, std::move(st));
    queue.Push({at, Event::Kind::kJoin, id});
  };
  auto retire = [&](std::uint32_t id, SimTime at) {
    active.erase(id);
    seat(at + stagger);
  };

  const std::uint64_t initial =
      std::min<std::uint64_t>(config.max_concurrent, config.victims);
  for (std::uint64_t i = 0; i < initial; ++i) {
    seat(static_cast<SimTime>(i) * stagger);
  }
  if (ttl > 0) queue.Push({ttl, Event::Kind::kHousekeep, 0});

  while (!queue.empty()) {
    const Event ev = queue.Pop();
    const SimTime now = queue.now();
    switch (ev.kind) {
      case Event::Kind::kHousekeep: {
        r.lease_expiries += ap.dhcp().ExpireLeases(now);
        if (!active.empty() || next_client < config.victims) {
          queue.Push({now + ttl, Event::Kind::kHousekeep, 0});
        }
        break;
      }

      case Event::Kind::kJoin: {
        auto it = active.find(ev.client);
        if (it == active.end()) break;
        ClientState& st = it->second;
        if (!ap.dhcp().Offer(ClientName(ev.client), now).ok()) {
          // Pool exhausted: back off half a lease and try again.
          ++r.join_retries;
          queue.Push({now + ttl / 2 + 1, Event::Kind::kJoin, ev.client});
          break;
        }
        ++r.joins;
        st.attached = true;
        // The device boots when it attaches: a dirty-page restore of its
        // diversity variant under its own sampled mitigation policy.
        CONNLAB_RETURN_IF_ERROR(
            pool.BootVictim(st.traits.variant, restore_spec));
        Fold(r.digest, (static_cast<std::uint64_t>(ev.client) << 3) | 1u);
        queue.Push({now + 1 + st.rng.NextBelow(gap_span), Event::Kind::kQuery,
                    ev.client});
        if (ttl > 0 && !st.renew_scheduled) {
          st.renew_scheduled = true;
          queue.Push(
              {now + (ttl > 1 ? ttl - 1 : 1), Event::Kind::kRenew, ev.client});
        }
        break;
      }

      case Event::Kind::kRenew: {
        auto it = active.find(ev.client);
        if (it == active.end()) break;
        ClientState& st = it->second;
        if (!st.attached) {
          // Roamed away; the next join starts a fresh renew chain.
          st.renew_scheduled = false;
          break;
        }
        if (ap.dhcp().Offer(ClientName(ev.client), now).ok()) ++r.renews;
        queue.Push(
            {now + (ttl > 1 ? ttl - 1 : 1), Event::Kind::kRenew, ev.client});
        break;
      }

      case Event::Kind::kQuery: {
        auto it = active.find(ev.client);
        if (it == active.end()) break;
        ClientState& st = it->second;
        if (!st.attached) break;
        const std::uint64_t name =
            SampleQueryName(config.population, st.rng);
        const bool raced = st.rng.NextBool(config.attack_rate);
        ++r.queries;
        if (!raced) {
          const bool hit = ap.ServeBenignQuery(name);
          Fold(r.digest, (name << 1) | (hit ? 1u : 0u));
        } else {
          ++r.deliveries;
          const std::uint32_t eval_variant =
              st.traits.variant == config.profiled_variant
                  ? st.traits.variant
                  : wrong_rep;
          defense::DefensePolicy spec = st.traits.policy;
          if (st.canary_burned) spec.canary_bits = 0;
          CONNLAB_ASSIGN_OR_RETURN(
              defense::VictimPool::VolleyOutcome outcome,
              fire(eval_variant, spec));
          using Kind = connman::ProxyOutcome::Kind;
          // A weak canary is a traffic problem, not a defense: when the
          // attacker's per-victim response budget covers the expected
          // guess count, the guard falls and the volley lands on the
          // unguarded lane (same variant, other mitigations intact). Only
          // the stack class aborts through a canary — a heap-integrity
          // abort is a different trap, and no amount of traffic guesses a
          // chunk secret the exploit never has to match.
          if (config.bug_class == BugClass::kStackSmash &&
              outcome.kind == Kind::kAbort && spec.canary_bits > 0) {
            const double expected =
                defense::StackCanary(spec.canary_bits)
                    .ExpectedBruteForceAttempts();
            if (expected <= static_cast<double>(config.brute_budget)) {
              ++r.canaries_defeated;
              r.brute_responses += static_cast<std::uint64_t>(expected);
              st.canary_burned = true;
              spec.canary_bits = 0;
              CONNLAB_ASSIGN_OR_RETURN(outcome, fire(eval_variant, spec));
            }
          }
          Fold(r.digest, (static_cast<std::uint64_t>(ev.client) << 8) |
                             static_cast<std::uint64_t>(outcome.kind));
          if (outcome.shell) {
            // Shelled: the attacker keeps the device attached; its lease
            // lapses on its own once renewals stop.
            ++r.compromised;
            OBS_COUNT("fleet.compromised");
            retire(ev.client, now);
            break;
          }
          if (outcome.crashed) {
            ++r.crashed;
            retire(ev.client, now);
            break;
          }
          if (outcome.trapped) ++r.trapped;
        }
        --st.remaining;
        if (st.remaining > 0) {
          queue.Push({now + 1 + st.rng.NextBelow(gap_span),
                      Event::Kind::kQuery, ev.client});
        } else if (st.traits.roams && !st.roamed) {
          // Roam: detach (address back to the pool) and re-attach shortly;
          // the returning client usually renumbers.
          st.roamed = true;
          st.attached = false;
          ap.dhcp().Release(ClientName(ev.client));
          ++r.roams;
          st.remaining = 1 + st.traits.queries / 2;
          queue.Push({now + 1 + st.rng.NextBelow(gap_span),
                      Event::Kind::kJoin, ev.client});
        } else {
          queue.Push({now + 1, Event::Kind::kLeave, ev.client});
        }
        break;
      }

      case Event::Kind::kLeave: {
        auto it = active.find(ev.client);
        if (it == active.end()) break;
        ap.dhcp().Release(ClientName(ev.client));
        ++r.leaves;
        Fold(r.digest, (static_cast<std::uint64_t>(ev.client) << 3) | 2u);
        retire(ev.client, now);
        break;
      }
    }
  }

  r.cache_hits = ap.cache().hits();
  r.cache_misses = ap.cache().misses();
  r.cache_evictions = ap.cache().evictions();
  r.pool = pool.stats();
  r.sim_end_us = queue.now();
  r.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  r.victims_per_sec =
      r.wall_seconds > 0.0
          ? static_cast<double>(r.victims) / r.wall_seconds
          : 0.0;
  OBS_COUNT_N("fleet.victims_simulated", r.victims);
  OBS_COUNT_N("fleet.queries", r.queries);
  OBS_COUNT_N("fleet.deliveries", r.deliveries);
  span.Arg("victims", r.victims);
  span.Arg("compromised", r.compromised);
  return r;
}

util::Result<std::vector<SurvivalPoint>> RunSurvivalSweep(
    FleetConfig config, const std::vector<int>& entropy_bits,
    std::size_t sweep_workers) {
  if (entropy_bits.empty()) {
    return util::InvalidArgument("need at least one entropy point");
  }
  // Same seed, same population, three attackers per point: every class sees
  // the identical fleet, so the per-class columns are directly comparable.
  // Each (point, class) campaign is a closed virtual-time simulation, so
  // the task list fans out across threads; results land in per-task slots
  // and the curve is assembled in point-then-class order below, making the
  // output — including which error propagates first — independent of which
  // thread finished when.
  static constexpr BugClass kSweepClasses[] = {
      BugClass::kStackSmash, BugClass::kPointerLoop, BugClass::kHeapMetadata};
  constexpr std::size_t kClassCount = std::size(kSweepClasses);
  const std::size_t tasks = entropy_bits.size() * kClassCount;
  std::vector<std::optional<util::Result<FleetResult>>> results(tasks);
  util::ParallelFor(tasks, util::ResolveWorkerCount(sweep_workers),
                    [&](std::size_t t) {
                      FleetConfig c = config;
                      c.population.diversity_bits =
                          entropy_bits[t / kClassCount];
                      c.bug_class = kSweepClasses[t % kClassCount];
                      results[t].emplace(RunFleetCampaign(c));
                    });

  std::vector<SurvivalPoint> curve;
  curve.reserve(entropy_bits.size());
  for (std::size_t p = 0; p < entropy_bits.size(); ++p) {
    for (std::size_t c = 0; c < kClassCount; ++c) {
      if (!results[p * kClassCount + c]->ok()) {
        return results[p * kClassCount + c]->status();
      }
    }
    const FleetResult& stack = results[p * kClassCount + 0]->value();
    const FleetResult& loop = results[p * kClassCount + 1]->value();
    const FleetResult& heap = results[p * kClassCount + 2]->value();
    SurvivalPoint point;
    point.diversity_bits = entropy_bits[p];
    point.victims = stack.victims;
    point.compromised = stack.compromised;
    point.crashed = stack.crashed;
    point.compromised_fraction = stack.compromised_fraction();
    point.digest = stack.digest;
    point.victims_per_sec = stack.victims_per_sec;
    point.loop_crashed = loop.crashed;
    point.loop_crashed_fraction =
        loop.victims == 0 ? 0.0
                          : static_cast<double>(loop.crashed) /
                                static_cast<double>(loop.victims);
    point.loop_digest = loop.digest;
    point.heap_compromised = heap.compromised;
    point.heap_compromised_fraction = heap.compromised_fraction();
    point.heap_crashed = heap.crashed;
    point.heap_trapped = heap.trapped;
    point.heap_digest = heap.digest;
    curve.push_back(point);
  }
  return curve;
}

}  // namespace connlab::fleet
