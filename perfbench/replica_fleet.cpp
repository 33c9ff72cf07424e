// Traced replica of fleet::RunFleetCampaign for the stack-smash class.
//
// The virtual-time event loop is reproduced call for call; the volley
// battery is built from the same public calls attack::BuildVolleyBattery
// makes, so lab boot, profile extraction and payload generation show up as
// their own layers in the campaign's set-up.
#include <algorithm>
#include <string>
#include <unordered_map>

#include "src/attack/battery.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/defense/canary.hpp"
#include "src/dns/craft.hpp"
#include "src/exploit/profile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

enum FleetSpan : std::uint16_t {
  kDriver,
  kQueue,
  kAp,
  kPopulation,
  kDhcp,
  kPoolBoot,
  kPoolFire,
  kBoot,
  kExtract,
  kBuild,
};

const std::vector<std::string>& FleetSpanNames() {
  static const std::vector<std::string> names = {
      "fleet.driver",      "fleet.queue",       "fleet.ap",
      "fleet.population",  "net.dhcp",          "defense.pool.boot",
      "defense.pool.fire", "loader.boot",       "exploit.extract",
      "exploit.build"};
  return names;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void Fold(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffu;
    digest *= kFnvPrime;
  }
}

struct ClientState {
  fleet::ClientTraits traits;
  util::Rng rng{0};
  std::uint32_t remaining = 0;
  bool attached = false;
  bool roamed = false;
  bool renew_scheduled = false;
  bool canary_burned = false;
};

std::string ClientName(std::uint32_t id) { return "c" + std::to_string(id); }

/// attack::BuildVolleyBattery for one technique, layer by layer.
util::Result<attack::VolleyBattery> BuildBattery(
    isa::Arch arch, const loader::ProtectionConfig& lab_prot,
    std::uint64_t lab_seed, exploit::Technique technique, Tracer& tr) {
  attack::VolleyBattery battery;
  auto lab = Traced(tr, kBoot, 0,
                    [&] { return loader::Boot(arch, lab_prot, lab_seed); });
  if (!lab.ok()) return lab.status();
  connman::DnsProxy lab_proxy(*lab.value(), connman::Version::k134);
  exploit::ProfileExtractor extractor(*lab.value(), lab_proxy);
  auto profile = Traced(tr, kExtract, 0, [&] { return extractor.Extract(); });
  if (!profile.ok()) return profile.status();
  battery.profile = std::move(profile).value();
  battery.probes = static_cast<int>(lab_proxy.stats().responses);

  const dns::Message query = dns::Message::Query(0x7E57, "target.device.lan");
  CONNLAB_ASSIGN_OR_RETURN(battery.query_wire, dns::Encode(query));

  exploit::ExploitGenerator generator(battery.profile);
  auto image = Traced(tr, kBuild, 0,
                      [&] { return generator.BuildImage(technique); });
  if (image.ok()) {
    auto labels = dns::CutIntoLabels(image.value());
    if (labels.ok()) {
      attack::Volley volley;
      volley.technique = technique;
      volley.payload_bytes = image.value().size();
      volley.labels = labels.value().size();
      dns::Message evil =
          dns::MaliciousAResponse(query, std::move(labels).value());
      CONNLAB_ASSIGN_OR_RETURN(volley.response_wire, dns::Encode(evil));
      battery.volleys.push_back(std::move(volley));
    }
  }
  if (battery.volleys.empty()) {
    return util::FailedPrecondition("no requested technique is buildable");
  }
  return battery;
}

util::Result<fleet::FleetResult> ReplicaCampaign(
    const fleet::FleetConfig& config, Tracer& tr) {
  using fleet::Event;
  using fleet::SimTime;
  Tracer::Scope driver(tr, kDriver, 0);

  fleet::FleetResult r;
  r.bug_class = config.bug_class;
  r.victims = config.victims;
  r.digest = kFnvOffset;
  const std::uint64_t variants = 1ull << config.population.diversity_bits;

  const std::uint64_t victim_seed0 = config.seed ^ 0x9e3779b97f4a7c15ull;
  loader::ProtectionConfig lab_prot = config.base;
  if (config.population.diversity_bits > 0) {
    lab_prot.stochastic_diversity = true;
  }
  CONNLAB_ASSIGN_OR_RETURN(
      attack::VolleyBattery battery,
      BuildBattery(config.arch, lab_prot,
                   victim_seed0 + config.profiled_variant,
                   exploit::TechniqueFor(config.arch, config.base), tr));

  defense::VictimPool::Config pool_config{config.arch, config.base,
                                          victim_seed0};
  defense::VictimPool pool(pool_config);
  defense::PolicySpec restore_spec;
  restore_spec.stochastic_diversity = config.population.diversity_bits > 0;
  const std::uint32_t wrong_rep =
      variants > 1 ? static_cast<std::uint32_t>(
                         (config.profiled_variant + 1) & (variants - 1))
                   : 0;
  const auto volley_id = static_cast<std::uint64_t>(config.bug_class);
  const auto fire = [&](std::uint32_t eval_variant,
                        const defense::PolicySpec& spec, std::uint32_t op) {
    return Traced(tr, kPoolFire, op, [&] {
      return pool.FireVolley(eval_variant, spec, volley_id,
                             battery.query_wire,
                             battery.volleys[0].response_wire);
    });
  };
  fleet::RogueAp ap(config.ap);
  fleet::EventQueue queue;
  const auto push = [&](const Event& event) {
    Traced(tr, kQueue, event.client, [&] { queue.Push(event); });
  };
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
    st.traits = Traced(tr, kPopulation, id, [&] {
      return fleet::SampleTraits(config.population, st.rng);
    });
    st.remaining = st.traits.queries;
    active.emplace(id, std::move(st));
    push({at, Event::Kind::kJoin, id});
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
  if (ttl > 0) push({ttl, Event::Kind::kHousekeep, 0});

  while (!queue.empty()) {
    const Event ev = Traced(tr, kQueue, 0, [&] { return queue.Pop(); });
    const SimTime now = queue.now();
    const std::uint32_t op = ev.client;
    switch (ev.kind) {
      case Event::Kind::kHousekeep: {
        r.lease_expiries += Traced(
            tr, kDhcp, op, [&] { return ap.dhcp().ExpireLeases(now); });
        if (!active.empty() || next_client < config.victims) {
          push({now + ttl, Event::Kind::kHousekeep, 0});
        }
        break;
      }

      case Event::Kind::kJoin: {
        auto it = active.find(ev.client);
        if (it == active.end()) break;
        ClientState& st = it->second;
        const bool offered = Traced(tr, kDhcp, op, [&] {
          return ap.dhcp().Offer(ClientName(ev.client), now).ok();
        });
        if (!offered) {
          ++r.join_retries;
          push({now + ttl / 2 + 1, Event::Kind::kJoin, ev.client});
          break;
        }
        ++r.joins;
        st.attached = true;
        CONNLAB_RETURN_IF_ERROR(Traced(tr, kPoolBoot, op, [&] {
          return pool.BootVictim(st.traits.variant, restore_spec);
        }));
        Fold(r.digest, (static_cast<std::uint64_t>(ev.client) << 3) | 1u);
        push({now + 1 + st.rng.NextBelow(gap_span), Event::Kind::kQuery,
              ev.client});
        if (ttl > 0 && !st.renew_scheduled) {
          st.renew_scheduled = true;
          push({now + (ttl > 1 ? ttl - 1 : 1), Event::Kind::kRenew,
                ev.client});
        }
        break;
      }

      case Event::Kind::kRenew: {
        auto it = active.find(ev.client);
        if (it == active.end()) break;
        ClientState& st = it->second;
        if (!st.attached) {
          st.renew_scheduled = false;
          break;
        }
        const bool renewed = Traced(tr, kDhcp, op, [&] {
          return ap.dhcp().Offer(ClientName(ev.client), now).ok();
        });
        if (renewed) ++r.renews;
        push({now + (ttl > 1 ? ttl - 1 : 1), Event::Kind::kRenew, ev.client});
        break;
      }

      case Event::Kind::kQuery: {
        auto it = active.find(ev.client);
        if (it == active.end()) break;
        ClientState& st = it->second;
        if (!st.attached) break;
        const std::uint64_t name = Traced(tr, kPopulation, op, [&] {
          return fleet::SampleQueryName(config.population, st.rng);
        });
        const bool raced = st.rng.NextBool(config.attack_rate);
        ++r.queries;
        if (!raced) {
          const bool hit =
              Traced(tr, kAp, op, [&] { return ap.ServeBenignQuery(name); });
          Fold(r.digest, (name << 1) | (hit ? 1u : 0u));
        } else {
          ++r.deliveries;
          const std::uint32_t eval_variant =
              st.traits.variant == config.profiled_variant
                  ? st.traits.variant
                  : wrong_rep;
          defense::PolicySpec spec = st.traits.policy;
          if (st.canary_burned) spec.canary_bits = 0;
          CONNLAB_ASSIGN_OR_RETURN(defense::VictimPool::VolleyOutcome outcome,
                                   fire(eval_variant, spec, op));
          using Kind = connman::ProxyOutcome::Kind;
          if (outcome.kind == Kind::kAbort && spec.canary_bits > 0) {
            const double expected =
                defense::StackCanary(spec.canary_bits)
                    .ExpectedBruteForceAttempts();
            if (expected <= static_cast<double>(config.brute_budget)) {
              ++r.canaries_defeated;
              r.brute_responses += static_cast<std::uint64_t>(expected);
              st.canary_burned = true;
              spec.canary_bits = 0;
              CONNLAB_ASSIGN_OR_RETURN(outcome, fire(eval_variant, spec, op));
            }
          }
          Fold(r.digest, (static_cast<std::uint64_t>(ev.client) << 8) |
                             static_cast<std::uint64_t>(outcome.kind));
          if (outcome.shell) {
            ++r.compromised;
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
          push({now + 1 + st.rng.NextBelow(gap_span), Event::Kind::kQuery,
                ev.client});
        } else if (st.traits.roams && !st.roamed) {
          st.roamed = true;
          st.attached = false;
          Traced(tr, kDhcp, op,
                 [&] { ap.dhcp().Release(ClientName(ev.client)); });
          ++r.roams;
          st.remaining = 1 + st.traits.queries / 2;
          push({now + 1 + st.rng.NextBelow(gap_span), Event::Kind::kJoin,
                ev.client});
        } else {
          push({now + 1, Event::Kind::kLeave, ev.client});
        }
        break;
      }

      case Event::Kind::kLeave: {
        auto it = active.find(ev.client);
        if (it == active.end()) break;
        Traced(tr, kDhcp, op,
               [&] { ap.dhcp().Release(ClientName(ev.client)); });
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
  return r;
}

}  // namespace

TracedRun ReplicaFleet(std::uint64_t seed) {
  TracedRun run;
  run.span_names = FleetSpanNames();
  Tracer tracer;
  tracer.Reserve(kFleetVictims * 48);

  const double start = NowSeconds();
  auto result = ReplicaCampaign(FleetConfigFor(seed, kFleetVictims), tracer);
  run.wall_seconds = NowSeconds() - start;
  run.threads.push_back(tracer.TakeSpans());

  if (!result.ok()) {
    run.campaign.status = result.status();
    run.campaign.ops = kFleetVictims;
    return run;
  }
  CheckFleet(seed, result.value(), run.campaign);
  run.campaign.seconds = run.wall_seconds;
  run.campaign.counts["pool.boot_calls"] = CountCalls(run.threads, kPoolBoot);
  run.campaign.counts["pool.fire_calls"] = CountCalls(run.threads, kPoolFire);
  return run;
}

}  // namespace perfbench
