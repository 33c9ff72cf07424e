// The fleet subsystem: the discrete-event core, population sampling, the
// rogue AP's bounded cache, the diversified victim pool, and the campaign
// driver's reproducibility contract (same seed => same digest).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/adapt/camstored.hpp"
#include "src/adapt/resolvd.hpp"
#include "src/attack/battery.hpp"
#include "src/defense/victim_pool.hpp"
#include "src/fleet/campaign.hpp"
#include "src/fleet/event_queue.hpp"
#include "src/fleet/population.hpp"
#include "src/fleet/report.hpp"
#include "src/fleet/rogue_ap.hpp"
#include "src/util/rng.hpp"

namespace connlab {
namespace {

using fleet::BoundedCache;
using fleet::Event;
using fleet::EventQueue;
using fleet::FleetConfig;
using fleet::FleetResult;
using fleet::PopulationProfile;

// --------------------------------------------------------- event queue ----

TEST(EventQueue, PopsInDeadlineOrder) {
  EventQueue queue;
  queue.Push({30, Event::Kind::kLeave, 3});
  queue.Push({10, Event::Kind::kJoin, 1});
  queue.Push({20, Event::Kind::kQuery, 2});
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop().client, 1u);
  EXPECT_EQ(queue.now(), 10u);
  EXPECT_EQ(queue.Pop().client, 2u);
  EXPECT_EQ(queue.Pop().client, 3u);
  EXPECT_EQ(queue.now(), 30u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, EqualDeadlinesAreFifo) {
  EventQueue queue;
  for (std::uint32_t i = 0; i < 100; ++i) {
    queue.Push({5, Event::Kind::kQuery, i});
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(queue.Pop().client, i);
  }
}

TEST(EventQueue, TimeNeverRunsBackwards) {
  EventQueue queue;
  queue.Push({50, Event::Kind::kJoin, 1});
  (void)queue.Pop();
  queue.Push({10, Event::Kind::kJoin, 2});  // scheduled "in the past"
  (void)queue.Pop();
  EXPECT_EQ(queue.now(), 50u);
}

// ---------------------------------------------------------- population ----

TEST(Population, SamplingIsDeterministicPerStream) {
  const PopulationProfile profile = PopulationProfile::IoTDefault();
  const util::Rng master(99);
  for (std::uint64_t client = 0; client < 32; ++client) {
    util::Rng a = master.Split(client);
    util::Rng b = master.Split(client);
    const fleet::ClientTraits ta = fleet::SampleTraits(profile, a);
    const fleet::ClientTraits tb = fleet::SampleTraits(profile, b);
    EXPECT_EQ(ta.policy.Key(), tb.policy.Key());
    EXPECT_EQ(ta.variant, tb.variant);
    EXPECT_EQ(ta.queries, tb.queries);
    EXPECT_EQ(ta.roams, tb.roams);
  }
}

TEST(Population, RespectsAdoptionRatesRoughly) {
  PopulationProfile profile;
  profile.p_canary = 0.5;
  profile.p_cfi = 0.0;
  profile.diversity_bits = 4;
  util::Rng rng(7);
  int canaried = 0;
  std::uint32_t max_variant = 0;
  for (int i = 0; i < 2000; ++i) {
    const fleet::ClientTraits t = fleet::SampleTraits(profile, rng);
    if (t.policy.canary_bits > 0) ++canaried;
    EXPECT_FALSE(t.policy.cfi);
    EXPECT_TRUE(t.policy.stochastic_diversity);
    EXPECT_LT(t.variant, 16u);
    max_variant = std::max(max_variant, t.variant);
    EXPECT_GE(t.queries, 1u);
  }
  EXPECT_GT(canaried, 800);
  EXPECT_LT(canaried, 1200);
  EXPECT_GT(max_variant, 8u);  // the variant space is actually used
}

TEST(Population, ZeroDiversityIsAMonoculture) {
  PopulationProfile profile;
  profile.diversity_bits = 0;
  util::Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    const fleet::ClientTraits t = fleet::SampleTraits(profile, rng);
    EXPECT_EQ(t.variant, 0u);
    EXPECT_FALSE(t.policy.stochastic_diversity);
  }
}

// ------------------------------------------------------- bounded cache ----

TEST(BoundedCache, EvictsOldestFirst) {
  BoundedCache cache(3);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(3);
  EXPECT_TRUE(cache.Lookup(1));
  cache.Insert(4);  // evicts 1 (FIFO, not LRU)
  EXPECT_FALSE(cache.Lookup(1));
  EXPECT_TRUE(cache.Lookup(2));
  EXPECT_TRUE(cache.Lookup(4));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(BoundedCache, NeverExceedsCapacity) {
  BoundedCache cache(8);
  for (std::uint64_t k = 0; k < 1000; ++k) cache.Insert(k);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.evictions(), 992u);
  for (std::uint64_t k = 992; k < 1000; ++k) EXPECT_TRUE(cache.Lookup(k));
}

// --------------------------------------------------------- victim pool ----

TEST(VictimPool, MemoAgreesWithFreshEvaluation) {
  // The memo must be an optimisation, not a model: the cached outcome has
  // to match what a real restore + guest-code run produces.
  FleetConfig config;  // only used for its defaults
  defense::VictimPool pool(
      {config.arch, config.base, /*seed0=*/1234});
  auto battery = attack::BuildVolleyBattery(
      config.arch, config.base, /*lab_seed=*/1234,
      {exploit::TechniqueFor(config.arch, config.base)});
  ASSERT_TRUE(battery.ok()) << battery.status().ToString();

  const defense::DefensePolicy none;
  defense::DefensePolicy cfi;
  cfi.cfi = true;
  for (const defense::DefensePolicy& spec : {none, cfi}) {
    auto first = pool.FireVolley(0, spec, 0, battery.value().query_wire,
                                 battery.value().volleys[0].response_wire);
    ASSERT_TRUE(first.ok());
    auto memoed = pool.FireVolley(0, spec, 0, battery.value().query_wire,
                                  battery.value().volleys[0].response_wire);
    auto fresh = pool.FireVolley(0, spec, 0, battery.value().query_wire,
                                 battery.value().volleys[0].response_wire,
                                 /*bypass_memo=*/true);
    ASSERT_TRUE(memoed.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(memoed.value().kind, fresh.value().kind);
    EXPECT_EQ(memoed.value().shell, fresh.value().shell);
  }
  EXPECT_EQ(pool.stats().memo_hits, 2u);
  EXPECT_GE(pool.stats().evaluations, 4u);  // 2 first + 2 bypassed
  // Matched profile, no mitigations: the volley must actually land.
  auto baseline = pool.FireVolley(0, none, 0, battery.value().query_wire,
                                  battery.value().volleys[0].response_wire);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(baseline.value().shell);
}

TEST(VictimPool, LanesAreSharedAcrossVictims) {
  FleetConfig config;
  defense::VictimPool pool({config.arch, config.base, /*seed0=*/55});
  const defense::DefensePolicy none;
  for (int victim = 0; victim < 10; ++victim) {
    ASSERT_TRUE(pool.BootVictim(0, none).ok());
  }
  EXPECT_EQ(pool.stats().lanes, 1u);
  EXPECT_EQ(pool.stats().restores, 10u);
}

TEST(VictimPool, ServiceVolleyMemoAgreesWithFreshEvaluation) {
  FleetConfig config;
  defense::VictimPool pool({config.arch, config.base, /*seed0=*/77});
  const defense::DefensePolicy none;
  const std::vector<util::Bytes> loop = {adapt::Resolvd::SelfPointerQuery(7)};
  auto first = pool.FireServiceVolley(
      0, none, 1, defense::VictimPool::ServiceKind::kResolvd, loop);
  auto memoed = pool.FireServiceVolley(
      0, none, 1, defense::VictimPool::ServiceKind::kResolvd, loop);
  auto fresh = pool.FireServiceVolley(
      0, none, 1, defense::VictimPool::ServiceKind::kResolvd, loop,
      /*bypass_memo=*/true);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(memoed.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(memoed.value().kind, fresh.value().kind);
  EXPECT_TRUE(fresh.value().crashed);  // the pointer loop always DoSes
  EXPECT_FALSE(fresh.value().shell);
  EXPECT_EQ(pool.stats().memo_hits, 1u);

  // A benign camstored request parses OK and must not collide with the
  // resolvd memo despite the same (lane, volley_id) coordinates.
  const std::vector<util::Bytes> benign = {
      adapt::Camstored::WrapInPut(util::Bytes(56, 'a'), "snap", 64)};
  auto ok = pool.FireServiceVolley(
      0, none, 1, defense::VictimPool::ServiceKind::kCamstored, benign);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().kind, connman::ProxyOutcome::Kind::kParsedOk);
  EXPECT_FALSE(ok.value().shell);
  EXPECT_FALSE(ok.value().crashed);
}

// ------------------------------------------------------------ campaign ----

FleetConfig SmallCampaign() {
  FleetConfig config;
  config.victims = 400;
  config.seed = 21;
  config.max_concurrent = 64;
  config.population.diversity_bits = 2;
  return config;
}

TEST(FleetCampaign, ReplayIsDeterministic) {
  auto a = fleet::RunFleetCampaign(SmallCampaign());
  auto b = fleet::RunFleetCampaign(SmallCampaign());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().digest, b.value().digest);
  EXPECT_EQ(a.value().compromised, b.value().compromised);
  EXPECT_EQ(a.value().queries, b.value().queries);
  EXPECT_EQ(a.value().sim_end_us, b.value().sim_end_us);
}

TEST(FleetCampaign, DifferentSeedsDiverge) {
  FleetConfig other = SmallCampaign();
  other.seed = 22;
  auto a = fleet::RunFleetCampaign(SmallCampaign());
  auto b = fleet::RunFleetCampaign(other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().digest, b.value().digest);
}

TEST(FleetCampaign, EveryVictimIsSeatedAndAccountedFor) {
  auto result = fleet::RunFleetCampaign(SmallCampaign());
  ASSERT_TRUE(result.ok());
  const FleetResult& r = result.value();
  // Terminal states partition the fleet: shelled, crashed, or walked away.
  EXPECT_EQ(r.compromised + r.crashed + r.leaves, r.victims);
  EXPECT_GE(r.joins, r.victims);  // roams and retries re-join
  EXPECT_EQ(r.pool.restores, r.joins + r.pool.evaluations);
  EXPECT_GT(r.queries, r.victims);  // everyone got at least one query in
}

TEST(FleetCampaign, MonocultureFallsAndDiversityShrinksCompromise) {
  FleetConfig config = SmallCampaign();
  config.victims = 600;
  // Strip the orthogonal mitigations so the sweep isolates diversity.
  config.population.p_canary = 0.0;
  config.population.p_cfi = 0.0;
  auto curve = fleet::RunSurvivalSweep(config, {0, 3});
  ASSERT_TRUE(curve.ok()) << curve.status().ToString();
  const auto& points = curve.value();
  ASSERT_EQ(points.size(), 2u);
  // b=0: every attacked victim shares the profiled layout; most of the
  // fleet falls (only victims the attacker never races survive).
  EXPECT_GT(points[0].compromised_fraction, 0.5);
  // b=3: only ~1/8th of the fleet shares it.
  EXPECT_LT(points[1].compromised_fraction,
            points[0].compromised_fraction / 3.0);
  EXPECT_GT(points[1].compromised, 0u);
}

TEST(FleetCampaign, DhcpChurnRecyclesABoundedPool) {
  FleetConfig config = SmallCampaign();
  config.victims = 300;
  config.max_concurrent = 40;
  config.ap.dhcp_pool = 24;  // tighter than the concurrency: forced churn
  auto result = fleet::RunFleetCampaign(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FleetResult& r = result.value();
  EXPECT_GT(r.join_retries, 0u);       // exhaustion happened
  EXPECT_EQ(r.joins, r.victims + r.roams);  // and everyone still got in
  EXPECT_GT(r.lease_expiries, 0u);     // leaked leases were reclaimed
}

TEST(FleetCampaign, PointerLoopCampaignOnlyEverDoses) {
  FleetConfig config = SmallCampaign();
  config.bug_class = fleet::BugClass::kPointerLoop;
  auto result = fleet::RunFleetCampaign(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FleetResult& r = result.value();
  EXPECT_EQ(r.bug_class, fleet::BugClass::kPointerLoop);
  EXPECT_EQ(r.compromised, 0u);  // control-flow-free: no shell exists
  EXPECT_GT(r.crashed, 0u);
  EXPECT_EQ(r.compromised + r.crashed + r.leaves, r.victims);
  EXPECT_EQ(r.pool.restores, r.joins + r.pool.evaluations);
  // Entropy-independent payoff: the loop volley carries no addresses, so
  // the DoS *fraction* stays flat when the fleet diversifies. (The digest
  // still moves — skipping the variant draw at 0 bits shifts every later
  // per-victim RNG draw, so the timelines differ event by event.)
  FleetConfig flat = config;
  flat.population.diversity_bits = 0;
  auto mono = fleet::RunFleetCampaign(flat);
  ASSERT_TRUE(mono.ok());
  const double diverse_fraction =
      static_cast<double>(r.crashed) / static_cast<double>(r.victims);
  const double mono_fraction = static_cast<double>(mono.value().crashed) /
                               static_cast<double>(mono.value().victims);
  EXPECT_NEAR(mono_fraction, diverse_fraction, 0.05);
}

TEST(FleetCampaign, HeapCampaignRespectsWxAndHeapIntegrity) {
  FleetConfig config = SmallCampaign();
  config.bug_class = fleet::BugClass::kHeapMetadata;
  // Default base is WxAslr: the unlink write lands but the pivot fetches
  // non-executable heap bytes — DoS everywhere, traps where integrity runs.
  auto wx = fleet::RunFleetCampaign(config);
  ASSERT_TRUE(wx.ok()) << wx.status().ToString();
  EXPECT_EQ(wx.value().compromised, 0u);
  EXPECT_GT(wx.value().crashed, 0u);
  EXPECT_GT(wx.value().trapped, 0u);  // p_heap_integrity adopters
  EXPECT_EQ(wx.value().compromised + wx.value().crashed + wx.value().leaves,
            wx.value().victims);

  // Strip W^X and the same fleet starts shelling.
  FleetConfig soft = config;
  soft.base = loader::ProtectionConfig::None();
  auto open = fleet::RunFleetCampaign(soft);
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_GT(open.value().compromised, 0u);
}

TEST(FleetCampaign, BugClassesUseDistinctMemoStreams) {
  // Same seed, different class: replays stay deterministic per class and
  // the two classes genuinely diverge.
  FleetConfig loop = SmallCampaign();
  loop.bug_class = fleet::BugClass::kPointerLoop;
  FleetConfig heap = SmallCampaign();
  heap.bug_class = fleet::BugClass::kHeapMetadata;
  auto a = fleet::RunFleetCampaign(loop);
  auto b = fleet::RunFleetCampaign(loop);
  auto c = fleet::RunFleetCampaign(heap);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a.value().digest, b.value().digest);
  EXPECT_NE(a.value().digest, c.value().digest);
}

TEST(FleetCampaign, RejectsBadConfigs) {
  FleetConfig config = SmallCampaign();
  config.population.diversity_bits = 9;
  EXPECT_FALSE(fleet::RunFleetCampaign(config).ok());
  config = SmallCampaign();
  config.victims = 0;
  EXPECT_FALSE(fleet::RunFleetCampaign(config).ok());
  config = SmallCampaign();
  config.ap.lease_ttl_us = 0;
  EXPECT_FALSE(fleet::RunFleetCampaign(config).ok());
  config = SmallCampaign();
  config.profiled_variant = 4;  // outside 2^2 variants
  EXPECT_FALSE(fleet::RunFleetCampaign(config).ok());
}

// -------------------------------------------------------------- report ----

TEST(FleetReport, CurveDigestCoversEveryPoint) {
  auto curve = fleet::RunSurvivalSweep(SmallCampaign(), {0, 2});
  ASSERT_TRUE(curve.ok());
  const std::uint64_t digest = fleet::CurveDigest(curve.value());
  auto again = fleet::RunSurvivalSweep(SmallCampaign(), {0, 2});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(fleet::CurveDigest(again.value()), digest);
  // Dropping a point must change the digest.
  std::vector<fleet::SurvivalPoint> truncated = curve.value();
  truncated.pop_back();
  EXPECT_NE(fleet::CurveDigest(truncated), digest);
  // And the render mentions each entropy point.
  const std::string table = fleet::RenderSurvivalCurve(curve.value());
  EXPECT_NE(table.find("0b"), std::string::npos);
  EXPECT_NE(table.find("2b"), std::string::npos);
  const std::string json =
      fleet::SurvivalCurveJson(curve.value(), /*seed=*/21, /*victims=*/400);
  EXPECT_NE(json.find("\"curve_digest\""), std::string::npos);
  EXPECT_NE(json.find("\"diversity_bits\": 2"), std::string::npos);
}

TEST(FleetReport, SweepCarriesPerBugClassSurvival) {
  auto curve = fleet::RunSurvivalSweep(SmallCampaign(), {0, 2});
  ASSERT_TRUE(curve.ok()) << curve.status().ToString();
  const auto& points = curve.value();
  ASSERT_EQ(points.size(), 2u);
  for (const fleet::SurvivalPoint& p : points) {
    EXPECT_GT(p.loop_crashed, 0u);
    EXPECT_EQ(p.heap_compromised, 0u);  // WxAslr base: NX heap
    EXPECT_GT(p.heap_crashed, 0u);
    EXPECT_GT(p.heap_trapped, 0u);
    EXPECT_NE(p.loop_digest, 0u);
    EXPECT_NE(p.heap_digest, 0u);
  }
  // The zoo volleys carry no diversity-sensitive addresses: their survival
  // fractions stay flat across entropy points while the stack class moves.
  EXPECT_NEAR(points[0].loop_crashed_fraction, points[1].loop_crashed_fraction,
              0.05);
  EXPECT_NEAR(points[0].heap_compromised_fraction,
              points[1].heap_compromised_fraction, 0.05);
  EXPECT_GT(points[0].compromised_fraction, points[1].compromised_fraction)
      << "the stack class must actually be starved by entropy";

  const std::string json =
      fleet::SurvivalCurveJson(curve.value(), /*seed=*/21, /*victims=*/400);
  EXPECT_NE(json.find("\"loop_crashed\""), std::string::npos);
  EXPECT_NE(json.find("\"heap_trapped\""), std::string::npos);
  EXPECT_NE(json.find("\"heap_compromised_fraction\""), std::string::npos);
}

// ----------------------------------------------------- parallel sweep ----

/// The sweep's (entropy point, bug class) campaigns run across worker
/// threads, but each campaign is a self-contained virtual-time simulation:
/// the assembled curve must be bit-identical to the serial sweep, digests
/// and all, for any worker count.
TEST(FleetParallel, SweepIsDigestIdenticalToSerial) {
  auto serial = fleet::RunSurvivalSweep(SmallCampaign(), {0, 2}, 1);
  auto parallel = fleet::RunSurvivalSweep(SmallCampaign(), {0, 2}, 4);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(parallel.value().size(), serial.value().size());
  EXPECT_EQ(fleet::CurveDigest(parallel.value()),
            fleet::CurveDigest(serial.value()));
  for (std::size_t i = 0; i < serial.value().size(); ++i) {
    const fleet::SurvivalPoint& s = serial.value()[i];
    const fleet::SurvivalPoint& p = parallel.value()[i];
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(p.diversity_bits, s.diversity_bits);
    EXPECT_EQ(p.victims, s.victims);
    EXPECT_EQ(p.compromised, s.compromised);
    EXPECT_EQ(p.crashed, s.crashed);
    EXPECT_EQ(p.digest, s.digest);
    EXPECT_EQ(p.loop_crashed, s.loop_crashed);
    EXPECT_EQ(p.loop_digest, s.loop_digest);
    EXPECT_EQ(p.heap_compromised, s.heap_compromised);
    EXPECT_EQ(p.heap_crashed, s.heap_crashed);
    EXPECT_EQ(p.heap_trapped, s.heap_trapped);
    EXPECT_EQ(p.heap_digest, s.heap_digest);
  }
}

}  // namespace
}  // namespace connlab
