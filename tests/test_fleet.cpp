// The fleet subsystem: the discrete-event core, population sampling, the
// rogue AP's bounded cache, the diversified victim pool, and the campaign
// driver's reproducibility contract (same seed => same digest).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_set>
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

/// The order the fleet's digests were recorded under: a binary heap over
/// (deadline, push order), with now() the latest deadline popped so far.
class ReferenceQueue {
 public:
  void Push(const Event& event) { heap_.push({event, next_seq_++}); }
  Event Pop() {
    const Event event = heap_.top().event;
    heap_.pop();
    now_ = std::max(now_, event.at);
    return event;
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] fleet::SimTime now() const { return now_; }

 private:
  struct Entry {
    Event event;
    std::uint64_t seq;
  };
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.event.at != b.event.at) return a.event.at > b.event.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, After> heap_;
  std::uint64_t next_seq_ = 0;
  fleet::SimTime now_ = 0;
};

TEST(EventQueue, MatchesReferenceOnRandomSchedule) {
  EventQueue queue;
  ReferenceQueue reference;
  util::Rng rng(2024);
  std::uint32_t next_client = 0;
  const auto expect_same_pop = [&](int op) {
    const Event got = queue.Pop();
    const Event want = reference.Pop();
    ASSERT_EQ(got.client, want.client) << "op " << op;
    ASSERT_EQ(got.at, want.at) << "op " << op;
    ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind))
        << "op " << op;
  };
  for (int op = 0; op < 200000; ++op) {
    // Phases that mostly push alternate with phases that mostly pop, so
    // the queue grows to thousands of events and drains empty again.
    const std::uint64_t pop_pct = (op / 10000) % 2 == 0 ? 35 : 70;
    if (!reference.empty() && rng.NextBelow(100) < pop_pct) {
      expect_same_pop(op);
      if (HasFatalFailure()) return;
    } else {
      const fleet::SimTime now = reference.now();
      // Deadlines: ties with the clock, runs of equal deadlines, the lease
      // TTL's reach, either side of 1,024 ahead, the past, the initial
      // seating's reach, and far beyond all of them.
      fleet::SimTime at = now;
      switch (rng.NextBelow(7)) {
        case 0: break;
        case 1: at += rng.NextBelow(4); break;
        case 2: at += rng.NextBelow(600); break;
        case 3: at += 1016 + rng.NextBelow(16); break;
        case 4: at -= std::min(now, rng.NextBelow(64)); break;
        case 5: at += 1024 + rng.NextBelow(8192); break;
        default: at += rng.NextBelow(1ull << 40); break;
      }
      const Event event{at, static_cast<Event::Kind>(rng.NextBelow(5)),
                        next_client++};
      queue.Push(event);
      reference.Push(event);
    }
    ASSERT_EQ(queue.size(), reference.size()) << "op " << op;
    ASSERT_EQ(queue.empty(), reference.empty()) << "op " << op;
    ASSERT_EQ(queue.now(), reference.now()) << "op " << op;
  }
  while (!reference.empty()) {
    expect_same_pop(-1);
    if (HasFatalFailure()) return;
    ASSERT_EQ(queue.now(), reference.now());
  }
  EXPECT_TRUE(queue.empty());
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

/// The cache as it was before membership moved to util::IntSet: the same
/// FIFO ring, with membership in a std::unordered_set.
class ReferenceCache {
 public:
  explicit ReferenceCache(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_);
  }
  bool Lookup(std::uint64_t key) {
    if (members_.count(key) != 0) {
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }
  void Insert(std::uint64_t key) {
    if (members_.count(key) != 0) return;
    if (ring_.size() == capacity_) {
      members_.erase(ring_[head_]);
      ring_[head_] = key;
      head_ = (head_ + 1) % capacity_;
      ++evictions_;
    } else {
      ring_.push_back(key);
    }
    members_.insert(key);
  }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::vector<std::uint64_t> ring_;
  std::unordered_set<std::uint64_t> members_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

TEST(BoundedCache, MatchesReferenceOnRandomSchedule) {
  const PopulationProfile profile = PopulationProfile::IoTDefault();
  for (const std::size_t capacity : {1, 3, 256}) {
    for (const bool clustered : {true, false}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) +
                   (clustered ? ", sequential keys" : ", hot/tail keys"));
      BoundedCache cache(capacity);
      ReferenceCache reference(capacity);
      util::Rng rng(capacity * 2 + (clustered ? 1 : 0));
      std::uint64_t base = 0;
      for (int op = 0; op < 200000; ++op) {
        // Sequential keys: a window of 2x the capacity that slides forward,
        // so live keys are runs of neighbours. Otherwise the fleet's own
        // hot-set-plus-tail name draws.
        std::uint64_t key = 0;
        if (clustered) {
          base += rng.NextBelow(2);
          key = base + rng.NextBelow(2 * capacity);
        } else {
          key = fleet::SampleQueryName(profile, rng);
        }
        if (rng.NextBool(0.5)) {
          ASSERT_EQ(cache.Lookup(key), reference.Lookup(key)) << "op " << op;
        } else {
          cache.Insert(key);
          reference.Insert(key);
        }
        ASSERT_EQ(cache.hits(), reference.hits()) << "op " << op;
        ASSERT_EQ(cache.misses(), reference.misses()) << "op " << op;
        ASSERT_EQ(cache.evictions(), reference.evictions()) << "op " << op;
        ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
      }
      EXPECT_GT(cache.hits(), 0u);
      EXPECT_GT(cache.evictions(), 0u);
    }
  }
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
  config = SmallCampaign();
  config.ap.dhcp_pool = 0;  // every join would retry forever
  EXPECT_EQ(fleet::RunFleetCampaign(config).status().code(),
            util::StatusCode::kInvalidArgument);
  config = SmallCampaign();
  config.victims = (std::uint64_t{1} << 32) + 1;  // client ids would repeat
  EXPECT_EQ(fleet::RunFleetCampaign(config).status().code(),
            util::StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ goldens ----

// Every count of ten campaigns, recorded from the binary-heap event queue
// and the ordered DHCP lease map. Replaying a campaign twice cannot tell a
// correct queue from one that reorders events the same way every time;
// these recorded values can.
struct FleetGoldenRow {
  std::uint64_t digest;
  fleet::SimTime sim_end_us;
  // joins, join_retries, renews, roams, leaves, lease_expiries
  std::uint64_t lifecycle[6];
  // queries, cache_hits, cache_misses, cache_evictions
  std::uint64_t traffic[4];
  // deliveries, compromised, crashed, trapped, canaries_defeated,
  // brute_responses
  std::uint64_t attack[6];
  // pool: lanes, restores, evaluations, memo_hits
  std::uint64_t pool[4];
};

void ExpectGolden(const FleetConfig& config, const FleetGoldenRow& want) {
  auto result = fleet::RunFleetCampaign(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const FleetResult& r = result.value();
  EXPECT_EQ(r.victims, config.victims);
  EXPECT_EQ(r.digest, want.digest);
  EXPECT_EQ(r.sim_end_us, want.sim_end_us);
  EXPECT_EQ(r.joins, want.lifecycle[0]);
  EXPECT_EQ(r.join_retries, want.lifecycle[1]);
  EXPECT_EQ(r.renews, want.lifecycle[2]);
  EXPECT_EQ(r.roams, want.lifecycle[3]);
  EXPECT_EQ(r.leaves, want.lifecycle[4]);
  EXPECT_EQ(r.lease_expiries, want.lifecycle[5]);
  EXPECT_EQ(r.queries, want.traffic[0]);
  EXPECT_EQ(r.cache_hits, want.traffic[1]);
  EXPECT_EQ(r.cache_misses, want.traffic[2]);
  EXPECT_EQ(r.cache_evictions, want.traffic[3]);
  EXPECT_EQ(r.deliveries, want.attack[0]);
  EXPECT_EQ(r.compromised, want.attack[1]);
  EXPECT_EQ(r.crashed, want.attack[2]);
  EXPECT_EQ(r.trapped, want.attack[3]);
  EXPECT_EQ(r.canaries_defeated, want.attack[4]);
  EXPECT_EQ(r.brute_responses, want.attack[5]);
  EXPECT_EQ(r.pool.lanes, want.pool[0]);
  EXPECT_EQ(r.pool.restores, want.pool[1]);
  EXPECT_EQ(r.pool.evaluations, want.pool[2]);
  EXPECT_EQ(r.pool.memo_hits, want.pool[3]);
}

/// Runs one bug class at diversity 0, 4 and 8 against its recorded rows.
/// 20,000 victims outlast the initial seating of 4,096 clients, and a pool
/// of as many addresses as live sessions runs dry while the leases of
/// shelled and crashed devices wait to lapse, so joins retry.
void ExpectGoldenSweep(fleet::BugClass bug_class,
                       const FleetGoldenRow (&rows)[3]) {
  for (int i = 0; i < 3; ++i) {
    FleetConfig config;
    config.victims = 20000;
    config.seed = 42;
    config.bug_class = bug_class;
    config.population.diversity_bits = 4 * i;
    config.ap.dhcp_pool = 4096;
    SCOPED_TRACE("diversity_bits " +
                 std::to_string(config.population.diversity_bits));
    ExpectGolden(config, rows[i]);
  }
}

TEST(FleetGolden, StackSmashMatchesRecordedCampaigns) {
  static constexpr FleetGoldenRow kRows[3] = {
      {0xdcd0af819bf6d9b3ull, 9500, {20389, 1980, 2526, 389, 8015, 11985},
       {90696, 50410, 17702, 17446},
       {22584, 11985, 0, 10599, 1311, 167808},
       {16, 20405, 16, 23879}},
      {0x9d0cd9661347d2aeull, 9146, {20416, 2038, 2570, 416, 8038, 11960},
       {90232, 50059, 17652, 17396},
       {22521, 783, 11179, 10559, 1312, 167936},
       {44, 20446, 30, 23803}},
      {0x9e95c580041553f2ull, 9146, {20416, 2038, 2570, 416, 8038, 11960},
       {90232, 50059, 17652, 17396},
       {22521, 43, 11919, 10559, 1312, 167936},
       {279, 20441, 25, 23808}},
  };
  ExpectGoldenSweep(fleet::BugClass::kStackSmash, kRows);
}

TEST(FleetGolden, PointerLoopMatchesRecordedCampaigns) {
  static constexpr FleetGoldenRow kRows[3] = {
      {0xb9586cdd73cfd19dull, 9182, {20201, 5880, 669, 201, 3880, 16118},
       {64965, 36099, 12746, 12490},
       {16120, 0, 16120, 0, 0, 0},
       {16, 20217, 16, 16104}},
      {0x58f923956c8bfebdull, 9118, {20202, 6069, 675, 202, 3854, 16144},
       {64276, 35595, 12535, 12279},
       {16146, 0, 16146, 0, 0, 0},
       {44, 20232, 30, 16116}},
      {0x58f923956c8bfebdull, 9118, {20202, 6069, 675, 202, 3854, 16144},
       {64276, 35595, 12535, 12279},
       {16146, 0, 16146, 0, 0, 0},
       {279, 20227, 25, 16121}},
  };
  ExpectGoldenSweep(fleet::BugClass::kPointerLoop, kRows);
}

TEST(FleetGolden, HeapMetadataMatchesRecordedCampaigns) {
  static constexpr FleetGoldenRow kRows[3] = {
      {0x17911090d6fb31ddull, 9182, {20313, 3733, 1761, 313, 6322, 13676},
       {80083, 44457, 15713, 15457},
       {19913, 0, 13678, 6235, 0, 0},
       {16, 20329, 16, 19897}},
      {0x29401d0459f6bbf3ull, 9174, {20332, 3665, 1772, 332, 6326, 13672},
       {79969, 44415, 15561, 15305},
       {19993, 0, 13674, 6319, 0, 0},
       {44, 20362, 30, 19963}},
      {0x29401d0459f6bbf3ull, 9174, {20332, 3665, 1772, 332, 6326, 13672},
       {79969, 44415, 15561, 15305},
       {19993, 0, 13674, 6319, 0, 0},
       {279, 20357, 25, 19968}},
  };
  ExpectGoldenSweep(fleet::BugClass::kHeapMetadata, kRows);
}

TEST(FleetGolden, TightDhcpPoolMatchesRecordedCampaign) {
  // DhcpChurnRecyclesABoundedPool's config: 24 addresses for 40 sessions.
  FleetConfig config = SmallCampaign();
  config.victims = 300;
  config.max_concurrent = 40;
  config.ap.dhcp_pool = 24;
  ExpectGolden(config, {0xe9d473943c7e70c6ull,
                        9500,
                        {309, 1038, 34, 9, 112, 188},
                        {1355, 756, 256, 0},
                        {343, 57, 131, 155, 27, 3456},
                        {23, 330, 21, 349}});
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
