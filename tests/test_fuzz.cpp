// Fuzzing subsystem tests: coverage map semantics, mutation operators,
// corpus scheduling, crash triage/minimization/reproducers, and the
// end-to-end campaigns — including the CI-checked rediscovery of
// CVE-2017-12865 in the simulated dnsproxy from benign seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "src/dns/craft.hpp"
#include "src/dns/message.hpp"
#include "src/fuzz/corpus.hpp"
#include "src/fuzz/coverage.hpp"
#include "src/fuzz/dict.hpp"
#include "src/fuzz/fuzzer.hpp"
#include "src/fuzz/mutator.hpp"
#include "src/fuzz/target.hpp"
#include "src/fuzz/triage.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/vx86.hpp"
#include "src/obs/obs.hpp"
#include "src/util/rng.hpp"

namespace connlab::fuzz {
namespace {

using util::Bytes;

// ------------------------------------------------------------- coverage ----

TEST(Coverage, CountClassBuckets) {
  EXPECT_EQ(CountClass(0), 0u);
  EXPECT_EQ(CountClass(1), 1u << 0);
  EXPECT_EQ(CountClass(2), 1u << 1);
  EXPECT_EQ(CountClass(3), 1u << 2);
  EXPECT_EQ(CountClass(4), 1u << 3);
  EXPECT_EQ(CountClass(7), 1u << 3);
  EXPECT_EQ(CountClass(8), 1u << 4);
  EXPECT_EQ(CountClass(31), 1u << 5);
  EXPECT_EQ(CountClass(32), 1u << 6);
  EXPECT_EQ(CountClass(127), 1u << 6);
  EXPECT_EQ(CountClass(128), 1u << 7);
  EXPECT_EQ(CountClass(255), 1u << 7);
}

TEST(Coverage, AbsorbDistinguishesNewEdgeFromNewClass) {
  CoverageMap virgin;
  CoverageMap exec;
  exec.AddFeature(100);
  exec.Classify();
  EXPECT_EQ(exec.AbsorbInto(virgin), 2);  // brand-new edge
  EXPECT_EQ(exec.AbsorbInto(virgin), 0);  // nothing new the second time

  CoverageMap exec2;
  for (int i = 0; i < 5; ++i) exec2.AddFeature(100);  // count class 4-7
  exec2.Classify();
  EXPECT_EQ(exec2.AbsorbInto(virgin), 1);  // known edge, new class
  EXPECT_EQ(exec2.AbsorbInto(virgin), 0);
}

TEST(Coverage, MergeIsOrderIndependent) {
  CoverageMap a;
  CoverageMap b;
  for (int i = 0; i < 3; ++i) a.AddFeature(7);
  a.AddFeature(900);
  b.AddFeature(7);
  b.AddFeature(12345);
  a.Classify();
  b.Classify();

  CoverageMap ab;
  ab.MergeClassified(a);
  ab.MergeClassified(b);
  CoverageMap ba;
  ba.MergeClassified(b);
  ba.MergeClassified(a);
  EXPECT_EQ(ab.Digest(), ba.Digest());
  EXPECT_EQ(ab.CountNonZero(), 3u);
}

TEST(Coverage, SaturatesAt255) {
  CoverageMap map;
  for (int i = 0; i < 1000; ++i) map.AddFeature(9);
  EXPECT_EQ(map.data()[9], 0xFF);
}

// Byte-at-a-time reference: the full-scan semantics every CoverageMap
// operation must match, whatever its first-touch log says.
struct ReferenceMap {
  std::vector<std::uint8_t> cells =
      std::vector<std::uint8_t>(CoverageMap::kSize, 0);

  void Clear() { std::fill(cells.begin(), cells.end(), 0); }
  void AddFeature(std::uint32_t feature) {
    std::uint8_t& cell = cells[feature & CoverageMap::kMask];
    if (cell != 0xFF) ++cell;
  }
  void Classify() {
    for (std::uint8_t& cell : cells) cell = CountClass(cell);
  }
  void MergeClassified(const ReferenceMap& other) {
    for (std::uint32_t i = 0; i < CoverageMap::kSize; ++i) {
      cells[i] |= other.cells[i];
    }
  }
  int AbsorbInto(ReferenceMap& virgin,
                 std::vector<CoverageDelta>* delta) const {
    int news = 0;
    for (std::uint32_t i = 0; i < CoverageMap::kSize; ++i) {
      const std::uint8_t gained =
          static_cast<std::uint8_t>(cells[i] & ~virgin.cells[i]);
      if (gained == 0) continue;
      news = std::max(news, virgin.cells[i] == 0 ? 2 : 1);
      if (delta != nullptr) delta->push_back(CoverageDelta{i, gained});
      virgin.cells[i] |= cells[i];
    }
    return news;
  }
  void ApplyDelta(const std::vector<CoverageDelta>& delta) {
    for (const CoverageDelta& d : delta) {
      cells[d.index & CoverageMap::kMask] |= d.bits;
    }
  }
  std::vector<std::uint16_t> NonZero() const {
    std::vector<std::uint16_t> out;
    for (std::uint32_t i = 0; i < CoverageMap::kSize; ++i) {
      if (cells[i] != 0) out.push_back(static_cast<std::uint16_t>(i));
    }
    return out;
  }
  std::uint64_t Digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t i = 0; i < CoverageMap::kSize; ++i) {
      if (cells[i] == 0) continue;
      h = (h ^ i) * 0x100000001b3ULL;
      h = (h ^ cells[i]) * 0x100000001b3ULL;
    }
    return h;
  }
};

std::vector<std::pair<std::uint32_t, std::uint8_t>> SortedDelta(
    const std::vector<CoverageDelta>& delta) {
  std::vector<std::pair<std::uint32_t, std::uint8_t>> out;
  for (const CoverageDelta& d : delta) out.emplace_back(d.index, d.bits);
  std::sort(out.begin(), out.end());
  return out;
}

// Seeded random sequences of every map operation, checked after each step
// against the full-scan reference: all 65536 cells, return values, deltas
// (as sorted sets: the log emits them in first-touch order), CountNonZero,
// Digest, and the log itself (each nonzero cell exactly once).
TEST(Coverage, LogMatchesFullScanReference) {
  constexpr std::size_t kMaps = 3;
  util::Rng rng(20190625);
  std::vector<CoverageMap> maps(kMaps);
  std::vector<ReferenceMap> refs(kMaps);
  // A few hot cells so that repeats, count classes and saturation happen.
  std::vector<std::uint32_t> hot;
  for (int i = 0; i < 24; ++i) {
    hot.push_back(rng.NextU32() & CoverageMap::kMask);
  }
  hot.push_back(0);
  hot.push_back(CoverageMap::kMask);
  const auto feature = [&]() -> std::uint32_t {
    const std::uint32_t h = hot[rng.NextBelow(hot.size())];
    switch (rng.NextBelow(3)) {
      case 0: return h;
      case 1:  // aliases onto a hot cell through the mask
        return h + CoverageMap::kSize * rng.NextU32();
      default: return rng.NextU32();
    }
  };

  std::vector<CoverageDelta> last_delta;
  int saw_saturated = 0, saw_new_edge = 0, saw_new_class = 0, copies = 0;
  for (int step = 0; step < 2500; ++step) {
    const std::size_t a = rng.NextBelow(kMaps);
    const std::size_t b = rng.NextBelow(kMaps);
    SCOPED_TRACE(testing::Message() << "step " << step);
    switch (rng.NextBelow(9)) {
      case 0:
      case 1: {
        const std::uint32_t f = feature();
        const std::uint64_t n = rng.NextBool(0.1) ? rng.NextInRange(200, 400)
                                                  : rng.NextInRange(1, 5);
        for (std::uint64_t i = 0; i < n; ++i) {
          maps[a].AddFeature(f);
          refs[a].AddFeature(f);
        }
        saw_saturated += refs[a].cells[f & CoverageMap::kMask] == 0xFF;
        break;
      }
      case 2:
        maps[a].Classify();
        refs[a].Classify();
        break;
      case 3:
      case 4: {
        const bool sink = rng.NextBool(0.7);
        std::vector<CoverageDelta> got, want;
        const int news = maps[a].AbsorbInto(maps[b], sink ? &got : nullptr);
        ASSERT_EQ(news, refs[a].AbsorbInto(refs[b], sink ? &want : nullptr));
        ASSERT_EQ(SortedDelta(got), SortedDelta(want));
        saw_new_edge += news == 2;
        saw_new_class += news == 1;
        if (sink) last_delta = std::move(got);
        break;
      }
      case 5: {
        std::vector<CoverageDelta> delta = last_delta;
        for (std::uint64_t i = rng.NextBelow(4); i > 0; --i) {
          // Includes zero-bit entries and indices above the mask.
          delta.push_back(CoverageDelta{
              feature(), static_cast<std::uint8_t>(rng.NextBelow(3))});
        }
        maps[a].ApplyDelta(delta);
        refs[a].ApplyDelta(delta);
        break;
      }
      case 6:
        maps[a].MergeClassified(maps[b]);
        refs[a].MergeClassified(refs[b]);
        break;
      case 7:
        if (rng.NextBool(0.3)) {
          maps[a].Clear();
          refs[a].Clear();
        }
        break;
      default:
        // Copy partway through: the copy then lives its own life.
        if (rng.NextBool(0.5)) {
          const CoverageMap copy(maps[a]);
          maps[b] = copy;
        } else {
          maps[b] = maps[a];
        }
        refs[b] = refs[a];
        ++copies;
        break;
    }
    for (std::size_t m = 0; m < kMaps; ++m) {
      ASSERT_EQ(std::memcmp(maps[m].data(), refs[m].cells.data(),
                            CoverageMap::kSize),
                0)
          << "map " << m;
      std::vector<std::uint16_t> log(maps[m].touched().begin(),
                                     maps[m].touched().end());
      std::sort(log.begin(), log.end());
      const std::vector<std::uint16_t> nonzero = refs[m].NonZero();
      ASSERT_EQ(log, nonzero) << "map " << m;
      ASSERT_EQ(maps[m].CountNonZero(), nonzero.size()) << "map " << m;
      ASSERT_EQ(maps[m].Digest(), refs[m].Digest()) << "map " << m;
    }
  }
  // The sequence reached every case it is meant to cover.
  EXPECT_GT(saw_saturated, 0);
  EXPECT_GT(saw_new_edge, 0);
  EXPECT_GT(saw_new_class, 0);
  EXPECT_GT(copies, 0);
}

// The VM logs every cell it writes, in both tiers: Execute into a fresh
// map, then Clear, and a cell written without being logged would survive.
// Seeds of every target plus the dnsproxy overflow reproducer, with the
// superblock tier on and off.
TEST(Coverage, ExecuteLogsEveryCellTheVmWrites) {
  dns::Message query = dns::Message::Query(0x4655, "fuzz.example.com");
  auto junk = dns::JunkLabels(1100);
  ASSERT_TRUE(junk.ok());
  auto overflow = dns::Encode(dns::MaliciousAResponse(query, junk.value()));
  ASSERT_TRUE(overflow.ok());

  for (const bool superblocks : {true, false}) {
    obs::Scope scope;
    for (const TargetKind kind :
         {TargetKind::kDnsproxy, TargetKind::kMinimasq, TargetKind::kHttpcamd,
          TargetKind::kResolvd, TargetKind::kCamstored}) {
      TargetConfig config;
      config.kind = kind;
      config.exec.superblocks = superblocks;
      auto target = MakeTarget(config);
      ASSERT_TRUE(target.ok()) << target.status().ToString();
      std::vector<Bytes> inputs = target.value()->SeedCorpus();
      if (kind == TargetKind::kDnsproxy) inputs.push_back(overflow.value());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        CoverageMap map;
        target.value()->Execute(inputs[i], map);
        EXPECT_GT(map.CountNonZero(), 0u);
        map.Clear();
        EXPECT_EQ(std::count(map.data(), map.data() + CoverageMap::kSize, 0),
                  static_cast<std::ptrdiff_t>(CoverageMap::kSize))
            << TargetKindName(kind) << " input " << i
            << (superblocks ? " (superblocks)" : " (interpreter)");
      }
    }
    const obs::MetricsSnapshot m = scope.Metrics();
    const auto hits = m.counters.find("vm.superblock.hits");
    const std::uint64_t block_hits =
        hits == m.counters.end() ? 0 : hits->second;
    if (superblocks) {
      EXPECT_GT(block_hits, 0u);
    } else {
      EXPECT_EQ(block_hits, 0u);
    }
  }
}

// The fuzz targets enter guest code through set_pc, so they never call a
// host function from guest code. A guest loop that does must log its
// host-function transit edges and the ops after each return too, in both
// tiers.
TEST(Coverage, HostCallContinuationLogsEveryCell) {
  namespace x = isa::vx86;
  isa::Assembler a(isa::Arch::kVX86, 0x1000);
  x::EncMovImm(a.w(), isa::kEAX, 50);
  a.Label("loop");
  x::EncCall(a.w(), 0x1800);
  x::EncSubImm(a.w(), isa::kEAX, 1);
  x::EncCmpImm(a.w(), isa::kEAX, 0);
  a.JnzLabel("loop");
  x::EncHlt(a.w());
  auto text = a.Finish();
  ASSERT_TRUE(text.ok());

  for (const bool superblocks : {true, false}) {
    CoverageMap map;
    {
      mem::AddressSpace space;
      ASSERT_TRUE(space.Map(".text", 0x1000, 0x1000, mem::kPermRX).ok());
      ASSERT_TRUE(space.Map("stack", 0x8000, 0x1000, mem::kPermRW).ok());
      ASSERT_TRUE(space.DebugWrite(0x1000, text.value()).ok());
      vm::Cpu cpu(isa::Arch::kVX86, space, {.superblocks = superblocks});
      // A leaf that performs its own return sequence, as host fns must.
      ASSERT_TRUE(cpu.RegisterHostFn(0x1800, "leaf", [](vm::Cpu& c) {
                       auto ret = c.space().ReadU32(c.sp());
                       if (!ret.ok()) return ret.status();
                       c.set_sp(c.sp() + 4);
                       c.set_pc(ret.value());
                       return util::OkStatus();
                     }).ok());
      cpu.set_pc(0x1000);
      cpu.set_sp(0x9000);
      map.AttachTo(cpu);
      EXPECT_EQ(cpu.Run(10000).reason, vm::StopReason::kHalted);
      cpu.DetachCoverage();
    }
    EXPECT_GT(map.CountNonZero(), 0u);
    map.Clear();
    EXPECT_EQ(std::count(map.data(), map.data() + CoverageMap::kSize, 0),
              static_cast<std::ptrdiff_t>(CoverageMap::kSize))
        << (superblocks ? "superblocks" : "interpreter");
  }
}

// -------------------------------------------------------------- mutator ----

Bytes DnsSeed() {
  dns::Message query = dns::Message::Query(0x4655, "fuzz.example.com");
  dns::Message response = dns::Message::ResponseFor(query);
  response.answers.push_back(dns::MakeA("fuzz.example.com", "10.0.0.1", 60));
  return dns::Encode(response).value();
}

TEST(Mutator, NeverTouchesFixedPrefix) {
  const Bytes seed = DnsSeed();
  const std::size_t prefix = dns::kHeaderSize + 18 + 4;  // header + question
  MutationHint hint{prefix, /*dns=*/true, /*max_size=*/4096};
  Mutator mutator(util::Rng(99));
  Bytes mutant;
  for (int i = 0; i < 500; ++i) {
    mutator.MutateInto(seed, hint, seed, mutant);
    ASSERT_GE(mutant.size(), prefix);
    ASSERT_LE(mutant.size(), hint.max_size);
    for (std::size_t b = 0; b < prefix; ++b) {
      // Bytes 6-7 (ancount) are the documented exception: the services
      // never echo-check them, and BumpAnswerCount edits them on purpose.
      if (b == 6 || b == 7) continue;
      ASSERT_EQ(mutant[b], seed[b]) << "prefix byte " << b << " iter " << i;
    }
  }
}

TEST(Mutator, GrowLabelStaysWithin0x3F) {
  const Bytes seed = DnsSeed();
  const std::size_t start = dns::kHeaderSize + 18 + 4;
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Bytes grown = seed;
    Mutator::GrowLabel(grown, start, rng);
    ASSERT_GE(grown.size(), seed.size());
    // Every label length byte reachable from start stays <= 63.
    std::size_t pos = start;
    while (pos < grown.size()) {
      const std::uint8_t len = grown[pos];
      if (len == 0 || (len & dns::kCompressionFlags) != 0) break;
      ASSERT_LE(len, dns::kMaxLabelLen);
      pos += 1 + len;
    }
  }
}

TEST(Mutator, PlantCompressionPointerPlantsOne) {
  const Bytes seed = DnsSeed();
  const std::size_t start = dns::kHeaderSize + 18 + 4;
  util::Rng rng(5);
  bool planted = false;
  for (int i = 0; i < 50 && !planted; ++i) {
    Bytes mutant = seed;
    Mutator::PlantCompressionPointer(mutant, start, rng);
    for (std::size_t pos = start; pos < mutant.size(); ++pos) {
      if ((mutant[pos] & dns::kCompressionFlags) == dns::kCompressionFlags) {
        planted = true;
        break;
      }
    }
  }
  EXPECT_TRUE(planted);
}

TEST(Mutator, DuplicateLabelRunRepeatsWholeLabelsAfterThemselves) {
  const Bytes seed = DnsSeed();
  const std::size_t start = dns::kHeaderSize + 18 + 4;
  // The label boundaries of the answer's owner name, fuzz.example.com.
  const std::size_t bounds[] = {start, start + 5, start + 13, start + 17};
  util::Rng rng(5);
  Bytes scratch;
  for (int i = 0; i < 200; ++i) {
    Bytes mutant = seed;
    Mutator::DuplicateLabelRun(mutant, start, rng, scratch);
    ASSERT_GT(mutant.size(), seed.size()) << i;
    ASSERT_TRUE(std::equal(seed.begin(), seed.begin() + start, mutant.begin()))
        << i;
    // The mutant is the seed with one run of whole labels repeated 1-4
    // times right after itself.
    bool matched = false;
    for (std::size_t b = 0; b + 1 < std::size(bounds) && !matched; ++b) {
      for (std::size_t e = b + 1; e < std::size(bounds) && !matched; ++e) {
        const Bytes run(seed.begin() + bounds[b], seed.begin() + bounds[e]);
        Bytes expected(seed.begin(), seed.begin() + bounds[e]);
        for (int k = 1; k <= 4 && !matched; ++k) {
          expected.insert(expected.end(), run.begin(), run.end());
          Bytes whole = expected;
          whole.insert(whole.end(), seed.begin() + bounds[e], seed.end());
          matched = mutant == whole;
        }
      }
    }
    EXPECT_TRUE(matched) << i;
  }
}

TEST(Mutator, BumpAnswerCountOnlyTouchesHeaderCount) {
  const Bytes seed = DnsSeed();
  util::Rng rng(5);
  Bytes bumped = seed;
  Mutator::BumpAnswerCount(bumped, rng);
  ASSERT_EQ(bumped.size(), seed.size());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    if (i == 6 || i == 7) continue;
    EXPECT_EQ(bumped[i], seed[i]) << i;
  }
  const std::uint16_t ancount =
      static_cast<std::uint16_t>((bumped[6] << 8) | bumped[7]);
  EXPECT_GE(ancount, 1);
}

TEST(Mutator, DeterministicForSameRngSeed) {
  const Bytes seed = DnsSeed();
  MutationHint hint{12, true, 4096};
  Mutator a(util::Rng(77));
  Mutator b(util::Rng(77));
  Bytes mutant_a;
  Bytes mutant_b;
  for (int i = 0; i < 100; ++i) {
    a.MutateInto(seed, hint, {}, mutant_a);
    b.MutateInto(seed, hint, {}, mutant_b);
    EXPECT_EQ(mutant_a, mutant_b) << i;
  }
}

// --------------------------------------------------------------- corpus ----

TEST(Corpus, DedupsIdenticalEntries) {
  Corpus corpus;
  EXPECT_TRUE(corpus.Add(Bytes{1, 2, 3}, 2, 0));
  EXPECT_FALSE(corpus.Add(Bytes{1, 2, 3}, 2, 5));
  EXPECT_TRUE(corpus.Add(Bytes{1, 2, 4}, 1, 6));
  EXPECT_EQ(corpus.size(), 2u);
}

TEST(Corpus, WeightsFavourNoveltyAndSmallness) {
  Corpus corpus;
  corpus.Add(Bytes(100, 0xAA), 2, 0);   // new edge, small
  corpus.Add(Bytes(100, 0xBB), 1, 0);   // new class only, small
  corpus.Add(Bytes(4000, 0xCC), 2, 0);  // new edge, large
  EXPECT_GT(corpus.WeightOf(0), corpus.WeightOf(1));
  EXPECT_GT(corpus.WeightOf(0), corpus.WeightOf(2));
  EXPECT_GT(corpus.EnergyFor(0), corpus.EnergyFor(1));
}

TEST(Corpus, PickSequenceDeterministic) {
  const auto run = [] {
    Corpus corpus;
    corpus.Add(Bytes{1}, 2, 0);
    corpus.Add(Bytes{2}, 1, 0);
    corpus.Add(Bytes{3}, 2, 0);
    util::Rng rng(31);
    std::vector<std::size_t> picks;
    for (int i = 0; i < 50; ++i) picks.push_back(corpus.PickIndex(rng));
    return picks;
  };
  EXPECT_EQ(run(), run());
}

// --------------------------------------------------------------- triage ----

TEST(Triage, FormatKeyMentionsEverything) {
  CrashKey key{ExecResult::Kind::kCrash, vm::StopReason::kFault, 0x8048024,
               true, 0x1234};
  const std::string s = FormatCrashKey(key);
  EXPECT_NE(s.find("crash"), std::string::npos);
  EXPECT_NE(s.find("fault"), std::string::npos);
  EXPECT_NE(s.find("08048024"), std::string::npos);
  EXPECT_NE(s.find("write"), std::string::npos);
}

TEST(Triage, MergeAccumulatesAndPrefersEarlierWitness) {
  CrashKey key{ExecResult::Kind::kCrash, vm::StopReason::kFault, 0x100, true,
               7};
  CrashBucket early{key, Bytes{1}, Bytes{1}, {}, 3, 10};
  CrashBucket late{key, Bytes{2}, Bytes{2}, {}, 5, 99};
  CrashTriage a;
  a.buckets().push_back(late);
  CrashTriage b;
  b.buckets().push_back(early);
  a.Merge(b);
  ASSERT_EQ(a.buckets().size(), 1u);
  EXPECT_EQ(a.buckets()[0].hits, 8u);
  EXPECT_EQ(a.buckets()[0].first_exec, 10u);
  EXPECT_EQ(a.buckets()[0].witness, Bytes{1});

  CrashTriage c;  // disjoint key appends
  CrashKey other = key;
  other.pc = 0x200;
  c.buckets().push_back({other, Bytes{3}, Bytes{3}, {}, 1, 1});
  a.Merge(c);
  EXPECT_EQ(a.buckets().size(), 2u);
}

TEST(Reproducer, SerializeParseRoundTrip) {
  TargetConfig config;
  config.kind = TargetKind::kMinimasq;
  config.arch = isa::Arch::kVARM;
  config.boot_seed = 99;
  config.patched = true;
  CrashBucket bucket;
  bucket.key = {ExecResult::Kind::kCrash, vm::StopReason::kFault, 0xdeadbeef,
                true, 0xabcdef0123456789ULL};
  bucket.witness = Bytes{0, 1, 2, 0xFF};
  bucket.minimized = Bytes{0xC0, 0x0C};
  const std::string text = SerializeReproducer(config, bucket);
  auto parsed = ParseReproducer(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Reproducer& repro = parsed.value();
  EXPECT_EQ(repro.config.kind, TargetKind::kMinimasq);
  EXPECT_EQ(repro.config.arch, isa::Arch::kVARM);
  EXPECT_EQ(repro.config.boot_seed, 99u);
  EXPECT_TRUE(repro.config.patched);
  EXPECT_EQ(repro.key, bucket.key);
  EXPECT_EQ(repro.input, bucket.minimized);

  EXPECT_FALSE(ParseReproducer("not a reproducer").ok());
  // Hostile files: each reject names what is wrong with the line.
  const std::string head = text.substr(0, text.find("input: "));
  const auto rejects = [](const std::string& bad, util::StatusCode code,
                          const std::string& message) {
    auto got = ParseReproducer(bad);
    ASSERT_FALSE(got.ok()) << bad;
    EXPECT_EQ(got.status().code(), code) << bad;
    EXPECT_EQ(got.status().message(), message) << bad;
  };
  rejects(head + "input: c00\n", util::StatusCode::kMalformed,
          "odd hex length");
  rejects(head + "input: c0zz\n", util::StatusCode::kMalformed,
          "bad hex digit");
  std::string unknown = text;
  const std::string target_line = "target: minimasq";
  unknown.replace(unknown.find(target_line), target_line.size(),
                  "target: floppyd");
  rejects(unknown, util::StatusCode::kInvalidArgument,
          "unknown fuzz target: floppyd");
}

/// A reproducer written by hand, as an old file would hold it: `kind:` and
/// `stop:` are enum numbers, and 9 and 10 keep meaning the CFI and heap
/// traps although number 8 was retired.
constexpr std::string_view kStoredReproducer =
    "connlab-repro v1\n"
    "target: dnsproxy\n"
    "arch: vx86\n"
    "boot_seed: 7\n"
    "patched: 0\n"
    "kind: 2\n"
    "stop: 9\n"
    "pc: 0x0804a010\n"
    "write_fault: 0\n"
    "stack_hash: 0x0000000000000001\n"
    "input: c00c\n";

/// `kStoredReproducer` with the line starting `key: ` replaced by `line`.
std::string StoredReproducerWith(std::string_view key, std::string_view line) {
  std::string text(kStoredReproducer);
  const std::size_t at = text.find("\n" + std::string(key) + ": ") + 1;
  text.replace(at, text.find('\n', at) - at, line);
  return text;
}

TEST(Reproducer, StoredStopNumbersKeepTheirMeaning) {
  auto parsed = ParseReproducer(kStoredReproducer);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().key.kind, ExecResult::Kind::kAbort);
  EXPECT_EQ(parsed.value().key.stop_reason, vm::StopReason::kCfiViolation);
  EXPECT_EQ(parsed.value().key.pc, 0x0804a010u);

  parsed = ParseReproducer(StoredReproducerWith("stop", "stop: 10"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().key.stop_reason, vm::StopReason::kHeapCorruption);
}

/// Numbers outside their field are refused, not cast: `stop: 300` would
/// otherwise read as reason 44, and a pc past 32 bits would be truncated.
/// So is a value the number parser does not consume whole (leading or
/// trailing text, a sign, an empty value, overflow) and a flag other than
/// 0 or 1.
TEST(Reproducer, OutOfRangeNumbersAreRejected) {
  const std::pair<std::string_view, std::string_view> bad[] = {
      {"kind", "kind: 5"},
      {"kind", "kind: 256"},
      {"kind", "kind: -1"},
      {"kind", "kind: x"},
      {"stop", "stop: 8"},  // the retired breakpoint reason
      {"stop", "stop: 11"},
      {"stop", "stop: 300"},
      {"stop", "stop: y"},
      {"pc", "pc: 0x100000000"},
      {"pc", "pc: 99999999999999999999"},
      {"pc", "pc: zz"},
      {"pc", "pc: 0x10 junk"},
      {"pc", "pc: 0x"},
      {"boot_seed", "boot_seed: 12abc"},
      {"boot_seed", "boot_seed: 18446744073709551616"},
      {"boot_seed", "boot_seed: "},
      {"boot_seed", "boot_seed: +7"},
      {"boot_seed", "boot_seed:  7"},
      {"patched", "patched: maybe"},
      {"patched", "patched: 2"},
      {"write_fault", "write_fault: 7"},
      {"stack_hash", "stack_hash: -1"},
      {"stack_hash", "stack_hash: 0x10000000000000000"},
  };
  for (const auto& [key, line] : bad) {
    SCOPED_TRACE(line);
    auto parsed = ParseReproducer(StoredReproducerWith(key, line));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kMalformed);
  }
}

TEST(Reproducer, ExtremeValuesRoundTrip) {
  TargetConfig config;
  config.boot_seed = ~std::uint64_t{0};
  CrashBucket bucket;
  bucket.key = {ExecResult::Kind::kOther, vm::StopReason::kHeapCorruption,
                0xFFFFFFFFu, true, ~std::uint64_t{0}};
  bucket.witness = Bytes{0x41};
  auto parsed = ParseReproducer(SerializeReproducer(config, bucket));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().config.boot_seed, config.boot_seed);
  EXPECT_EQ(parsed.value().key, bucket.key);
  EXPECT_EQ(parsed.value().input, bucket.witness);
}

// -------------------------------------------------------------- targets ----

TEST(Target, KindNamesRoundTrip) {
  for (const TargetKind kind :
       {TargetKind::kDnsproxy, TargetKind::kMinimasq, TargetKind::kHttpcamd,
        TargetKind::kResolvd, TargetKind::kCamstored}) {
    auto parsed = ParseTargetKind(TargetKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseTargetKind("floppyd").ok());
}

TEST(Target, SeedCorporaAreBenign) {
  for (const TargetKind kind :
       {TargetKind::kDnsproxy, TargetKind::kMinimasq, TargetKind::kHttpcamd,
        TargetKind::kResolvd, TargetKind::kCamstored}) {
    TargetConfig config;
    config.kind = kind;
    auto target = MakeTarget(config);
    ASSERT_TRUE(target.ok()) << target.status().ToString();
    CoverageMap map;
    for (const Bytes& seed : target.value()->SeedCorpus()) {
      const ExecResult result = target.value()->Execute(seed, map);
      EXPECT_EQ(result.kind, ExecResult::Kind::kBenign)
          << TargetKindName(kind) << ": " << result.detail;
    }
    EXPECT_GT(map.CountNonZero(), 0u) << TargetKindName(kind);
  }
}

/// The lit cells of `map` as (index, count) pairs in index order.
std::vector<std::pair<std::uint16_t, std::uint8_t>> LitCells(
    const CoverageMap& map) {
  std::vector<std::pair<std::uint16_t, std::uint8_t>> cells;
  for (const std::uint16_t i : map.touched()) {
    cells.emplace_back(i, map.data()[i]);
  }
  std::sort(cells.begin(), cells.end());
  return cells;
}

// Coverage is a function of the input alone: an input the service rejects
// before it runs the guest must light the same cells whether the target is
// fresh or has just served its benign seeds (whose guest runs left events
// behind in the CPU's log).
TEST(Target, RejectedInputCoverageIgnoresThePreviousExec) {
  const Bytes rejected = util::BytesOf("xyz");
  for (const TargetKind kind :
       {TargetKind::kDnsproxy, TargetKind::kMinimasq, TargetKind::kHttpcamd,
        TargetKind::kResolvd}) {
    TargetConfig config;
    config.kind = kind;
    auto fresh = MakeTarget(config);
    auto warm = MakeTarget(config);
    ASSERT_TRUE(fresh.ok() && warm.ok()) << TargetKindName(kind);

    CoverageMap fresh_map;
    const ExecResult fresh_result = fresh.value()->Execute(rejected, fresh_map);
    EXPECT_EQ(fresh_result.kind, ExecResult::Kind::kBenign)
        << TargetKindName(kind);

    CoverageMap warm_map;
    for (const Bytes& seed : warm.value()->SeedCorpus()) {
      ASSERT_EQ(warm.value()->Execute(seed, warm_map).kind,
                ExecResult::Kind::kBenign)
          << TargetKindName(kind);
    }
    warm_map.Clear();
    warm.value()->Execute(rejected, warm_map);

    EXPECT_EQ(LitCells(warm_map), LitCells(fresh_map)) << TargetKindName(kind);
  }
}

// ---------------------------------------------------- the CVE rediscovery --

// The headline guarantee: from benign seeds only, a fixed-seed campaign of
// at most 200k executions rediscovers CVE-2017-12865 — a deduplicated
// crash bucket at the get_name copy site whose minimized reproducer is in
// the same size class as the hand-crafted malicious response.
TEST(Fuzzer, RediscoversCve201712865InDnsproxy) {
  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.seed = 42;
  config.max_execs = 20000;  // well under the 200k ceiling
  config.workers = 1;
  auto report_or = Fuzzer(config).Run();
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  FuzzReport& report = report_or.value();

  EXPECT_EQ(report.stats.execs, 20000u);
  ASSERT_GE(report.triage.buckets().size(), 1u);
  EXPECT_GT(report.stats.crashing_execs,
            report.triage.buckets().size());  // dedup actually deduped

  // Find the overflow-site bucket (fault inside connman.copy_label).
  auto target = MakeTarget(config.target);
  ASSERT_TRUE(target.ok());
  const CrashBucket* overflow_bucket = nullptr;
  for (const CrashBucket& bucket : report.triage.buckets()) {
    if (target.value()->AtOverflowSite(bucket.key.pc) &&
        bucket.key.stop_reason == vm::StopReason::kFault) {
      overflow_bucket = &bucket;
      break;
    }
  }
  ASSERT_NE(overflow_bucket, nullptr)
      << "no bucket at the get_name overflow site";

  // The minimized reproducer still triggers the overflow, in the same
  // bucket core, and reports the stack overflow the paper describes.
  CoverageMap scratch;
  const ExecResult replay =
      target.value()->Execute(overflow_bucket->minimized, scratch);
  EXPECT_NE(replay.kind, ExecResult::Kind::kBenign);
  EXPECT_TRUE(replay.overflow);
  EXPECT_GT(replay.bytes_expanded, 1024u);  // past the name buffer
  EXPECT_TRUE(KeyFor(replay, *target.value())
                  .CoreMatches(overflow_bucket->key));

  // Size class: no worse than 2x the hand-crafted malicious response.
  dns::Message query = dns::Message::Query(0x4655, "fuzz.example.com");
  auto junk = dns::JunkLabels(1100);  // just past the 1056-byte ret slot
  ASSERT_TRUE(junk.ok());
  auto crafted =
      dns::Encode(dns::MaliciousAResponse(query, junk.value()));
  ASSERT_TRUE(crafted.ok());
  EXPECT_LE(overflow_bucket->minimized.size(), 2 * crafted.value().size());
  EXPECT_LE(overflow_bucket->minimized.size(), overflow_bucket->witness.size());

  // Serialized reproducer round-trips and replays.
  const std::string text = SerializeReproducer(config.target, *overflow_bucket);
  auto parsed = ParseReproducer(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto replayed = ReplayReproducer(parsed.value());
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(replayed.value().overflow);
}

TEST(Fuzzer, MultiWorkerRunsAreDeterministic) {
  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.seed = 5;
  config.max_execs = 6000;
  config.workers = 3;
  config.minimize = false;
  auto first = Fuzzer(config).Run();
  auto second = Fuzzer(config).Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().stats.execs, second.value().stats.execs);
  EXPECT_EQ(first.value().stats.crashing_execs,
            second.value().stats.crashing_execs);
  EXPECT_EQ(first.value().stats.coverage_digest,
            second.value().stats.coverage_digest);
  ASSERT_EQ(first.value().triage.buckets().size(),
            second.value().triage.buckets().size());
  for (std::size_t i = 0; i < first.value().triage.buckets().size(); ++i) {
    EXPECT_EQ(first.value().triage.buckets()[i].key,
              second.value().triage.buckets()[i].key);
    EXPECT_EQ(first.value().triage.buckets()[i].witness,
              second.value().triage.buckets()[i].witness);
  }
}

FuzzConfig EightWorkerConfig() {
  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.seed = 42;
  config.max_execs = 8000;  // 1000 per worker
  config.workers = 8;
  config.sync_interval = 250;  // several epoch exchanges per worker
  config.minimize = false;
  return config;
}

TEST(Fuzzer, EightWorkerCampaignsAreScheduleIndependent) {
  // The strong determinism contract: with epoch sync on, repeated
  // eight-worker campaigns are BYTE-identical — same merged corpus bytes,
  // same coverage digest, same bucket set — no matter how the OS schedules
  // the worker threads between barriers.
  auto first = Fuzzer(EightWorkerConfig()).Run();
  auto second = Fuzzer(EightWorkerConfig()).Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.value().stats.execs, second.value().stats.execs);
  EXPECT_EQ(first.value().stats.coverage_digest,
            second.value().stats.coverage_digest);
  EXPECT_EQ(SerializeCorpus(first.value().corpus),
            SerializeCorpus(second.value().corpus));
  ASSERT_EQ(first.value().triage.buckets().size(),
            second.value().triage.buckets().size());
  for (std::size_t i = 0; i < first.value().triage.buckets().size(); ++i) {
    EXPECT_EQ(first.value().triage.buckets()[i].key,
              second.value().triage.buckets()[i].key);
    EXPECT_EQ(first.value().triage.buckets()[i].witness,
              second.value().triage.buckets()[i].witness);
  }
}

TEST(Fuzzer, EightWorkerCampaignMatchesReferenceDigest) {
  // Pinned outcome for (seed=42, workers=8, 8000 execs, sync every 250):
  // determinism must hold not just within one binary but across rebuilds
  // and machines. The corpus digest is the discriminating one — dnsproxy
  // coverage saturates quickly, but the merged corpus bytes encode the
  // whole mutation trajectory. If an intentional behaviour change moves
  // these, re-pin them in the same commit and say so — an UNintentional
  // move means scheduling leaked into the campaign.
  constexpr std::uint64_t kCoverageDigest = 0xd8788bc796ab373cULL;
  constexpr std::uint64_t kCorpusDigest = 0x9c372e9e5056301aULL;
  auto report = Fuzzer(EightWorkerConfig()).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().stats.coverage_digest, kCoverageDigest)
      << std::hex << report.value().stats.coverage_digest;
  std::uint64_t corpus_digest = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : SerializeCorpus(report.value().corpus)) {
    corpus_digest ^= static_cast<std::uint8_t>(c);
    corpus_digest *= 0x100000001b3ULL;
  }
  EXPECT_EQ(corpus_digest, kCorpusDigest) << std::hex << corpus_digest;
}

TEST(Fuzzer, SyncDisabledCampaignsAreStillDeterministic) {
  // sync_interval = 0 turns cross-worker corpus sharing off entirely;
  // workers explore independently and only the final merge joins them.
  // That mode has its own (different) deterministic outcome.
  FuzzConfig config = EightWorkerConfig();
  config.sync_interval = 0;
  auto first = Fuzzer(config).Run();
  auto second = Fuzzer(config).Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().stats.coverage_digest,
            second.value().stats.coverage_digest);
  EXPECT_EQ(SerializeCorpus(first.value().corpus),
            SerializeCorpus(second.value().corpus));
}

TEST(Fuzzer, PatchedDnsproxySurvivesTheSameCampaign) {
  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.target.patched = true;
  config.seed = 42;  // the very seed that kills the vulnerable build
  config.max_execs = 10000;
  config.minimize = false;
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().stats.crashing_execs, 0u);
  EXPECT_TRUE(report.value().triage.buckets().empty());
}

TEST(Fuzzer, FindsMinimasqOverflow) {
  FuzzConfig config;
  config.target.kind = TargetKind::kMinimasq;
  config.seed = 7;
  config.max_execs = 12000;
  config.stop_after_crashes = 1;
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report.value().triage.buckets().size(), 1u);
  const CrashBucket& bucket = report.value().triage.buckets()[0];
  // Minimized witness still crashes minimasq in the same bucket core.
  auto target = MakeTarget(config.target);
  ASSERT_TRUE(target.ok());
  CoverageMap scratch;
  const ExecResult replay = target.value()->Execute(bucket.minimized, scratch);
  EXPECT_NE(replay.kind, ExecResult::Kind::kBenign);
  EXPECT_TRUE(KeyFor(replay, *target.value()).CoreMatches(bucket.key));
}

TEST(Fuzzer, FindsHttpcamdOverflow) {
  FuzzConfig config;
  config.target.kind = TargetKind::kHttpcamd;
  config.seed = 7;
  config.max_execs = 30000;
  config.stop_after_crashes = 1;
  config.minimize = false;
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report.value().triage.buckets().size(), 1u);
}

// Bounded-budget rediscovery for the pointer-loop bug class: from benign
// resolvd queries only, a tiny fixed-seed campaign plants a self-referencing
// compression pointer and drives the resolver into stack exhaustion.
TEST(Fuzzer, RediscoversResolvdPointerLoop) {
  FuzzConfig config;
  config.target.kind = TargetKind::kResolvd;
  config.seed = 42;
  config.max_execs = 2000;
  config.workers = 1;
  config.stop_after_crashes = 1;
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report.value().triage.buckets().size(), 1u);
  const CrashBucket& bucket = report.value().triage.buckets()[0];

  auto target = MakeTarget(config.target);
  ASSERT_TRUE(target.ok());
  CoverageMap scratch;
  const ExecResult replay = target.value()->Execute(bucket.minimized, scratch);
  EXPECT_NE(replay.kind, ExecResult::Kind::kBenign);
  EXPECT_TRUE(KeyFor(replay, *target.value()).CoreMatches(bucket.key));
}

// Bounded-budget rediscovery for the heap-metadata bug class: benign PUT
// requests mutate into an oversized in-place update that faults inside the
// allocator when the stomped chunk is freed. The daemon keeps heap state
// across executions, so the crash is a *sequence* property — the witness
// alone replays benign on a fresh boot (which is why no replay is asserted
// here). Observed budget at this seed is ~6k execs; 20k gives headroom.
TEST(Fuzzer, RediscoversCamstoredHeapCorruption) {
  FuzzConfig config;
  config.target.kind = TargetKind::kCamstored;
  config.seed = 42;
  config.max_execs = 20000;
  config.workers = 1;
  config.stop_after_crashes = 1;
  config.minimize = false;  // minimization replays single inputs: stateful
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report.value().stats.crashing_execs, 1u);
  EXPECT_LT(report.value().stats.execs, 20000u)
      << "stop_after_crashes should have ended the campaign early";
  ASSERT_GE(report.value().triage.buckets().size(), 1u);
  const CrashBucket& bucket = report.value().triage.buckets()[0];
  // The fault is the allocator tripping over stomped metadata, not a
  // parser crash: the detail names the free path.
  EXPECT_NE(bucket.first_result.detail.find("free"), std::string::npos)
      << bucket.first_result.detail;
}

// Pinned single-worker outcomes for the four zoo targets (seed 42, 20000
// execs; `fuzz_campaign 42 20000 1 <target>` prints the same numbers). Like
// the dnsproxy pins above: an intentional behaviour change re-pins them in
// the same commit and says so.
TEST(Fuzzer, ZooCampaignsMatchReferenceDigests) {
  struct Pin {
    TargetKind kind;
    std::uint64_t coverage_digest;
    std::uint32_t cells;
    std::size_t buckets;
  };
  constexpr Pin kPins[] = {
      {TargetKind::kMinimasq, 0xeaddaffac2f1561fULL, 16, 2},
      {TargetKind::kHttpcamd, 0xcef5298690d6be05ULL, 31, 3},
      {TargetKind::kResolvd, 0xfd69fafca65c60f1ULL, 25, 2},
      {TargetKind::kCamstored, 0x3a7a3dd9b85885efULL, 34, 1},
  };
  for (const Pin& pin : kPins) {
    FuzzConfig config;
    config.target.kind = pin.kind;
    config.seed = 42;
    config.max_execs = 20000;
    config.workers = 1;
    config.minimize = false;  // minimization moves no digest or bucket
    auto report = Fuzzer(config).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().stats.coverage_digest, pin.coverage_digest)
        << TargetKindName(pin.kind) << ": " << std::hex
        << report.value().stats.coverage_digest;
    EXPECT_EQ(report.value().stats.coverage_cells, pin.cells)
        << TargetKindName(pin.kind);
    EXPECT_EQ(report.value().triage.buckets().size(), pin.buckets)
        << TargetKindName(pin.kind);
  }
}

// The minimizer's re-executions are not campaign execs, so its reboots are
// not campaign reboots either: every minimasq crash reboots the target
// once, with minimization on or off.
TEST(Fuzzer, RebootsLeaveOutTheMinimizer) {
  for (const bool minimize : {false, true}) {
    FuzzConfig config;
    config.target.kind = TargetKind::kMinimasq;
    config.seed = 42;
    config.max_execs = 20000;
    config.workers = 1;
    config.minimize = minimize;
    auto report = Fuzzer(config).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().stats.crashing_execs, 420u);
    EXPECT_EQ(report.value().stats.reboots, 420u) << "minimize=" << minimize;
  }
}

TEST(Fuzzer, RejectsDegenerateConfigs) {
  FuzzConfig config;
  config.workers = 0;
  EXPECT_FALSE(Fuzzer(config).Run().ok());
  config.workers = 64;
  config.max_execs = 10;
  EXPECT_FALSE(Fuzzer(config).Run().ok());
}

/// A budget that doesn't divide evenly must still be spent exactly: the
/// remainder execs go to the first max_execs % workers workers instead of
/// being silently dropped.
TEST(Fuzzer, IndivisibleBudgetIsSpentExactly) {
  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.seed = 5;
  config.max_execs = 150;  // 150 = 7*21 + 3: three workers run one extra
  config.workers = 7;
  config.minimize = false;
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().stats.execs, 150u);

  // Evenly divisible budgets are untouched by the remainder logic.
  config.max_execs = 140;
  auto even = Fuzzer(config).Run();
  ASSERT_TRUE(even.ok());
  EXPECT_EQ(even.value().stats.execs, 140u);
}

// ------------------------------------------------- corpus persistence ----

TEST(CorpusPersistence, SerializeDeserializeRoundTrip) {
  Corpus corpus;
  corpus.Add(Bytes{0x00, 0xFF, 0x41}, 2, 7);
  corpus.Add(Bytes{0xC0, 0x0C}, 1, 123456);
  corpus.Add(Bytes{}, 1, 0);  // empty entry survives too

  auto back = DeserializeCorpus(SerializeCorpus(corpus));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(back.value().entry(i).data, corpus.entry(i).data) << i;
    EXPECT_EQ(back.value().entry(i).news, corpus.entry(i).news) << i;
    EXPECT_EQ(back.value().entry(i).found_at, corpus.entry(i).found_at) << i;
    EXPECT_EQ(back.value().entry(i).picks, 0u) << i;  // per-campaign state
  }
}

TEST(CorpusPersistence, SaveLoadFileRoundTrip) {
  const std::string path = "test_corpus_roundtrip.tmp";
  Corpus corpus;
  corpus.Add(Bytes{1, 2, 3, 4}, 2, 9);
  ASSERT_TRUE(SaveCorpus(corpus, path).ok());
  auto loaded = LoadCorpus(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value().entry(0).data, (Bytes{1, 2, 3, 4}));
}

TEST(CorpusPersistence, RejectsGarbage) {
  EXPECT_FALSE(DeserializeCorpus("not a corpus").ok());
  EXPECT_FALSE(DeserializeCorpus("connlab-corpus v1\nentry nope\n").ok());
  auto bad_hex = DeserializeCorpus(
      "connlab-corpus v1\nentry news=1 found_at=0 size=2\nzzzz\n");
  ASSERT_FALSE(bad_hex.ok());
  EXPECT_EQ(bad_hex.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_hex.status().message(), "corpus file: bad hex payload");
  EXPECT_FALSE(
      DeserializeCorpus("connlab-corpus v1\n"
                        "entry news=1 found_at=0 size=4\nzzzz\n")
          .ok());
  // size * 2 wraps to 0, which would match the empty payload line.
  EXPECT_FALSE(
      DeserializeCorpus("connlab-corpus v1\n"
                        "entry news=1 found_at=0 size=9223372036854775808\n"
                        "\n")
          .ok());
  EXPECT_FALSE(LoadCorpus("does_not_exist.corpus").ok());
}

TEST(CorpusPersistence, CampaignSavesAndResumes) {
  const std::string path = "test_corpus_campaign.tmp";
  std::remove(path.c_str());

  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.seed = 11;
  config.max_execs = 3000;
  config.minimize = false;
  config.corpus_path = path;
  auto first = Fuzzer(config).Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first.value().corpus.size(), 0u);

  // The file now holds the merged corpus...
  auto persisted = LoadCorpus(path);
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_EQ(persisted.value().size(), first.value().corpus.size());

  // ...and a resumed campaign seeds from it (the persisted entries join the
  // seed round, so the second run executes at least as many seeds).
  config.seed = 12;  // different stream, same accumulated corpus
  auto second = Fuzzer(config).Run();
  std::remove(path.c_str());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GE(second.value().corpus.size(), first.value().corpus.size());
}

// ----------------------------------------------------- corpus distillation --

TEST(Distillation, PreservesCoverageAndDropsRedundantEntries) {
  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.seed = 11;
  config.max_execs = 3000;
  config.minimize = false;
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Corpus& full = report.value().corpus;
  ASSERT_GT(full.size(), 1u);

  auto distilled = DistillCorpus(full, config.target);
  ASSERT_TRUE(distilled.ok()) << distilled.status().ToString();
  EXPECT_GT(distilled.value().size(), 0u);
  EXPECT_LE(distilled.value().size(), full.size());

  // The kept set covers everything the full corpus covers.
  auto target = MakeTarget(config.target);
  ASSERT_TRUE(target.ok());
  const auto cover = [&](const Corpus& c) {
    CoverageMap merged;
    for (std::size_t i = 0; i < c.size(); ++i) {
      CoverageMap map;
      target.value()->Execute(c.entry(i).data, map);
      map.Classify();
      merged.MergeClassified(map);
    }
    return merged.Digest();
  };
  EXPECT_EQ(cover(distilled.value()), cover(full));

  // Deterministic: same corpus in, same kept set out.
  auto again = DistillCorpus(full, config.target);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again.value().size(), distilled.value().size());
  for (std::size_t i = 0; i < again.value().size(); ++i) {
    EXPECT_EQ(again.value().entry(i).data, distilled.value().entry(i).data);
  }

  // An entry contributing nothing new is dropped, not kept.
  Corpus padded;
  for (std::size_t i = 0; i < full.size(); ++i) {
    padded.Add(full.entry(i).data, full.entry(i).news, full.entry(i).found_at);
  }
  Bytes dup = full.entry(0).data;
  dup.push_back(dup.empty() ? 0 : dup.back());  // same edges, new bytes
  padded.Add(dup, 1, 9999);
  auto repadded = DistillCorpus(padded, config.target);
  ASSERT_TRUE(repadded.ok());
  EXPECT_LE(repadded.value().size(), distilled.value().size() + 1);
}

TEST(Distillation, CampaignDistillFlagShrinksPersistedCorpus) {
  const std::string path = "test_corpus_distill.tmp";
  std::remove(path.c_str());

  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.seed = 11;
  config.max_execs = 3000;
  config.minimize = false;
  config.corpus_path = path;
  config.distill = true;
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto persisted = LoadCorpus(path);
  std::remove(path.c_str());
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  EXPECT_GT(persisted.value().size(), 0u);
  // The file holds the distilled set, never more than the merged corpus.
  EXPECT_LE(persisted.value().size(), report.value().corpus.size());
}

// ----------------------------------------------------------- dictionary ----

TEST(Dictionary, ParsesAflStyleLines) {
  auto tokens = ParseDictionary(
      "# DNS structural tokens\n"
      "\n"
      "ptr_self=\"\\xc0\\x0c\"\n"
      "  label_max=\"\\x3F\"\n"
      "\"bare\\\"quote\"\n");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_EQ(tokens.value().size(), 3u);
  EXPECT_EQ(tokens.value()[0], (Bytes{0xC0, 0x0C}));
  EXPECT_EQ(tokens.value()[1], (Bytes{0x3F}));
  EXPECT_EQ(tokens.value()[2], (Bytes{'b', 'a', 'r', 'e', '"', 'q', 'u',
                                      'o', 't', 'e'}));
}

TEST(Dictionary, RejectsMalformedLines) {
  EXPECT_FALSE(ParseDictionary("token=unquoted\n").ok());
  EXPECT_FALSE(ParseDictionary("x=\"unterminated\n").ok());
  EXPECT_FALSE(ParseDictionary("x=\"bad\\q\"\n").ok());
  EXPECT_FALSE(ParseDictionary("x=\"\\x4\"\n").ok());
  auto bad_escape = ParseDictionary("x=\"\\xg1\"");
  ASSERT_FALSE(bad_escape.ok());
  EXPECT_EQ(bad_escape.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_escape.status().message(),
            "dictionary: bad \\x escape: x=\"\\xg1\"");
  EXPECT_FALSE(ParseDictionary("x=\"\"\n").ok());
  EXPECT_FALSE(LoadDictionaryFile("does_not_exist.dict").ok());
}

TEST(Dictionary, EmptyTextIsEmptyDictionary) {
  auto tokens = ParseDictionary("# only comments\n\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(tokens.value().empty());
}

TEST(Dictionary, AbsentDictionaryLeavesMutationStreamUnchanged) {
  // A null or empty dictionary must not consume extra RNG draws — replay
  // compatibility for every pre-dictionary campaign.
  const Bytes seed = DnsSeed();
  const std::vector<Bytes> empty;
  MutationHint no_dict{12, true, 4096, nullptr};
  MutationHint empty_dict{12, true, 4096, &empty};
  Mutator a(util::Rng(99));
  Mutator b(util::Rng(99));
  Bytes mutant_a;
  Bytes mutant_b;
  for (int i = 0; i < 200; ++i) {
    a.MutateInto(seed, no_dict, {}, mutant_a);
    b.MutateInto(seed, empty_dict, {}, mutant_b);
    EXPECT_EQ(mutant_a, mutant_b) << i;
  }
}

TEST(Dictionary, TokensGetSpliced) {
  const Bytes seed = DnsSeed();
  const std::vector<Bytes> dict = {Bytes{0xDE, 0xAD, 0xBE, 0xEF}};
  MutationHint hint{12, false, 4096, &dict};
  Mutator mutator(util::Rng(5));
  bool seen = false;
  Bytes mutant;
  for (int i = 0; i < 400 && !seen; ++i) {
    mutator.MutateInto(seed, hint, {}, mutant);
    for (std::size_t at = 0; at + 4 <= mutant.size(); ++at) {
      if (mutant[at] == 0xDE && mutant[at + 1] == 0xAD &&
          mutant[at + 2] == 0xBE && mutant[at + 3] == 0xEF) {
        seen = true;
        break;
      }
    }
  }
  EXPECT_TRUE(seen) << "dictionary token never spliced in 400 mutants";
}

TEST(Dictionary, BuiltinDnsDictionaryIsUsable) {
  const auto tokens = DefaultDnsDictionary();
  ASSERT_FALSE(tokens.empty());
  for (const Bytes& t : tokens) EXPECT_FALSE(t.empty());

  FuzzConfig config;
  config.target.kind = TargetKind::kDnsproxy;
  config.seed = 21;
  config.max_execs = 3000;
  config.minimize = false;
  config.dictionary = tokens;
  auto report = Fuzzer(config).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().stats.execs, 0u);
}

}  // namespace
}  // namespace connlab::fuzz
