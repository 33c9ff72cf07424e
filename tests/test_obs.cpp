// Observability layer tests: sharded counter/gauge/histogram semantics,
// registry interning, Chrome-trace export well-formedness, obs::Scope
// rebasing, thread-safety of the hot-path increments (exercised under tsan
// in CI), and the differentials that pin the layer's core promises:
// deterministic fixed-seed campaign metrics, fuzz.execs == reported execs,
// and identical campaign results with and without a trace sink installed.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/fuzz/fuzzer.hpp"
#include "src/obs/obs.hpp"

namespace connlab::obs {
namespace {

// ------------------------------------------------------------- metrics ----

TEST(ObsMetrics, CounterAddAndSum) {
  Counter c("test.counter");
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  EXPECT_EQ(c.name(), "test.counter");
}

TEST(ObsMetrics, GaugeLastWriteWins) {
  Gauge g("test.gauge");
  g.Set(7);
  g.Set(3);
  EXPECT_EQ(g.Value(), 3u);
}

TEST(ObsMetrics, HistogramBucketMap) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Values past the top bucket saturate instead of indexing out of range.
  EXPECT_EQ(Histogram::BucketIndex(~0ull), Histogram::kBuckets - 1);
}

TEST(ObsMetrics, HistogramObserveAggregates) {
  Histogram h("test.hist");
  h.Observe(0);
  h.Observe(5);
  h.Observe(5);
  h.Observe(600);
  const Histogram::Data data = h.Snapshot();
  EXPECT_EQ(data.count, 4u);
  EXPECT_EQ(data.sum, 610u);
  ASSERT_EQ(data.buckets.size(), Histogram::kBuckets);
  EXPECT_EQ(data.buckets[0], 1u);                           // the zero
  EXPECT_EQ(data.buckets[Histogram::BucketIndex(5)], 2u);   // the fives
  EXPECT_EQ(data.buckets[Histogram::BucketIndex(600)], 1u);
}

TEST(ObsMetrics, RegistryInternsByName) {
  Registry& reg = Registry::Instance();
  Counter& a = reg.GetCounter("obs_test.interned");
  Counter& b = reg.GetCounter("obs_test.interned");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  const MetricsSnapshot snap = reg.Scrape();
  const auto it = snap.counters.find("obs_test.interned");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_GE(it->second, 5u);
}

TEST(ObsMetrics, DeltaSinceRebasesCountersAndHistograms) {
  Registry& reg = Registry::Instance();
  Counter& c = reg.GetCounter("obs_test.delta");
  Histogram& h = reg.GetHistogram("obs_test.delta_hist");
  c.Add(10);
  h.Observe(4);
  const MetricsSnapshot base = reg.Scrape();
  c.Add(3);
  h.Observe(4);
  h.Observe(9);
  const MetricsSnapshot delta = reg.Scrape().DeltaSince(base);
  EXPECT_EQ(delta.counters.at("obs_test.delta"), 3u);
  const Histogram::Data& hd = delta.histograms.at("obs_test.delta_hist");
  EXPECT_EQ(hd.count, 2u);
  EXPECT_EQ(hd.sum, 13u);
}

// Hot-path increments from many threads must neither race (tsan runs this
// suite in CI) nor lose counts.
TEST(ObsMetrics, ShardedCounterThreadSafety) {
  Registry& reg = Registry::Instance();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  const MetricsSnapshot base = reg.Scrape();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // GetCounter from every thread on purpose: the registry mutex and the
      // sharded adds are both part of the contract under test.
      Counter& c = reg.GetCounter("obs_test.threads");
      Histogram& h = reg.GetHistogram("obs_test.threads_hist");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.Add();
        if (i % 1000 == 0) h.Observe(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot delta = reg.Scrape().DeltaSince(base);
  EXPECT_EQ(delta.counters.at("obs_test.threads"), kThreads * kPerThread);
  EXPECT_EQ(delta.histograms.at("obs_test.threads_hist").count,
            kThreads * (kPerThread / 1000));
}

// --------------------------------------------------------------- trace ----

TEST(ObsTrace, SpanIsNoOpWithoutSink) {
  ASSERT_EQ(CurrentTraceSink(), nullptr);
  {
    TraceSpan span("test", "ignored");
    span.Arg("key", "value");
  }
  EXPECT_EQ(CurrentTraceSink(), nullptr);
}

TEST(ObsTrace, SinkRecordsSpansAndInstants) {
  TraceSink sink;
  TraceSink* prev = InstallTraceSink(&sink);
  {
    TraceSpan span("test", "outer");
    span.Arg("answer", std::uint64_t{42});
    sink.RecordInstant("test", "tick");
  }
  InstallTraceSink(prev);
  const std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by timestamp: the instant happened inside the span.
  EXPECT_LE(events.front().ts_us, events.back().ts_us);
  bool saw_span = false;
  bool saw_instant = false;
  for (const TraceEvent& e : events) {
    if (e.name == "outer") {
      saw_span = true;
      EXPECT_FALSE(e.instant);
      ASSERT_EQ(e.args.size(), 1u);
      EXPECT_EQ(e.args[0].first, "answer");
      EXPECT_EQ(e.args[0].second, "42");
    }
    if (e.name == "tick") {
      saw_instant = true;
      EXPECT_TRUE(e.instant);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST(ObsTrace, EventsAreTimestampSorted) {
  TraceSink sink;
  // Deliberately recorded out of order.
  sink.RecordSpan(50, 60, "test", "late");
  sink.RecordSpan(10, 20, "test", "early");
  const std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
  EXPECT_EQ(events[0].name, "early");
  EXPECT_EQ(events[1].name, "late");
}

TEST(ObsTrace, JsonExportIsWellFormed) {
  TraceSink sink;
  sink.RecordSpan(10, 25, "fuzz", "span \"quoted\"\n");
  sink.RecordInstant("fuzz", "crash", {{"detail", "a\tb"}});
  const std::string json = TraceToJson(sink.Events());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 15"), std::string::npos);
  // Control characters and quotes must come out escaped.
  EXPECT_NE(json.find("span \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("a\\tb"), std::string::npos);
  // Crude but effective balance check over the whole document.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// --------------------------------------------------------------- scope ----

TEST(ObsScope, InstallsAndRestoresSink) {
  ASSERT_EQ(CurrentTraceSink(), nullptr);
  {
    Scope outer(ScopeOptions{.trace = true});
    EXPECT_EQ(CurrentTraceSink(), outer.trace_sink());
    {
      // A nested tracing scope chains to the outer sink and puts it back.
      Scope inner(ScopeOptions{.trace = true});
      EXPECT_EQ(CurrentTraceSink(), inner.trace_sink());
    }
    EXPECT_EQ(CurrentTraceSink(), outer.trace_sink());
  }
  EXPECT_EQ(CurrentTraceSink(), nullptr);
}

TEST(ObsScope, NonTracingScopeLeavesSinkAlone) {
  Scope scope;  // default: no trace
  EXPECT_EQ(scope.trace_sink(), nullptr);
  EXPECT_EQ(CurrentTraceSink(), nullptr);
  const util::Status status = scope.WriteTraceJson("/dev/null");
  EXPECT_FALSE(status.ok());
}

// ------------------------------------------------------------ campaign ----

fuzz::FuzzConfig SmallCampaign(std::uint64_t seed, std::size_t workers) {
  fuzz::FuzzConfig config;
  config.seed = seed;
  config.max_execs = 600;
  config.workers = workers;
  config.target.kind = fuzz::TargetKind::kDnsproxy;
  return config;
}

// A fixed-seed campaign produces exactly the counter values its report
// claims — fuzz.execs in particular is defined to match stats.execs.
TEST(ObsCampaign, FixedSeedCampaignMetricsAreExact) {
  Scope scope;
  auto report = fuzz::Fuzzer(SmallCampaign(42, 1)).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const fuzz::FuzzStats& stats = report.value().stats;
  const MetricsSnapshot m = scope.Metrics();
  EXPECT_EQ(m.counters.at("fuzz.execs"), stats.execs);
  EXPECT_EQ(m.counters.at("fuzz.crashes"), stats.crashing_execs);
  EXPECT_EQ(m.counters.at("fuzz.reboots"), stats.reboots);
  EXPECT_EQ(m.counters.at("fuzz.worker.0.execs"), stats.execs);
  // Every exec observed its input size exactly once.
  EXPECT_EQ(m.histograms.at("fuzz.input_bytes").count, stats.execs);
  // The campaign booted at least the fuzz target (and its snapshot).
  EXPECT_GE(m.counters.at("loader.boots"), 1u);
  EXPECT_GE(m.counters.at("loader.snapshots_taken"), 1u);
}

// Two identically-seeded campaigns run back to back in one process scrape
// identical counter deltas, with nothing reset in between: no counter
// depends on what ran earlier in the process.
TEST(ObsCampaign, MetricsAreDeterministicAcrossRuns) {
  const auto run_once = [] {
    Scope scope;
    auto report = fuzz::Fuzzer(SmallCampaign(7, 2)).Run();
    EXPECT_TRUE(report.ok());
    MetricsSnapshot m = scope.Metrics();
    // Wall-clock gauges/rates don't exist in the registry; everything
    // scraped here is a deterministic function of the seed.
    return m;
  };
  const MetricsSnapshot a = run_once();
  const MetricsSnapshot b = run_once();
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.histograms.at("fuzz.input_bytes").count,
            b.histograms.at("fuzz.input_bytes").count);
  EXPECT_EQ(a.histograms.at("fuzz.input_bytes").sum,
            b.histograms.at("fuzz.input_bytes").sum);
}

std::uint64_t CounterOr0(const MetricsSnapshot& m, const char* name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? std::uint64_t{0} : it->second;
}

// The minimizer counts its own executions and reboots under
// fuzz.minimize.*, and leaves fuzz.execs and fuzz.reboots exactly as the
// same campaign without minimization reports them.
TEST(ObsCampaign, MinimizerCountsItsOwnWork) {
  const auto run = [](bool minimize) {
    Scope scope;
    fuzz::FuzzConfig config;
    config.seed = 42;
    config.max_execs = 20000;
    config.workers = 1;
    config.minimize = minimize;
    config.target.kind = fuzz::TargetKind::kMinimasq;
    auto report = fuzz::Fuzzer(config).Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return scope.Metrics();
  };
  const MetricsSnapshot on = run(true);
  const MetricsSnapshot off = run(false);
  EXPECT_GT(CounterOr0(on, "fuzz.minimize.execs"), 0u);
  EXPECT_GT(CounterOr0(on, "fuzz.minimize.reboots"), 0u);
  EXPECT_EQ(CounterOr0(off, "fuzz.minimize.execs"), 0u);
  EXPECT_EQ(CounterOr0(off, "fuzz.minimize.reboots"), 0u);
  EXPECT_EQ(on.counters.at("fuzz.execs"), off.counters.at("fuzz.execs"));
  EXPECT_EQ(on.counters.at("fuzz.reboots"), off.counters.at("fuzz.reboots"));
  EXPECT_EQ(off.counters.at("fuzz.reboots"), 420u);
}

// The superblock tier's counters ride the CPU's batched obs flush: a
// campaign with the tier on (the default) exports compiles/hits/fallbacks
// under vm.superblock.*, and every compiled block is executed at least
// once. With the tier disabled on the target, the counters never appear —
// the campaign's counter deltas all stay at zero.
TEST(ObsCampaign, SuperblockCountersExported) {
  {
    Scope scope;
    auto report = fuzz::Fuzzer(SmallCampaign(42, 1)).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const MetricsSnapshot m = scope.Metrics();
    EXPECT_GT(m.counters.at("vm.superblock.compiles"), 0u);
    EXPECT_GT(m.counters.at("vm.superblock.hits"), 0u);
    EXPECT_GE(m.counters.at("vm.superblock.hits"),
              m.counters.at("vm.superblock.compiles"));
    // Host-function pcs and interpreter-only regions fall back by design.
    EXPECT_GT(m.counters.at("vm.superblock.fallbacks"), 0u);
  }
  {
    Scope scope;
    fuzz::FuzzConfig config = SmallCampaign(42, 1);
    config.target.exec.superblocks = false;
    auto report = fuzz::Fuzzer(config).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const MetricsSnapshot m = scope.Metrics();
    EXPECT_EQ(CounterOr0(m, "vm.superblock.compiles"), 0u);
    EXPECT_EQ(CounterOr0(m, "vm.superblock.hits"), 0u);
    EXPECT_EQ(CounterOr0(m, "vm.superblock.fallbacks"), 0u);
    EXPECT_EQ(CounterOr0(m, "vm.superblock.invalidations"), 0u);
  }
}

// Tier residency: every retired guest step is counted by exactly one tier,
// so vm.steps.superblock + vm.steps.interp == vm.steps. On dnsproxy the
// label copies run as self-looping blocks, so the superblock share is
// nonzero; with the tier off every step is the interpreter's.
TEST(ObsCampaign, TierResidencyCountersSumToSteps) {
  {
    Scope scope;
    auto report = fuzz::Fuzzer(SmallCampaign(42, 1)).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const MetricsSnapshot m = scope.Metrics();
    const std::uint64_t steps = m.counters.at("vm.steps");
    const std::uint64_t superblock = CounterOr0(m, "vm.steps.superblock");
    const std::uint64_t interp = CounterOr0(m, "vm.steps.interp");
    EXPECT_EQ(superblock + interp, steps);
    EXPECT_GT(superblock, 0u);
    EXPECT_GT(interp, 0u);  // host-function transits are interpreter steps
  }
  {
    Scope scope;
    fuzz::FuzzConfig config = SmallCampaign(42, 1);
    config.target.exec.superblocks = false;
    auto report = fuzz::Fuzzer(config).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const MetricsSnapshot m = scope.Metrics();
    EXPECT_EQ(CounterOr0(m, "vm.steps.superblock"), 0u);
    EXPECT_EQ(CounterOr0(m, "vm.steps.interp"), m.counters.at("vm.steps"));
  }
}

// The differential behind the "zero-cost when off" claim: installing a
// trace sink must not change what the campaign computes — same coverage
// digest, same exec count, same retired guest steps.
TEST(ObsCampaign, TraceSinkDoesNotPerturbCampaign) {
  std::uint64_t digest_off = 0, digest_on = 0;
  std::uint64_t execs_off = 0, execs_on = 0;
  std::uint64_t steps_off = 0, steps_on = 0;
  {
    Scope scope;  // metrics only, no sink installed
    auto report = fuzz::Fuzzer(SmallCampaign(1234, 2)).Run();
    ASSERT_TRUE(report.ok());
    digest_off = report.value().stats.coverage_digest;
    execs_off = report.value().stats.execs;
    steps_off = scope.Metrics().counters.at("vm.steps");
  }
  {
    Scope scope(ScopeOptions{.trace = true});
    auto report = fuzz::Fuzzer(SmallCampaign(1234, 2)).Run();
    ASSERT_TRUE(report.ok());
    digest_on = report.value().stats.coverage_digest;
    execs_on = report.value().stats.execs;
    steps_on = scope.Metrics().counters.at("vm.steps");
    EXPECT_GT(scope.trace_sink()->size(), 0u);
  }
  EXPECT_EQ(digest_off, digest_on);
  EXPECT_EQ(execs_off, execs_on);
  EXPECT_EQ(steps_off, steps_on);
}

// -------------------------------------------------------------- export ----

TEST(ObsExport, MetricsJsonCarriesScrapedValues) {
  Scope scope;
  Registry::Instance().GetCounter("obs_test.export").Add(9);
  Registry::Instance().GetHistogram("obs_test.export_hist").Observe(16);
  const std::string json = MetricsToJson(scope.Metrics());
  EXPECT_NE(json.find("\"obs_test.export\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.export_hist.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.export_hist.sum\": 16"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.export_hist.buckets\": ["),
            std::string::npos);
}

TEST(ObsExport, RenderTableGroupsAndSkipsZeros) {
  Scope scope;
  Registry::Instance().GetCounter("obs_test.table_hit").Add(3);
  // A counter that existed before the scope shows a zero delta: hidden.
  Registry::Instance().GetCounter("obs_test.table_zero");
  const std::string table = RenderMetricsTable(scope.Metrics());
  EXPECT_NE(table.find("[obs_test]"), std::string::npos);
  EXPECT_NE(table.find("obs_test.table_hit"), std::string::npos);
  EXPECT_EQ(table.find("obs_test.table_zero"), std::string::npos);
}

}  // namespace
}  // namespace connlab::obs
