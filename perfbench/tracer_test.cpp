// Checks for the tracer's self-time and percentile helpers. run.py runs
// this binary after every build and refuses to benchmark if it fails.
#include <cstdio>
#include <vector>

#include "tracer.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

Span Make(std::uint64_t start, std::uint64_t end, std::uint32_t parent) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

void SelfTimeSubtractsDirectChildrenOnly() {
  // root [0,100) > a [10,40) > b [15,25); root > c [50,90)
  const std::vector<Span> spans = {Make(0, 100, kNoParent), Make(10, 40, 0),
                                   Make(15, 25, 1), Make(50, 90, 0)};
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  Expect(self[0] == 30, "root self = 100 - 30 - 40");
  Expect(self[1] == 20, "child self = 30 - 10");
  Expect(self[2] == 10, "leaf self = its duration");
  Expect(self[3] == 40, "second child self");
  std::uint64_t sum = 0;
  for (std::uint64_t s : self) sum += s;
  Expect(sum == 100, "self times partition the root");
}

void SelfTimeNeverUnderflows() {
  // A child that reads a few ns past its parent (clock granularity).
  const std::vector<Span> spans = {Make(0, 10, kNoParent), Make(0, 12, 0)};
  Expect(SelfTimes(spans)[0] == 0, "overlong child clamps parent self to 0");
}

void RecordedSpansNest() {
  Tracer tracer;
  {
    Tracer::Scope root(tracer, 0, 7);
    const int v = Traced(tracer, 1, 7, [] { return 42; });
    Expect(v == 42, "Traced returns the call's result");
    Traced(tracer, 2, 8, [] {});
  }
  const std::vector<Span>& spans = tracer.spans();
  Expect(spans.size() == 3, "three spans recorded");
  Expect(spans[0].parent == kNoParent, "root has no parent");
  Expect(spans[1].parent == 0 && spans[2].parent == 0, "children point at root");
  Expect(spans[1].op == 7 && spans[2].op == 8, "operation ids kept");
  Expect(spans[0].start_ns <= spans[1].start_ns &&
             spans[2].end_ns <= spans[0].end_ns,
         "children lie inside the root");
  Expect(CountCalls({spans}, 0) == 1 && CountCalls({spans, spans}, 2) == 2,
         "CountCalls counts by name across threads");
}

void PercentileUsesNearestRank() {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 1; i <= 100; ++i) samples.push_back(101 - i);
  const auto p50 = Percentile(samples, 0.50);
  Expect(p50 && *p50 == 50, "p50 of 1..100 is 50");
  const auto p90 = Percentile(samples, 0.90);
  Expect(p90 && *p90 == 90, "p90 of 1..100 is 90 (10 samples beyond)");
}

void PercentileNeedsTenSamplesBeyond() {
  std::vector<std::uint64_t> samples(999, 5);
  Expect(!Percentile(samples, 0.99), "no p99 from 999 samples (9 beyond)");
  samples.push_back(5);
  Expect(Percentile(samples, 0.99).has_value(), "p99 from 1000 samples");
  Expect(!Percentile({}, 0.5), "no percentile of nothing");
  Expect(!Percentile(std::vector<std::uint64_t>(5, 1), 0.5),
         "no p50 from 5 samples (2 beyond)");
}

void AccumulateSumsPerName() {
  const std::vector<Span> spans = {Make(0, 100, kNoParent), Make(10, 40, 0),
                                   Make(50, 90, 0)};
  std::vector<Span> named = spans;
  named[1].name = 1;
  named[2].name = 1;
  std::vector<SpanTotals> totals;
  Accumulate(named, {false, true}, totals);
  Expect(totals.size() == 2, "one total per name");
  Expect(totals[0].calls == 1 && totals[0].self_ns == 30, "root totals");
  Expect(totals[1].calls == 2 && totals[1].busy_ns == 70 &&
             totals[1].self_ns == 70,
         "child totals");
  Expect(totals[1].durations_ns.size() == 2 && totals[0].durations_ns.empty(),
         "durations kept only where asked");
}

}  // namespace

int main() {
  SelfTimeSubtractsDirectChildrenOnly();
  SelfTimeNeverUnderflows();
  RecordedSpansNest();
  PercentileUsesNearestRank();
  PercentileNeedsTenSamplesBeyond();
  AccumulateSumsPerName();
  if (failures != 0) {
    std::fprintf(stderr, "%d tracer check(s) failed\n", failures);
    return 1;
  }
  std::printf("tracer checks passed\n");
  return 0;
}
