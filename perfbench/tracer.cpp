#include "tracer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::uint32_t Tracer::Begin(std::uint16_t name, std::uint32_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? kNoParent : open_.back();
  const auto index = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = Now();
  spans_.push_back(span);
  return index;
}

void Tracer::End(std::uint32_t index) {
  spans_[index].end_ns = Now();
  open_.pop_back();
}

std::uint64_t CountCalls(const std::vector<std::vector<Span>>& threads,
                         std::uint16_t name) {
  std::uint64_t calls = 0;
  for (const std::vector<Span>& spans : threads) {
    for (const Span& span : spans) calls += span.name == name ? 1u : 0u;
  }
  return calls;
}

std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent == kNoParent) continue;
    const std::uint64_t dur = span.end_ns - span.start_ns;
    std::uint64_t& parent_self = self[span.parent];
    // Clock granularity can make children sum a few ns past their parent.
    parent_self = parent_self > dur ? parent_self - dur : 0;
  }
  return self;
}

std::optional<std::uint64_t> Percentile(std::vector<std::uint64_t> samples,
                                        double q) {
  constexpr std::size_t kMinBeyond = 10;
  if (samples.empty() || !(q > 0.0) || q > 1.0) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

void Accumulate(const std::vector<Span>& spans,
                const std::vector<bool>& keep_durations,
                std::vector<SpanTotals>& totals) {
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.name >= totals.size()) totals.resize(span.name + 1u);
    SpanTotals& t = totals[span.name];
    const std::uint64_t dur = span.end_ns - span.start_ns;
    ++t.calls;
    t.busy_ns += dur;
    t.self_ns += self[i];
    if (span.name < keep_durations.size() && keep_durations[span.name]) {
      t.durations_ns.push_back(dur);
    }
  }
}

namespace {

void PutField(std::string& line, std::uint64_t value, char sep) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  line.append(buf, res.ptr);
  line.push_back(sep);
}

}  // namespace

bool AppendSpansTsv(const std::string& path, std::size_t thread,
                    const std::vector<Span>& spans,
                    const std::vector<std::string>& names, bool truncate) {
  std::FILE* f = std::fopen(path.c_str(), truncate ? "w" : "a");
  if (f == nullptr) return false;
  std::string out;
  if (truncate) out = "thread\tindex\tname\tparent\top\tstart_ns\tend_ns\n";
  out.reserve(1u << 20);
  bool ok = true;
  for (std::size_t i = 0; i < spans.size() && ok; ++i) {
    const Span& s = spans[i];
    PutField(out, thread, '\t');
    PutField(out, i, '\t');
    out += s.name < names.size() ? names[s.name] : std::string("?");
    out.push_back('\t');
    if (s.parent == kNoParent) {
      out += "-\t";
    } else {
      PutField(out, s.parent, '\t');
    }
    PutField(out, s.op, '\t');
    PutField(out, s.start_ns, '\t');
    PutField(out, s.end_ns, '\n');
    if (out.size() > (1u << 20) - 256) {
      ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
      out.clear();
    }
  }
  if (ok && !out.empty()) {
    ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
