// Span tracer for the benchmark's traced run.
//
// The traced run drives a replica of a library driver loop and wraps every
// public call it makes into a layer in a span: name, start, end, parent and
// operation id (one fuzz exec, one fleet victim, one grid cell). Span names
// are pre-resolved small integers, so recording a span is two clock reads
// and one vector append — no map lookups on the hot path. Spans stay in
// memory until the run ends; one Tracer belongs to one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::uint64_t start_ns = 0;  // since the tracer's epoch
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  // index into the same tracer's spans
  std::uint32_t op = 0;              // exec / victim / cell id
  std::uint16_t name = 0;            // index into the run's span-name table
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  /// RAII handle for one open span; closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::uint16_t name, std::uint32_t op)
        : tracer_(tracer), index_(tracer.Begin(name, op)) {}
    ~Scope() { tracer_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t index_;
  };

  /// Opens a span as a child of the innermost open span; returns its index.
  std::uint32_t Begin(std::uint16_t name, std::uint32_t op);
  /// Closes the span `index`, which must be the innermost open one.
  void End(std::uint32_t index);

  void Reserve(std::size_t spans) { spans_.reserve(spans); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Hands the recorded spans over once no span is open.
  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  std::uint64_t Now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Runs `call` inside a span and returns its result, so a traced call site
/// reads like the untraced one: `auto r = Traced(tr, kName, op, [&] {...});`
template <typename F>
decltype(auto) Traced(Tracer& tracer, std::uint16_t name, std::uint32_t op,
                      F&& call) {
  Tracer::Scope scope(tracer, name, op);
  return call();
}

/// Number of spans named `name` across per-thread span lists.
std::uint64_t CountCalls(const std::vector<std::vector<Span>>& threads,
                         std::uint16_t name);

/// Self time of every span: its duration minus the durations of its direct
/// children. A root span's self time is the driver glue around its children.
std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Nearest-rank percentile `q` in (0, 1] of `samples`. Returns nothing
/// unless at least ten samples rank above the percentile, so a p99 is only
/// ever reported from a tail of real observations.
std::optional<std::uint64_t> Percentile(std::vector<std::uint64_t> samples,
                                        double q);

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;  // summed durations
  std::uint64_t self_ns = 0;  // summed self times
  std::vector<std::uint64_t> durations_ns;  // kept only when asked for
};

/// Folds `spans` into `totals` (indexed by span name; grown as needed).
/// Durations are kept for the names flagged in `keep_durations`.
void Accumulate(const std::vector<Span>& spans,
                const std::vector<bool>& keep_durations,
                std::vector<SpanTotals>& totals);

/// Writes spans as tab-separated lines
///   thread  index  name  parent  op  start_ns  end_ns
/// after a header naming the columns. `thread` tells per-thread index
/// spaces apart.
bool AppendSpansTsv(const std::string& path, std::size_t thread,
                    const std::vector<Span>& spans,
                    const std::vector<std::string>& names, bool truncate);

}  // namespace perfbench
