#include "src/fuzz/triage.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/isa/isa.hpp"
#include "src/obs/obs.hpp"

namespace connlab::fuzz {

namespace {

std::uint64_t HashStack(const std::vector<mem::GuestAddr>& stack,
                        const FuzzTarget& target) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t taken = 0;
  for (const mem::GuestAddr word : stack) {
    if (taken >= 4) break;
    h = (h ^ target.NormalizePc(word)) * 0x100000001b3ULL;
    ++taken;
  }
  return h;
}

std::string_view KindName(ExecResult::Kind kind) {
  switch (kind) {
    case ExecResult::Kind::kBenign: return "benign";
    case ExecResult::Kind::kCrash: return "crash";
    case ExecResult::Kind::kAbort: return "abort";
    case ExecResult::Kind::kHijack: return "hijack";
    case ExecResult::Kind::kOther: return "other";
  }
  return "?";
}

}  // namespace

CrashKey KeyFor(const ExecResult& result, const FuzzTarget& target) {
  CrashKey key;
  key.kind = result.kind;
  key.stop_reason = result.stop_reason;
  key.pc = target.NormalizePc(result.pc);
  key.write_fault = result.write_fault;
  key.stack_hash = HashStack(result.stack, target);
  return key;
}

std::string FormatCrashKey(const CrashKey& key) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%s/%s pc=0x%08x %s stack=%016llx",
                std::string(KindName(key.kind)).c_str(),
                std::string(vm::StopReasonName(key.stop_reason)).c_str(),
                key.pc, key.write_fault ? "write" : "exec",
                static_cast<unsigned long long>(key.stack_hash));
  return buf;
}

bool CrashTriage::Record(const ExecResult& result, util::ByteSpan input,
                         std::uint64_t exec_index, const FuzzTarget& target) {
  const CrashKey key = KeyFor(result, target);
  for (CrashBucket& bucket : buckets_) {
    if (bucket.key == key) {
      ++bucket.hits;
      return false;
    }
  }
  CrashBucket bucket;
  bucket.key = key;
  bucket.witness.assign(input.begin(), input.end());
  bucket.minimized = bucket.witness;
  bucket.first_result = result;
  bucket.hits = 1;
  bucket.first_exec = exec_index;
  buckets_.push_back(std::move(bucket));
  return true;
}

void CrashTriage::Merge(const CrashTriage& other) {
  for (const CrashBucket& incoming : other.buckets_) {
    bool merged = false;
    for (CrashBucket& mine : buckets_) {
      if (mine.key == incoming.key) {
        mine.hits += incoming.hits;
        if (incoming.first_exec < mine.first_exec) {
          mine.witness = incoming.witness;
          mine.minimized = incoming.minimized;
          mine.first_result = incoming.first_result;
          mine.first_exec = incoming.first_exec;
        }
        merged = true;
        break;
      }
    }
    if (!merged) buckets_.push_back(incoming);
  }
}

util::Bytes MinimizeCrash(FuzzTarget& target, const CrashKey& key,
                          util::ByteSpan input, std::size_t max_execs) {
  util::Bytes best(input.begin(), input.end());
  const std::size_t prefix = target.fixed_prefix();
  std::size_t execs = 0;
  CoverageMap scratch;
  const std::uint64_t reboots_before = target.reboots();

  const auto still_crashes = [&](util::ByteSpan candidate) {
    if (execs >= max_execs) return false;
    ++execs;
    scratch.Clear();
    const ExecResult result = target.Execute(candidate, scratch);
    if (result.kind == ExecResult::Kind::kBenign) return false;
    return KeyFor(result, target).CoreMatches(key);
  };

  // Phase 1: binary tail truncation.
  std::size_t cut = best.size() > prefix ? (best.size() - prefix) / 2 : 0;
  while (cut >= 1 && execs < max_execs) {
    if (best.size() - cut > prefix) {
      util::Bytes candidate(best.begin(),
                            best.end() - static_cast<std::ptrdiff_t>(cut));
      if (still_crashes(candidate)) {
        best = std::move(candidate);
        continue;  // retry the same cut on the shorter input
      }
    }
    cut /= 2;
  }

  // Phase 2: block removal at shrinking granularity.
  for (std::size_t block : {64u, 32u, 16u, 8u, 4u, 2u, 1u}) {
    if (execs >= max_execs) break;
    std::size_t at = prefix;
    while (at + block <= best.size() && execs < max_execs) {
      util::Bytes candidate;
      candidate.reserve(best.size() - block);
      candidate.insert(candidate.end(), best.begin(),
                       best.begin() + static_cast<std::ptrdiff_t>(at));
      candidate.insert(candidate.end(),
                       best.begin() + static_cast<std::ptrdiff_t>(at + block),
                       best.end());
      if (candidate.size() > prefix && still_crashes(candidate)) {
        best = std::move(candidate);  // stay at `at`: next block slid in
      } else {
        at += block;
      }
    }
  }
  // The minimizer's own work, which fuzz.execs and fuzz.reboots leave out.
  OBS_COUNT_N("fuzz.minimize.execs", execs);
  OBS_COUNT_N("fuzz.minimize.reboots", target.reboots() - reboots_before);
  return best;
}

void MinimizeBucket(FuzzTarget& target, CrashBucket& bucket,
                    std::size_t max_execs) {
  bucket.minimized =
      MinimizeCrash(target, bucket.key, bucket.witness, max_execs);
}

// ---------------------------------------------------------------------------
// Reproducer files
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kMagic = "connlab-repro v1";

/// Returns the value part of "key: value", or empty when the key differs.
std::string_view ValueFor(std::string_view line, std::string_view key) {
  if (line.substr(0, key.size()) != key) return {};
  std::string_view rest = line.substr(key.size());
  if (rest.substr(0, 2) != ": ") return {};
  return rest.substr(2);
}

}  // namespace

std::string SerializeReproducer(const TargetConfig& config,
                                const CrashBucket& bucket) {
  const util::Bytes& input =
      bucket.minimized.empty() ? bucket.witness : bucket.minimized;
  char buf[256];
  std::string out(kMagic);
  out += '\n';
  std::snprintf(buf, sizeof(buf),
                "target: %s\narch: %s\nboot_seed: %llu\npatched: %d\n",
                std::string(TargetKindName(config.kind)).c_str(),
                std::string(isa::ArchName(config.arch)).c_str(),
                static_cast<unsigned long long>(config.boot_seed),
                config.patched ? 1 : 0);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "kind: %u\nstop: %u\npc: 0x%08x\nwrite_fault: %d\n"
                "stack_hash: 0x%016llx\n",
                static_cast<unsigned>(bucket.key.kind),
                static_cast<unsigned>(bucket.key.stop_reason), bucket.key.pc,
                bucket.key.write_fault ? 1 : 0,
                static_cast<unsigned long long>(bucket.key.stack_hash));
  out += buf;
  out += "input: ";
  out += util::ToHex(input);
  out += '\n';
  return out;
}

util::Result<Reproducer> ParseReproducer(std::string_view text) {
  Reproducer repro;
  bool magic_ok = false;
  bool have_input = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    if (line.empty()) continue;
    if (line == kMagic) {
      magic_ok = true;
      continue;
    }
    const auto as_u64 = [](std::string_view v) {
      return std::strtoull(std::string(v).c_str(), nullptr, 0);
    };
    if (auto v = ValueFor(line, "target"); !v.empty()) {
      CONNLAB_ASSIGN_OR_RETURN(repro.config.kind, ParseTargetKind(v));
    } else if (auto a = ValueFor(line, "arch"); !a.empty()) {
      if (a == "vx86") {
        repro.config.arch = isa::Arch::kVX86;
      } else if (a == "varm") {
        repro.config.arch = isa::Arch::kVARM;
      } else {
        return util::Malformed("unknown arch: " + std::string(a));
      }
    } else if (auto s = ValueFor(line, "boot_seed"); !s.empty()) {
      repro.config.boot_seed = as_u64(s);
    } else if (auto p = ValueFor(line, "patched"); !p.empty()) {
      repro.config.patched = as_u64(p) != 0;
    } else if (auto k = ValueFor(line, "kind"); !k.empty()) {
      const std::uint64_t kind = as_u64(k);
      if (kind > static_cast<std::uint64_t>(ExecResult::Kind::kOther)) {
        return util::Malformed("unknown kind: " + std::string(k));
      }
      repro.key.kind = static_cast<ExecResult::Kind>(kind);
    } else if (auto r = ValueFor(line, "stop"); !r.empty()) {
      const std::uint64_t stop = as_u64(r);
      if (stop > static_cast<std::uint64_t>(vm::StopReason::kHeapCorruption) ||
          vm::StopReasonName(static_cast<vm::StopReason>(stop)) == "?") {
        return util::Malformed("unknown stop reason: " + std::string(r));
      }
      repro.key.stop_reason = static_cast<vm::StopReason>(stop);
    } else if (auto c = ValueFor(line, "pc"); !c.empty()) {
      const std::uint64_t pc = as_u64(c);
      if (pc > 0xFFFFFFFFu) {
        return util::Malformed("pc does not fit in 32 bits: " + std::string(c));
      }
      repro.key.pc = static_cast<mem::GuestAddr>(pc);
    } else if (auto w = ValueFor(line, "write_fault"); !w.empty()) {
      repro.key.write_fault = as_u64(w) != 0;
    } else if (auto h = ValueFor(line, "stack_hash"); !h.empty()) {
      repro.key.stack_hash = as_u64(h);
    } else if (auto i = ValueFor(line, "input"); !i.empty()) {
      CONNLAB_ASSIGN_OR_RETURN(repro.input, util::FromHex(i));
      have_input = true;
    }
  }
  if (!magic_ok) return util::Malformed("missing reproducer magic line");
  if (!have_input) return util::Malformed("reproducer has no input line");
  return repro;
}

util::Result<ExecResult> ReplayReproducer(const Reproducer& repro) {
  CONNLAB_ASSIGN_OR_RETURN(auto target, MakeTarget(repro.config));
  CoverageMap scratch;
  ExecResult result = target->Execute(repro.input, scratch);
  const CrashKey got = KeyFor(result, *target);
  if (!got.CoreMatches(repro.key)) {
    return util::FailedPrecondition("reproducer did not replay: expected " +
                                    FormatCrashKey(repro.key) + ", got " +
                                    FormatCrashKey(got));
  }
  return result;
}

}  // namespace connlab::fuzz
