// Unit tests for src/util: Status/Result, byte cursors, RNG, hexdump, and
// the parallel execution helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/util/bytes.hpp"
#include "src/util/hexdump.hpp"
#include "src/util/int_map.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/status.hpp"

namespace connlab::util {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("missing widget");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing widget");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing widget");
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r(OutOfRange("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.value_or(7), 7);
}

Status UseReturnIfError(bool fail) {
  CONNLAB_RETURN_IF_ERROR(fail ? Internal("boom") : OkStatus());
  return OkStatus();
}

TEST(Result, ReturnIfErrorMacro) {
  EXPECT_TRUE(UseReturnIfError(false).ok());
  EXPECT_EQ(UseReturnIfError(true).code(), StatusCode::kInternal);
}

Result<int> Doubled(Result<int> in) {
  CONNLAB_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(Result, AssignOrReturnMacro) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(InvalidArgument("x")).ok());
}

TEST(Bytes, BytesOfAndToHex) {
  Bytes b = BytesOf("AB");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 'A');
  EXPECT_EQ(ToHex(b), "4142");
  EXPECT_EQ(ToHex(Bytes{}), "");

  // FromHex inverts ToHex and reads either case.
  const Bytes all = [] {
    Bytes out;
    for (int i = 0; i < 256; ++i) out.push_back(static_cast<std::uint8_t>(i));
    return out;
  }();
  auto round = FromHex(ToHex(all));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value(), all);
  EXPECT_EQ(FromHex("DeadBEEF").value(), (Bytes{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_TRUE(FromHex("").value().empty());
  for (const char* bad : {"abc", "0g", "g0", " 0", "0x12"}) {
    auto got = FromHex(bad);
    ASSERT_FALSE(got.ok()) << bad;
    EXPECT_EQ(got.status().code(), StatusCode::kMalformed) << bad;
  }
  EXPECT_EQ(FromHex("abc").status().message(), "odd hex length");
  EXPECT_EQ(FromHex("0g").status().message(), "bad hex digit");
}

TEST(ByteReader, ReadsScalarsBigEndian) {
  Bytes data{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc};
  ByteReader r(data);
  EXPECT_EQ(r.ReadU16BE().value(), 0x1234);
  EXPECT_EQ(r.ReadU32BE().value(), 0x56789abcu);
  EXPECT_TRUE(r.empty());
}

TEST(ByteReader, ReadsScalarsLittleEndian) {
  Bytes data{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc};
  ByteReader r(data);
  EXPECT_EQ(r.ReadU16LE().value(), 0x3412);
  EXPECT_EQ(r.ReadU32LE().value(), 0xbc9a7856u);
}

TEST(ByteReader, TruncationIsMalformedNotFatal) {
  Bytes data{0x01};
  ByteReader r(data);
  EXPECT_EQ(r.ReadU16BE().status().code(), StatusCode::kMalformed);
  EXPECT_EQ(r.ReadU8().value(), 0x01);  // cursor unchanged by failed read
  EXPECT_EQ(r.ReadU8().status().code(), StatusCode::kMalformed);
}

TEST(ByteReader, SeekSupportsCompressionJumps) {
  Bytes data{0xAA, 0xBB, 0xCC};
  ByteReader r(data);
  ASSERT_TRUE(r.Seek(2).ok());
  EXPECT_EQ(r.ReadU8().value(), 0xCC);
  ASSERT_TRUE(r.Seek(0).ok());
  EXPECT_EQ(r.ReadU8().value(), 0xAA);
  EXPECT_FALSE(r.Seek(4).ok());
}

TEST(ByteReader, ReadBytesAndSkip) {
  Bytes data{1, 2, 3, 4, 5};
  ByteReader r(data);
  ASSERT_TRUE(r.Skip(1).ok());
  auto chunk = r.ReadBytes(3);
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk.value(), (Bytes{2, 3, 4}));
  EXPECT_FALSE(r.Skip(2).ok());
}

TEST(ByteWriter, RoundTripsThroughReader) {
  ByteWriter w;
  w.WriteU8(0xFF);
  w.WriteU16BE(0x1234);
  w.WriteU32LE(0xdeadbeef);
  w.WriteString("hi");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU8().value(), 0xFF);
  EXPECT_EQ(r.ReadU16BE().value(), 0x1234);
  EXPECT_EQ(r.ReadU32LE().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadBytes(2).value(), BytesOf("hi"));
}

TEST(ByteWriter, PatchU16BE) {
  ByteWriter w;
  w.WriteU16BE(0);
  w.WriteU8(0x55);
  ASSERT_TRUE(w.PatchU16BE(0, 0xABCD).ok());
  EXPECT_EQ(w.bytes()[0], 0xAB);
  EXPECT_EQ(w.bytes()[1], 0xCD);
  EXPECT_FALSE(w.PatchU16BE(2, 1).ok());  // would run past the end
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, NextBytesLengthAndVariety) {
  Rng rng(13);
  auto data = rng.NextBytes(1000);
  ASSERT_EQ(data.size(), 1000u);
  bool varied = false;
  for (std::size_t i = 1; i < data.size(); ++i) varied |= data[i] != data[0];
  EXPECT_TRUE(varied);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(child.NextU64(), a.NextU64());
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng a(42);
  Rng b(42);
  (void)a.Split(0);
  (void)a.Split(7);
  // Parent streams stay identical whether or not Split was called.
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, SplitIsReproduciblePerStream) {
  // Worker i's stream depends only on (parent state, i) — not on which
  // other streams were derived, in what order, or how much they drew.
  Rng parent(1234);
  Rng first = parent.Split(3);
  Rng noise = parent.Split(9);
  for (int i = 0; i < 100; ++i) (void)noise.NextU64();
  Rng second = parent.Split(3);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(first.NextU64(), second.NextU64());
}

TEST(Rng, SplitStreamsDiverge) {
  Rng parent(55);
  Rng s0 = parent.Split(0);
  Rng s1 = parent.Split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += s0.NextU64() == s1.NextU64() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, SplitDiffersFromParentDraws) {
  Rng parent(77);
  Rng child = parent.Split(0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += child.NextU64() == parent.NextU64() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(IntMap, CollidingKeysSurviveEraseAtAnyPosition) {
  // Keys whose Fibonacci hash has top four bits 1111 all start probing at
  // the last of the table's first 16 slots, so their run wraps round to
  // slot 0. Erasing any one of them must leave the rest reachable.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < 6; ++k) {
    if ((k * 0x9e3779b97f4a7c15ull) >> 60 == 15) keys.push_back(k);
  }
  for (std::size_t gone = 0; gone < keys.size(); ++gone) {
    util::IntMap<std::uint64_t> map;
    for (const std::uint64_t k : keys) {
      EXPECT_TRUE(map.Insert(k, k * 3).second);
    }
    EXPECT_FALSE(map.Insert(keys[0], 0).second);  // present: no overwrite
    ASSERT_TRUE(map.Erase(keys[gone]));
    EXPECT_FALSE(map.Erase(keys[gone]));
    EXPECT_EQ(map.Find(keys[gone]), nullptr);
    EXPECT_EQ(map.size(), keys.size() - 1);
    for (const std::uint64_t k : keys) {
      if (k == keys[gone]) continue;
      ASSERT_NE(map.Find(k), nullptr) << "erased " << gone << ", lost " << k;
      EXPECT_EQ(*map.Find(k), k * 3);
    }
  }
}

TEST(IntMap, MatchesReferenceAcrossGrowthAndErasure) {
  // Phases of inserts that grow the table alternate with phases of
  // erasures, over sequential keys (which cluster in the key space) and
  // random 64-bit keys, checked against std::unordered_map after every op.
  util::IntMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  util::Rng rng(11);
  for (int op = 0; op < 200000; ++op) {
    const bool growing = (op / 5000) % 2 == 0;
    const std::uint64_t key = rng.NextBool(0.5)
                                  ? rng.NextBelow(4096)
                                  : rng.NextU64() | (std::uint64_t{1} << 63);
    if (rng.NextBelow(100) < (growing ? 70u : 30u)) {
      const bool inserted = map.Insert(key, op).second;
      ASSERT_EQ(inserted, reference.emplace(key, op).second) << "op " << op;
    } else {
      ASSERT_EQ(map.Erase(key), reference.erase(key) == 1) << "op " << op;
    }
    ASSERT_EQ(map.size(), reference.size()) << "op " << op;
    const std::uint64_t probe = rng.NextBelow(4096);
    const std::uint64_t* found = map.Find(probe);
    const auto want = reference.find(probe);
    ASSERT_EQ(found != nullptr, want != reference.end()) << "op " << op;
    if (found != nullptr) {
      ASSERT_EQ(*found, want->second) << "op " << op;
    }
  }
  std::size_t visited = 0;
  map.ForEach([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    const auto want = reference.find(key);
    ASSERT_NE(want, reference.end());
    EXPECT_EQ(value, want->second);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(Parallel, ResolveWorkerCountNeverReturnsZero) {
  EXPECT_GE(ResolveWorkerCount(0), 1u);  // 0 = "one per hardware core"
  EXPECT_EQ(ResolveWorkerCount(1), 1u);
  EXPECT_EQ(ResolveWorkerCount(7), 7u);
}

TEST(Parallel, ForVisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;  // deliberately not a worker multiple
  std::vector<std::atomic<int>> visits(kCount);
  ParallelFor(kCount, 4, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ForWithOneWorkerRunsInlineAndInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ParallelFor(16, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Parallel, InvokeRunsAllBodiesConcurrently) {
  // Each body blocks until every body has started: only true all-at-once
  // execution (one thread per index, the property barrier-coupled fuzz
  // workers rely on) can finish — a work queue narrower than the count
  // would deadlock here instead.
  constexpr std::size_t kCount = 4;
  std::atomic<std::size_t> arrived{0};
  ParallelInvoke(kCount, [&](std::size_t) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < kCount) {
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(arrived.load(), kCount);
}

TEST(HexDump, FormatsRows) {
  Bytes data = BytesOf("ABCDEFGHIJKLMNOPQR");  // 18 bytes -> 2 rows
  std::string dump = HexDump(data, 0x1000);
  EXPECT_NE(dump.find("00001000"), std::string::npos);
  EXPECT_NE(dump.find("00001010"), std::string::npos);
  EXPECT_NE(dump.find("|ABCDEFGHIJKLMNOP|"), std::string::npos);
  EXPECT_NE(dump.find("41 42 43"), std::string::npos);
}

TEST(HexDump, NonPrintableAsDots) {
  Bytes data{0x00, 0x1F, 0x41};
  std::string dump = HexDump(data);
  EXPECT_NE(dump.find("|..A|"), std::string::npos);
}

}  // namespace
}  // namespace connlab::util
