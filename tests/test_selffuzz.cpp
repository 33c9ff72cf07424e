// Self-fuzzing the lab's own host-side parsers of attacker bytes: the DNS
// decoders, the campaign-file loaders, the dnsproxy's response parser and
// the four zoo request handlers each take mutants of valid inputs from
// fuzz::Mutator at a fixed seed. Every call must come back with a value or
// a non-OK status; under ASan+UBSan (the sanitizer build runs this suite)
// a read past a buffer or an undefined shift fails the run as well. The
// DNS codec must round-trip every message it decodes, and the response
// parser and the zoo handlers keep their size-signal contracts on every
// mutant.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/adapt/camstored.hpp"
#include "src/adapt/httpcamd.hpp"
#include "src/adapt/minimasq.hpp"
#include "src/adapt/resolvd.hpp"
#include "src/connman/dnsproxy.hpp"
#include "src/dns/craft.hpp"
#include "src/dns/message.hpp"
#include "src/dns/name.hpp"
#include "src/dns/record.hpp"
#include "src/fuzz/corpus.hpp"
#include "src/fuzz/dict.hpp"
#include "src/fuzz/mutator.hpp"
#include "src/fuzz/target.hpp"
#include "src/fuzz/triage.hpp"
#include "src/loader/boot.hpp"

namespace connlab {
namespace {

using util::Bytes;
using Kind = adapt::ServiceOutcome::Kind;

/// Calls `check` on `rounds` mutants of every seed. Each seed starts a
/// chain that mutates its own last mutant and restarts from the seed every
/// 32 steps, so mutations stack without drifting into pure noise.
template <typename Check>
void ForEachMutant(const std::vector<Bytes>& seeds,
                   const fuzz::MutationHint& hint, int rounds, Check check) {
  fuzz::Mutator mutator(util::Rng(0x5e1f));
  Bytes parent;
  Bytes mutant;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Bytes& donor = seeds[(i + 1) % seeds.size()];
    for (int r = 0; r < rounds; ++r) {
      if (r % 32 == 0) parent = seeds[i];
      mutator.MutateInto(parent, hint, donor, mutant);
      check(util::ByteSpan(mutant));
      parent.swap(mutant);
    }
  }
}

std::string AsText(util::ByteSpan bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// A record whose rdata holds `names` in uncompressed wire form, after
/// `head` and before `tail` (the CNAME, MX and SOA rdata shapes).
dns::ResourceRecord NameShaped(std::string owner, dns::Type type,
                               const Bytes& head,
                               std::initializer_list<std::string_view> names,
                               const Bytes& tail = {}) {
  util::ByteWriter w;
  w.WriteBytes(head);
  for (std::string_view name : names) {
    EXPECT_TRUE(dns::EncodeName(w, name).ok()) << name;
  }
  w.WriteBytes(tail);
  dns::ResourceRecord rr;
  rr.name = std::move(owner);
  rr.type = type;
  rr.rdata = std::move(w).Take();
  return rr;
}

/// A query and one response per record shape, all for cam.firmware.lan.
std::vector<Bytes> DnsSeeds() {
  const dns::Message query = dns::Message::Query(0x5eed, "cam.firmware.lan");
  std::vector<Bytes> seeds = {dns::Encode(query).value()};
  // SOA's serial, refresh, retry, expire and minimum.
  util::ByteWriter soa_fields;
  for (std::uint32_t field : {1u, 3600u, 600u, 86400u, 60u}) {
    soa_fields.WriteU32BE(field);
  }
  std::vector<dns::ResourceRecord> answers = {
      dns::MakeA("cam.firmware.lan", "10.0.0.1"),
      NameShaped("cam.firmware.lan", dns::Type::kCNAME, {},
                 {"cdn.vendor.example"}),
      NameShaped("firmware.lan", dns::Type::kMX, {0, 10},
                 {"mail.firmware.lan"}),
      NameShaped("firmware.lan", dns::Type::kSOA, {},
                 {"ns.firmware.lan", "admin.firmware.lan"}, soa_fields.bytes()),
      dns::MakeTXT("cam.firmware.lan", "v=spf1 -all"),
  };
  for (dns::ResourceRecord& answer : answers) {
    dns::Message response = dns::Message::ResponseFor(query);
    response.answers.push_back(std::move(answer));
    seeds.push_back(dns::Encode(response).value());
  }
  return seeds;
}

fuzz::MutationHint DnsHint() {
  fuzz::MutationHint hint;
  hint.fixed_prefix = dns::kHeaderSize;
  hint.dns = true;
  return hint;
}

TEST(SelfFuzz, DnsDecodersRejectMutantsCleanly) {
  int decoded = 0;
  ForEachMutant(DnsSeeds(), DnsHint(), 2000, [&](util::ByteSpan wire) {
    auto message = dns::Decode(wire);
    if (message.ok()) {
      ++decoded;
      for (const dns::ResourceRecord& rr : message.value().answers) {
        (void)dns::FormatIPv4(rr.rdata);
      }
    }
    for (const std::size_t offset :
         {dns::kHeaderSize, wire.size() / 2, wire.size(), wire.size() + 1}) {
      auto name = dns::DecodeName(wire, offset);
      if (!name.ok()) continue;
      // The 255-byte limit holds on the wire form (the dotted form escapes
      // unprintable bytes, so it may be longer).
      std::size_t name_bytes = 1;
      for (const Bytes& label : name.value().labels) {
        name_bytes += label.size() + 1;
      }
      EXPECT_LE(name_bytes, 255u);
      EXPECT_LE(name.value().wire_len, wire.size() - offset);
    }
  });
  // The mutants reach past the header checks into the record decoders.
  EXPECT_GT(decoded, 0);
}

/// A one-question query whose name is the single label `label`.
Bytes QueryWithLabel(const Bytes& label) {
  util::ByteWriter w;
  for (const std::uint16_t word : {0x0f0d, 0x0100, 1, 0, 0, 0}) {
    w.WriteU16BE(word);
  }
  EXPECT_TRUE(dns::EncodeLabels(w, {label}).ok());
  w.WriteU16BE(1);  // type A
  w.WriteU16BE(1);  // class IN
  return std::move(w).Take();
}

/// Decode(Encode(m)) == m for every message Decode accepts. Decoded names
/// escape `.`, `\` and unprintable bytes, so Encode must read each escape
/// back as the byte it stands for. The first two inputs are the names an
/// escape-blind ParseDotted mangled: a label holding a dot (re-encoded as
/// the six bytes `a\046b`) and a 20-byte label of 0x01 bytes (80
/// characters once escaped, so it failed to re-encode at all).
TEST(SelfFuzz, DecodedMessagesRoundTrip) {
  std::vector<Bytes> seeds = {QueryWithLabel(util::BytesOf("a.b")),
                              QueryWithLabel(Bytes(20, 0x01))};
  int decoded = 0;
  const auto round_trips = [&decoded](util::ByteSpan wire) {
    auto message = dns::Decode(wire);
    if (!message.ok()) return;
    ++decoded;
    auto encoded = dns::Encode(message.value());
    ASSERT_TRUE(encoded.ok()) << dns::Summary(message.value()) << ": "
                              << encoded.status().ToString();
    auto again = dns::Decode(encoded.value());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(again.value() == message.value())
        << dns::Summary(message.value()) << " came back as "
        << dns::Summary(again.value());
  };
  for (const Bytes& found : seeds) {
    SCOPED_TRACE(util::ToHex(found));
    round_trips(found);
  }
  EXPECT_EQ(decoded, 2);
  const std::vector<Bytes> dns_seeds = DnsSeeds();
  seeds.insert(seeds.end(), dns_seeds.begin(), dns_seeds.end());
  ForEachMutant(seeds, DnsHint(), 2000, round_trips);
  EXPECT_GT(decoded, 2);
}

/// DnsProxy::HandleServerResponse, the vulnerable build, on both arches:
/// mutants of the dnsproxy fuzz seeds plus a response whose name runs past
/// the 1024-byte buffer. The query is re-registered before every response
/// (a benign one consumes it), and any outcome that is not benign reboots
/// the system, as the fuzz harness does. `overflowed` must agree with the
/// expanded name length, and each arch must both parse cleanly and crash.
TEST(SelfFuzz, DnsProxyResponseParserHandlesMutants) {
  fuzz::TargetConfig config;
  config.kind = fuzz::TargetKind::kDnsproxy;
  auto target = fuzz::MakeTarget(config);
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  std::vector<Bytes> seeds = target.value()->SeedCorpus();
  const dns::Message seed = dns::Decode(seeds[0]).value();
  const dns::Message query =
      dns::Message::Query(seed.header.id, seed.questions[0].name);
  const Bytes query_wire = dns::Encode(query).value();
  seeds.push_back(dns::Encode(dns::MaliciousAResponse(
                                  query, dns::JunkLabels(1300).value()))
                      .value());
  // The harness's hint: the header and the echoed question stay intact, so
  // the mutants get past the echo check into get_name and parse_rr.
  fuzz::MutationHint hint = DnsHint();
  hint.fixed_prefix = target.value()->fixed_prefix();

  using ProxyKind = connman::ProxyOutcome::Kind;
  for (const isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    SCOPED_TRACE(std::string(isa::ArchName(arch)));
    std::unique_ptr<loader::System> sys;
    std::optional<connman::DnsProxy> proxy;
    const auto boot = [&] {
      sys = loader::Boot(arch, loader::ProtectionConfig::None(), 1).value();
      proxy.emplace(*sys, connman::Version::k134);
    };
    boot();
    int parsed = 0;
    int crashed = 0;
    ForEachMutant(seeds, hint, 300, [&](util::ByteSpan wire) {
      ASSERT_TRUE(proxy->AcceptClientQuery(query_wire).ok());
      const connman::ProxyOutcome outcome = proxy->HandleServerResponse(wire);
      ASSERT_NE(connman::OutcomeKindName(outcome.kind), "?");
      // Per record, `overflowed` is a name whose expansion and terminator
      // pass the buffer; with one record that is the whole volume.
      const bool past_buffer =
          outcome.name_bytes_written + 1 > connman::kNameBufSize;
      EXPECT_TRUE(!outcome.overflowed || past_buffer);
      if (wire.size() >= dns::kHeaderSize && wire[6] == 0 && wire[7] == 1) {
        EXPECT_EQ(outcome.overflowed, past_buffer);
      }
      if (outcome.kind == ProxyKind::kParsedOk) ++parsed;
      if (outcome.kind == ProxyKind::kCrash) ++crashed;
      const bool benign = outcome.kind == ProxyKind::kParsedOk ||
                          outcome.kind == ProxyKind::kParseError ||
                          outcome.kind == ProxyKind::kDroppedInvalid;
      if (!benign || outcome.overflowed) boot();
    });
    EXPECT_GT(parsed, 0);
    EXPECT_GT(crashed, 0);
  }
}

TEST(SelfFuzz, CampaignFileLoadersRejectMutantsCleanly) {
  fuzz::Corpus corpus;
  corpus.Add(util::BytesOf("GET /status HTTP/1.0\r\n\r\n"), 3, 0);
  corpus.Add(Bytes{0xC0, 0x0C, 0x00, 0x01}, 1, 17);
  const std::string corpus_text = fuzz::SerializeCorpus(corpus);

  const std::string dictionary_text =
      "# pointer tokens\n"
      "self_ptr=\"\\xc0\\x0c\"\n"
      "\"bare token\"\n"
      "max_label=\"\\x3f\"\n";

  fuzz::TargetConfig config;
  config.kind = fuzz::TargetKind::kMinimasq;
  fuzz::CrashBucket bucket;
  bucket.witness = Bytes{0x6d, 0x71, 0x81, 0x80, 0x00, 0x01};
  bucket.key.pc = 0x08048000;
  const std::string reproducer_text = fuzz::SerializeReproducer(config, bucket);

  // The valid seeds load: the mutants below start from real files.
  ASSERT_TRUE(fuzz::DeserializeCorpus(corpus_text).ok());
  ASSERT_TRUE(fuzz::ParseDictionary(dictionary_text).ok());
  ASSERT_TRUE(fuzz::ParseReproducer(reproducer_text).ok());

  const fuzz::MutationHint hint;
  ForEachMutant({util::BytesOf(corpus_text)}, hint, 5000,
                [](util::ByteSpan text) {
                  (void)fuzz::DeserializeCorpus(AsText(text));
                });
  ForEachMutant({util::BytesOf(dictionary_text)}, hint, 5000,
                [](util::ByteSpan text) {
                  (void)fuzz::ParseDictionary(AsText(text));
                });
  ForEachMutant({util::BytesOf(reproducer_text)}, hint, 5000,
                [](util::ByteSpan text) {
                  auto repro = fuzz::ParseReproducer(AsText(text));
                  if (repro.ok()) {
                    EXPECT_LE(repro.value().input.size(), text.size());
                  }
                });
}

/// Boots `kind`'s service on each arch and feeds it mutants of the fuzz
/// target's own seeds plus `overflows` (inputs that already crash it), with
/// no byte held fixed. A non-benign outcome reboots the service, as the
/// fuzz harness does. `deliver` returns the outcome; `check` holds the
/// service's size-signal contract.
template <typename Service, typename Deliver, typename Check>
void FuzzZooService(fuzz::TargetKind kind, std::vector<Bytes> overflows,
                    Deliver deliver, Check check) {
  SCOPED_TRACE(std::string(fuzz::TargetKindName(kind)));
  fuzz::TargetConfig config;
  config.kind = kind;
  auto target = fuzz::MakeTarget(config);
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  std::vector<Bytes> seeds = target.value()->SeedCorpus();
  seeds.insert(seeds.end(), overflows.begin(), overflows.end());
  fuzz::MutationHint hint;
  hint.dns = fuzz::TraitsOf(kind).dns_shaped;

  for (const isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    SCOPED_TRACE(std::string(isa::ArchName(arch)));
    std::unique_ptr<loader::System> sys;
    std::optional<Service> service;
    const auto boot = [&] {
      sys = loader::Boot(arch, loader::ProtectionConfig::None(), 1).value();
      service.emplace(*sys);
    };
    boot();
    int served = 0;
    int overflows = 0;
    ForEachMutant(seeds, hint, 300, [&](util::ByteSpan input) {
      const adapt::ServiceOutcome outcome = deliver(*service, input);
      check(outcome, input);
      if (outcome.kind == Kind::kOk) ++served;
      const bool finding =
          outcome.kind != Kind::kOk && outcome.kind != Kind::kRejected;
      if (finding || outcome.overflowed) ++overflows;
      if (finding) boot();
    });
    // The mutants get past the request checks and into the overflow paths.
    EXPECT_GT(served, 0);
    EXPECT_GT(overflows, 0);
  }
}

TEST(SelfFuzz, ZooRequestHandlersRejectMutantsCleanly) {
  const dns::Message query = dns::Message::Query(0x6d71, "cam.firmware.lan");
  const Bytes forward = dns::Encode(query).value();
  const dns::LabelSeq labels = dns::JunkLabels(700).value();
  const Bytes long_name =
      dns::Encode(dns::MaliciousAResponse(query, labels)).value();
  FuzzZooService<adapt::Minimasq>(
      fuzz::TargetKind::kMinimasq, {long_name},
      [&](adapt::Minimasq& service, util::ByteSpan wire) {
        EXPECT_TRUE(service.ForwardQuery(forward).ok());
        return service.HandleReply(wire);
      },
      [](const adapt::ServiceOutcome& outcome, util::ByteSpan wire) {
        EXPECT_LE(outcome.bytes_written, wire.size());
        EXPECT_EQ(outcome.overflowed,
                  outcome.bytes_written > adapt::Minimasq::kBufSize);
      });
  FuzzZooService<adapt::HttpCamd>(
      fuzz::TargetKind::kHttpcamd,
      {adapt::HttpCamd::WrapInRequest(Bytes(400, 'A'))},
      [](adapt::HttpCamd& service, util::ByteSpan request) {
        return service.HandleRequest(request);
      },
      [](const adapt::ServiceOutcome& outcome, util::ByteSpan request) {
        EXPECT_LE(outcome.bytes_written, request.size());
        EXPECT_LE(outcome.bytes_written, outcome.gradient);
        EXPECT_EQ(outcome.overflowed,
                  outcome.bytes_written > adapt::HttpCamd::kBufSize);
      });
  FuzzZooService<adapt::Resolvd>(
      fuzz::TargetKind::kResolvd,
      {adapt::Resolvd::SelfPointerQuery(0x7267),
       adapt::Resolvd::WildPointerQuery(0x7268)},
      [](adapt::Resolvd& service, util::ByteSpan wire) {
        return service.HandleQuery(wire);
      },
      [](const adapt::ServiceOutcome& outcome, util::ByteSpan) {
        EXPECT_FALSE(outcome.overflowed);
        if (outcome.bytes_written > 0) {
          EXPECT_GT(outcome.gradient, 0u);
        }
      });
  // A record whose body overruns its claimed size, then a delete that
  // frees its corrupted neighbour.
  FuzzZooService<adapt::Camstored>(
      fuzz::TargetKind::kCamstored,
      {adapt::Camstored::WrapInPut(Bytes(160, 'x'), "snap", 64),
       adapt::Camstored::WrapInDelete("clip")},
      [](adapt::Camstored& service, util::ByteSpan request) {
        return service.HandleRequest(request);
      },
      [](const adapt::ServiceOutcome& outcome, util::ByteSpan) {
        EXPECT_EQ(outcome.overflowed,
                  outcome.gradient != 0 &&
                      outcome.bytes_written > outcome.gradient);
      });
}

}  // namespace
}  // namespace connlab
