// Network simulation tests: datagram delivery, DHCP, AP association, DNS
// servers, the victim device, and the Pineapple's rogue-AP mechanics.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/loader/boot.hpp"
#include "src/net/dns_client.hpp"
#include "src/net/fake_dns_server.hpp"
#include "src/net/pineapple.hpp"
#include "src/util/rng.hpp"

namespace connlab::net {
namespace {

using isa::Arch;
using loader::ProtectionConfig;

class Sink : public Endpoint {
 public:
  void OnDatagram(Network&, const Datagram& dgram) override {
    received.push_back(dgram);
  }
  std::vector<Datagram> received;
};

class Echo : public Endpoint {
 public:
  void OnDatagram(Network& net, const Datagram& dgram) override {
    Datagram reply = dgram;
    std::swap(reply.src_ip, reply.dst_ip);
    std::swap(reply.src_port, reply.dst_port);
    (void)net.Send(std::move(reply));
  }
};

TEST(Network, DeliversToAttachedEndpoint) {
  Network net;
  Sink sink;
  net.Attach("10.0.0.2", &sink);
  ASSERT_TRUE(net.Send({"10.0.0.1", 1000, "10.0.0.2", 53, {1, 2, 3}}).ok());
  EXPECT_EQ(net.DeliverAll(), 1);
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].payload, (util::Bytes{1, 2, 3}));
  EXPECT_EQ(net.delivered(), 1u);
}

TEST(Network, DropsUnroutable) {
  Network net;
  ASSERT_TRUE(net.Send({"a", 1, "nowhere", 2, {}}).ok());
  net.DeliverAll();
  EXPECT_EQ(net.dropped(), 1u);
}

TEST(Network, RejectsEmptyDestination) {
  Network net;
  EXPECT_FALSE(net.Send({"a", 1, "", 2, {}}).ok());
}

TEST(Network, ChainedResponsesDeliverInOneDrain) {
  Network net;
  Sink sink;
  Echo echo;
  net.Attach("client", &sink);
  net.Attach("server", &echo);
  ASSERT_TRUE(net.Send({"client", 9, "server", 7, {0xAB}}).ok());
  EXPECT_EQ(net.DeliverAll(), 2);  // request + echoed reply
  ASSERT_EQ(sink.received.size(), 1u);
}

TEST(Network, LogCapturesAllTrafficWhenEnabled) {
  Network net;
  Sink sink;
  net.EnableCapture();
  net.Attach("x", &sink);
  (void)net.Send({"a", 1, "x", 2, {1}});
  (void)net.Send({"a", 1, "y", 2, {2}});
  net.DeliverAll();
  EXPECT_EQ(net.log().size(), 2u);
  EXPECT_NE(net.log()[0].Summary().find("a:1 -> x:2"), std::string::npos);
}

TEST(Network, CaptureIsOffByDefault) {
  Network net;
  Sink sink;
  net.Attach("x", &sink);
  (void)net.Send({"a", 1, "x", 2, {1}});
  net.DeliverAll();
  EXPECT_FALSE(net.capturing());
  EXPECT_TRUE(net.log().empty());
  EXPECT_EQ(net.delivered(), 1u);  // delivery itself is unaffected
}

TEST(Network, CaptureRingBufferDropsOldest) {
  Network net;
  Sink sink;
  net.EnableCapture(/*max_datagrams=*/2);
  net.Attach("x", &sink);
  for (std::uint8_t i = 1; i <= 4; ++i) {
    (void)net.Send({"a", i, "x", 2, {i}});
  }
  net.DeliverAll();
  ASSERT_EQ(net.log().size(), 2u);
  EXPECT_EQ(net.log()[0].payload, (util::Bytes{3}));
  EXPECT_EQ(net.log()[1].payload, (util::Bytes{4}));
}

TEST(Network, DeliversInSendOrder) {
  Network net;
  Sink sink;
  net.Attach("x", &sink);
  for (std::uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(net.Send({"a", 1, "x", 2, {i}}).ok());
  }
  EXPECT_EQ(net.pending(), 5u);
  EXPECT_EQ(net.DeliverAll(), 5);
  EXPECT_EQ(net.pending(), 0u);
  ASSERT_EQ(sink.received.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.received[i].payload, (util::Bytes{i}));
  }
}

TEST(Dhcp, LeasesAreStableAndOptionsRefresh) {
  DhcpServer dhcp("192.168.7", "192.168.7.1", "192.168.7.53");
  auto lease1 = dhcp.Offer("device-a");
  ASSERT_TRUE(lease1.ok());
  EXPECT_EQ(lease1.value().ip, "192.168.7.100");
  EXPECT_EQ(lease1.value().dns_server, "192.168.7.53");
  auto lease2 = dhcp.Offer("device-b");
  ASSERT_TRUE(lease2.ok());
  EXPECT_EQ(lease2.value().ip, "192.168.7.101");
  // Renewal keeps the ip, refreshes options.
  dhcp.set_dns_server("6.6.6.6");
  auto renewed = dhcp.Offer("device-a");
  ASSERT_TRUE(renewed.ok());
  EXPECT_EQ(renewed.value().ip, "192.168.7.100");
  EXPECT_EQ(renewed.value().dns_server, "6.6.6.6");
}

TEST(Dhcp, PoolExhaustion) {
  DhcpServer dhcp("10.1.1", "10.1.1.1", "10.1.1.53", /*pool_size=*/2);
  EXPECT_TRUE(dhcp.Offer("a").ok());
  EXPECT_TRUE(dhcp.Offer("b").ok());
  EXPECT_FALSE(dhcp.Offer("c").ok());
  EXPECT_TRUE(dhcp.Offer("a").ok());  // renewal still fine
}

TEST(Dhcp, ReleaseRenumbersTheReturningClient) {
  DhcpServer dhcp("10.2.2", "10.2.2.1", "10.2.2.53", /*pool_size=*/4);
  const std::string first_ip = dhcp.Offer("roamer").value().ip;
  dhcp.Release("roamer");
  // Another client arrives before the roamer returns and takes the freed
  // address; the returning client gets the next one — renumbered.
  EXPECT_EQ(dhcp.Offer("newcomer").value().ip, first_ip);
  EXPECT_NE(dhcp.Offer("roamer").value().ip, first_ip);
}

TEST(Dhcp, ReleaseRefillsAnExhaustedPool) {
  DhcpServer dhcp("10.3.3", "10.3.3.1", "10.3.3.53", /*pool_size=*/1);
  ASSERT_TRUE(dhcp.Offer("a").ok());
  EXPECT_FALSE(dhcp.Offer("b").ok());
  EXPECT_EQ(dhcp.exhaustions(), 1u);
  dhcp.Release("a");
  EXPECT_TRUE(dhcp.Offer("b").ok());
  EXPECT_EQ(dhcp.active_leases(), 1u);
}

TEST(Dhcp, ExpireLeasesLapsesOnlyDueLeases) {
  DhcpServer dhcp("10.4.4", "10.4.4.1", "10.4.4.53", /*pool_size=*/8);
  dhcp.set_lease_ttl(100);
  ASSERT_EQ(dhcp.Offer("early", /*now=*/0).value().expires_at, 100u);
  ASSERT_EQ(dhcp.Offer("late", /*now=*/50).value().expires_at, 150u);
  EXPECT_EQ(dhcp.ExpireLeases(99), 0u);
  EXPECT_EQ(dhcp.ExpireLeases(100), 1u);  // only "early" lapses
  EXPECT_EQ(dhcp.active_leases(), 1u);
  // Renewal pushes the surviving lease's deadline out.
  EXPECT_EQ(dhcp.Offer("late", /*now=*/140).value().expires_at, 240u);
  EXPECT_EQ(dhcp.ExpireLeases(150), 0u);
}

TEST(Dhcp, ExpireLeasesFreesAddressesInClientIdOrder) {
  // Lapsed addresses return to the free list in client-id string order
  // ("c1" < "c10" < "c2"), and the free list hands out the last address
  // returned first. The leases are taken in an order that is neither
  // client-id order nor its reverse, so a sweep that freed them in the
  // order they were taken, or backwards, would hand them out differently.
  DhcpServer dhcp("10.6.6", "10.6.6.1", "10.6.6.53", /*pool_size=*/8);
  dhcp.set_lease_ttl(10);
  ASSERT_EQ(dhcp.Offer("c10", /*now=*/0).value().ip, "10.6.6.100");
  ASSERT_EQ(dhcp.Offer("c2", /*now=*/0).value().ip, "10.6.6.101");
  ASSERT_EQ(dhcp.Offer("c1", /*now=*/0).value().ip, "10.6.6.102");
  EXPECT_EQ(dhcp.ExpireLeases(10), 3u);
  EXPECT_EQ(dhcp.active_leases(), 0u);
  EXPECT_EQ(dhcp.Offer("n1", /*now=*/10).value().ip, "10.6.6.101");
  EXPECT_EQ(dhcp.Offer("n2", /*now=*/10).value().ip, "10.6.6.100");
  EXPECT_EQ(dhcp.Offer("n3", /*now=*/10).value().ip, "10.6.6.102");
}

/// One seeded schedule of 120,000 DHCP calls over clients 0..299 against a
/// 150-address pool with a 400-unit lease TTL: the pool runs dry, leases
/// lapse, and a sweep frees up to dozens of addresses in client-id order.
/// `offer(i, now)` returns client i's address ("" when the pool is dry);
/// `release(i)` and `expire(now)` forward to the server under test. The
/// digest folds every offered address, every sweep's count, and the
/// server's lease and exhaustion counts after every call.
template <typename Offer, typename Release, typename Expire>
std::uint64_t DhcpScheduleDigest(const DhcpServer& dhcp, Offer offer,
                                 Release release, Expire expire) {
  std::uint64_t digest = 14695981039346656037ull;
  const auto fold = [&](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (value >> (8 * i)) & 0xffu;
      digest *= 1099511628211ull;
    }
  };
  util::Rng rng(31);
  std::uint64_t now = 0;
  for (int op = 0; op < 120000; ++op) {
    now += rng.NextBelow(3);
    const std::uint64_t roll = rng.NextBelow(100);
    const auto client = static_cast<std::uint32_t>(rng.NextBelow(300));
    if (roll < 2) {
      fold(expire(now));
    } else if (roll < 27) {
      release(client);
    } else {
      const std::string ip = offer(client, now);
      fold(ip.size());
      for (const char c : ip) fold(static_cast<std::uint8_t>(c));
    }
    fold(dhcp.active_leases());
    fold(dhcp.exhaustions());
  }
  return digest;
}

TEST(Dhcp, MatchesRecordedScheduleDigest) {
  // Recorded from the string-keyed lease map. A sweep that frees lapsed
  // addresses in any order but client-id string order, a lookup that loses
  // a live lease, or a renewal that moves a client's address each change
  // which address later clients get, and so the digest. The integer entry
  // points must replay it exactly, client i standing for "c<i>".
  constexpr std::uint64_t kDigest = 0xf5db23d8f7dce17eull;
  const auto server = [] {
    DhcpServer dhcp("10.7.7", "10.7.7.1", "10.7.7.53", /*pool_size=*/150);
    dhcp.set_lease_ttl(400);
    return dhcp;
  };
  DhcpServer named = server();
  EXPECT_EQ(DhcpScheduleDigest(
                named,
                [&](std::uint32_t client, std::uint64_t now) -> std::string {
                  auto lease = named.Offer("c" + std::to_string(client), now);
                  return lease.ok() ? lease.value().ip : "";
                },
                [&](std::uint32_t client) {
                  named.Release("c" + std::to_string(client));
                },
                [&](std::uint64_t now) { return named.ExpireLeases(now); }),
            kDigest);
  EXPECT_GT(named.exhaustions(), 1000u);

  DhcpServer numbered = server();
  EXPECT_EQ(DhcpScheduleDigest(
                numbered,
                [&](std::uint32_t client, std::uint64_t now) -> std::string {
                  const auto ip = numbered.Offer(client, now);
                  return ip ? FormatIpv4(*ip) : "";
                },
                [&](std::uint32_t client) { numbered.Release(client); },
                [&](std::uint64_t now) { return numbered.ExpireLeases(now); }),
            kDigest);
}

TEST(Dhcp, AddressesCarryPastTheLastOctet) {
  // Host n is the network address plus n: hosts 100..399 of "10.8.8" run
  // from 10.8.8.100 through 10.8.8.255 into 10.8.9.x.
  DhcpServer dhcp("10.8.8", "10.8.8.1", "10.8.8.53", /*pool_size=*/300);
  std::vector<std::string> ips;
  for (int i = 0; i < 300; ++i) {
    auto lease = dhcp.Offer("d" + std::to_string(i));
    ASSERT_TRUE(lease.ok()) << i;
    ips.push_back(lease.value().ip);
  }
  EXPECT_EQ(ips[0], "10.8.8.100");
  EXPECT_EQ(ips[155], "10.8.8.255");
  EXPECT_EQ(ips[156], "10.8.9.0");
  EXPECT_EQ(ips[299], "10.8.9.143");
  EXPECT_FALSE(dhcp.Offer("one-too-many").ok());
  // The integer entry points hand out the same addresses as numbers.
  DhcpServer numbered("10.8.8", "10.8.8.1", "10.8.8.53", /*pool_size=*/300);
  for (std::uint32_t i = 0; i < 300; ++i) {
    const auto ip = numbered.Offer(i, /*now=*/0);
    ASSERT_TRUE(ip.has_value()) << i;
    EXPECT_EQ(*ip, (10u << 24 | 8u << 16 | 8u << 8) + 100 + i);
    EXPECT_EQ(FormatIpv4(*ip), ips[i]);
  }
  EXPECT_FALSE(numbered.Offer(300u, /*now=*/0).has_value());
  EXPECT_EQ(numbered.exhaustions(), 1u);
}

TEST(Dhcp, IntegerClientsLapseInDecimalNameOrder) {
  // Integer clients are freed as their decimal names sort, ten-digit ids
  // included ("0" < "1" < "10" < "100" < "2" < "429496729" <
  // "4294967295"), and before every named client, even "!", which sorts
  // before any digit as a string. The free list hands out the last
  // address returned first.
  DhcpServer dhcp("10.6.6", "10.6.6.1", "10.6.6.53", /*pool_size=*/8);
  dhcp.set_lease_ttl(10);
  const std::uint32_t base = 10u << 24 | 6u << 16 | 6u << 8;
  const std::uint32_t clients[] = {2, 10, 1, 4294967295u, 429496729, 100, 0};
  for (std::uint32_t i = 0; i < 7; ++i) {
    ASSERT_EQ(dhcp.Offer(clients[i], /*now=*/0), base + 100 + i);
  }
  ASSERT_EQ(dhcp.Offer("!", /*now=*/0).value().ip, "10.6.6.107");
  EXPECT_EQ(dhcp.ExpireLeases(10), 8u);
  // Named "!" first, then 4294967295, 429496729, 2, 100, 10, 1 and 0.
  const std::uint32_t expected[] = {107, 103, 104, 100, 105, 101, 102, 106};
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dhcp.Offer(1000 + i, /*now=*/10), base + expected[i]) << i;
  }
}

TEST(Dhcp, LeaseExpiryMidExchangeDropsTheInFlightResponse) {
  // A victim sends a query upstream, but its lease lapses (and the device
  // detaches) while the response is still in the air: the response must be
  // dropped, not delivered to a stale binding.
  Network net;
  Echo server;
  Sink victim;
  net.Attach("server", &server);
  net.Attach("10.5.5.100", &victim);
  DhcpServer dhcp("10.5.5", "10.5.5.1", "server", /*pool_size=*/4);
  dhcp.set_lease_ttl(15);
  ASSERT_EQ(dhcp.Offer("victim", /*now=*/0).value().ip, "10.5.5.100");

  (void)net.Send({"10.5.5.100", 4000, "server", kDnsPort, {0xAA}});
  EXPECT_EQ(net.DeliverAll(/*max=*/1), 1);  // query reaches the server
  ASSERT_EQ(net.pending(), 1u);             // its reply is in the air

  EXPECT_EQ(dhcp.ExpireLeases(15), 1u);  // lease lapses mid-exchange
  net.Detach("10.5.5.100");
  EXPECT_EQ(net.DeliverAll(), 1);
  EXPECT_TRUE(victim.received.empty());
  EXPECT_EQ(net.dropped(), 1u);
}

TEST(Radio, StrongestSignalWinsAssociation) {
  Radio radio;
  AccessPoint weak("Net", -70, DhcpServer("10.0.0", "10.0.0.1", "10.0.0.53"));
  AccessPoint strong("Net", -30, DhcpServer("10.9.0", "10.9.0.1", "10.9.0.53"));
  AccessPoint other("Other", -10, DhcpServer("10.8.0", "10.8.0.1", "10.8.0.53"));
  radio.AddAp(&weak);
  radio.AddAp(&strong);
  radio.AddAp(&other);
  auto best = radio.StrongestFor("Net");
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value(), &strong);
  EXPECT_FALSE(radio.StrongestFor("Missing").ok());
  radio.RemoveAp(&strong);
  EXPECT_EQ(radio.StrongestFor("Net").value(), &weak);
}

TEST(LegitDns, AnswersFromZoneAndNxdomains) {
  Network net;
  Sink sink;
  LegitDnsServer dns("1.1.1.1");
  dns.AddRecord("known.example", "9.9.9.9");
  net.Attach("1.1.1.1", &dns);
  net.Attach("client", &sink);

  auto q1 = dns::Encode(dns::Message::Query(7, "known.example")).value();
  (void)net.Send({"client", 5353, "1.1.1.1", kDnsPort, q1});
  auto q2 = dns::Encode(dns::Message::Query(8, "unknown.example")).value();
  (void)net.Send({"client", 5353, "1.1.1.1", kDnsPort, q2});
  net.DeliverAll();

  ASSERT_EQ(sink.received.size(), 2u);
  auto r1 = dns::Decode(sink.received[0].payload).value();
  EXPECT_EQ(r1.answers.size(), 1u);
  auto r2 = dns::Decode(sink.received[1].payload).value();
  EXPECT_EQ(r2.header.rcode, dns::Rcode::kNXDomain);
  EXPECT_EQ(dns.queries_served(), 2u);
}

TEST(FakeDns, EchoesQueryIdentityIntoMaliciousResponse) {
  Network net;
  Sink sink;
  FakeDnsServer fake("6.6.6.6", FakeDnsServer::Mode::kDos);
  net.Attach("6.6.6.6", &fake);
  net.Attach("victim", &sink);
  auto q = dns::Encode(dns::Message::Query(0xBEEF, "anything.example")).value();
  (void)net.Send({"victim", 4000, "6.6.6.6", kDnsPort, q});
  net.DeliverAll();
  ASSERT_EQ(sink.received.size(), 1u);
  const util::Bytes& wire = sink.received[0].payload;
  // Header: echoed id, QR set; question echo follows.
  EXPECT_EQ(wire[0], 0xBE);
  EXPECT_EQ(wire[1], 0xEF);
  EXPECT_NE(wire[2] & 0x80, 0);
  EXPECT_GT(wire.size(), 4096u);  // oversized name
  EXPECT_EQ(fake.queries_seen(), 1u);
  EXPECT_EQ(fake.payloads_sent(), 1u);
}

TEST(FakeDns, IgnoresNonQueries) {
  Network net;
  FakeDnsServer fake("6.6.6.6", FakeDnsServer::Mode::kDos);
  net.Attach("6.6.6.6", &fake);
  auto resp =
      dns::Encode(dns::Message::ResponseFor(dns::Message::Query(1, "x.y")))
          .value();
  (void)net.Send({"victim", 4000, "6.6.6.6", kDnsPort, resp});
  net.DeliverAll();
  EXPECT_EQ(fake.queries_seen(), 0u);
}

TEST(Victim, JoinsLooksUpAndCaches) {
  Network net;
  Radio radio;
  LegitDnsServer dns("192.168.1.53");
  dns.AddRecord("cloud.example", "5.5.5.5");
  net.Attach(dns.ip(), &dns);
  AccessPoint ap("HomeWiFi", -55,
                 DhcpServer("192.168.1", "192.168.1.1", dns.ip()));
  radio.AddAp(&ap);

  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::WxAslr(), 2).value();
  VictimDevice victim(*sys, connman::Version::k134, "HomeWiFi");
  ASSERT_TRUE(victim.JoinWifi(radio, net).ok());
  EXPECT_EQ(victim.lease().dns_server, "192.168.1.53");

  ASSERT_TRUE(victim.Lookup(net, "cloud.example").ok());
  net.DeliverAll();
  ASSERT_EQ(victim.outcomes().size(), 1u);
  EXPECT_EQ(victim.outcomes()[0].kind, connman::ProxyOutcome::Kind::kParsedOk);
  EXPECT_FALSE(victim.compromised());
  EXPECT_FALSE(victim.crashed());
  EXPECT_EQ(victim.proxy()
                .cache()
                .Lookup("cloud.example", victim.proxy().now() + 1)
                .size(),
            1u);
}

TEST(Victim, LookupRequiresNetwork) {
  Network net;
  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 2).value();
  VictimDevice victim(*sys, connman::Version::k134, "HomeWiFi");
  EXPECT_FALSE(victim.Lookup(net, "x.example").ok());
}

TEST(Pineapple, OutbroadcastsAndServesMaliciousDns) {
  Network net;
  Radio radio;
  LegitDnsServer dns("192.168.1.53");
  dns.AddRecord("cloud.example", "5.5.5.5");
  net.Attach(dns.ip(), &dns);
  AccessPoint home("HomeWiFi", -60,
                   DhcpServer("192.168.1", "192.168.1.1", dns.ip()));
  radio.AddAp(&home);

  auto sys = loader::Boot(Arch::kVX86, ProtectionConfig::None(), 2).value();
  VictimDevice victim(*sys, connman::Version::k134, "HomeWiFi");
  ASSERT_TRUE(victim.JoinWifi(radio, net).ok());
  EXPECT_EQ(victim.lease().dns_server, dns.ip());

  Pineapple pineapple("HomeWiFi", -30);
  pineapple.set_dns_mode(FakeDnsServer::Mode::kDos);
  pineapple.PowerOn(radio, net);

  // Roam: the rogue AP wins, DHCP reassigns DNS to the attacker.
  ASSERT_TRUE(victim.JoinWifi(radio, net).ok());
  EXPECT_EQ(victim.lease().dns_server, pineapple.ip());

  ASSERT_TRUE(victim.Lookup(net, "cloud.example").ok());
  net.DeliverAll();
  EXPECT_EQ(pineapple.dns().queries_seen(), 1u);
  EXPECT_TRUE(victim.crashed());  // the DoS payload landed

  // Power off: the legitimate AP is the strongest again.
  pineapple.PowerOff(radio, net);
  auto best = radio.StrongestFor("HomeWiFi");
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value(), &home);
}

}  // namespace
}  // namespace connlab::net

#include "src/net/resolver.hpp"

namespace connlab::net {
namespace {

TEST(ForwardingResolver, AnswersLocalZoneAndNxdomain) {
  Network net;
  Sink sink;
  ForwardingResolver resolver("1.1.1.1");
  resolver.AddRecord("local.example", "10.0.0.5");
  net.Attach(resolver.ip(), &resolver);
  net.Attach("client", &sink);
  (void)net.Send({"client", 5000, "1.1.1.1", kDnsPort,
                  dns::Encode(dns::Message::Query(1, "local.example")).value()});
  (void)net.Send({"client", 5000, "1.1.1.1", kDnsPort,
                  dns::Encode(dns::Message::Query(2, "missing.example")).value()});
  net.DeliverAll();
  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(dns::Decode(sink.received[0].payload).value().answers.size(), 1u);
  EXPECT_EQ(dns::Decode(sink.received[1].payload).value().header.rcode,
            dns::Rcode::kNXDomain);
  EXPECT_EQ(resolver.forwarded(), 0u);
}

TEST(ForwardingResolver, ForwardsDelegatedAndRelaysVerbatim) {
  Network net;
  Sink client;
  ForwardingResolver resolver("1.1.1.1");
  FakeDnsServer evil_ns("6.6.6.6", FakeDnsServer::Mode::kDos);
  resolver.AddDelegation("evil.example", evil_ns.ip());
  net.Attach(resolver.ip(), &resolver);
  net.Attach(evil_ns.ip(), &evil_ns);
  net.Attach("victim", &client);

  auto q = dns::Encode(dns::Message::Query(0x1234, "cdn.evil.example")).value();
  (void)net.Send({"victim", 5000, "1.1.1.1", kDnsPort, q});
  net.DeliverAll();

  EXPECT_EQ(resolver.forwarded(), 1u);
  EXPECT_EQ(resolver.relayed(), 1u);
  EXPECT_EQ(evil_ns.queries_seen(), 1u);
  ASSERT_EQ(client.received.size(), 1u);
  // The relayed payload is the attacker's response, verbatim: echoed id,
  // oversized name and all.
  const util::Bytes& wire = client.received[0].payload;
  EXPECT_EQ(wire[0], 0x12);
  EXPECT_EQ(wire[1], 0x34);
  EXPECT_GT(wire.size(), 4096u);
  EXPECT_EQ(client.received[0].src_ip, resolver.ip());  // looks legitimate
}

TEST(ForwardingResolver, IgnoresUnsolicitedResponses) {
  Network net;
  ForwardingResolver resolver("1.1.1.1");
  net.Attach(resolver.ip(), &resolver);
  dns::Message fake = dns::Message::ResponseFor(dns::Message::Query(9, "x.y"));
  (void)net.Send({"6.6.6.6", kDnsPort, "1.1.1.1", kDnsPort,
                  dns::Encode(fake).value()});
  net.DeliverAll();
  EXPECT_EQ(resolver.relayed(), 0u);
}

}  // namespace
}  // namespace connlab::net
