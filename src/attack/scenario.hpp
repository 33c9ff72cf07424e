// Scenario runners: the controlled environment (§III-A/B/C) and the
// man-in-the-middle Wi-Fi Pineapple environment (§III-D).
//
// Controlled: the attacker studies a local instance (same binary, chosen
// protections, gdb + ropper), then fires the generated exploit at a
// *different* boot of the target — so anything that depends on randomised
// state fails honestly.
//
// Remote: a full simulated LAN — legitimate AP + resolver, the victim IoT
// device running Connman, and a Pineapple that out-broadcasts the real AP
// and hands the victim a malicious DNS server via DHCP. The victim keeps
// its default "DHCP + automatic DNS" configuration throughout.
#pragma once

#include <cstdint>
#include <optional>

#include "src/attack/outcome.hpp"
#include "src/defense/mitigation.hpp"
#include "src/util/status.hpp"

namespace connlab::attack {

struct ScenarioConfig {
  isa::Arch arch = isa::Arch::kVX86;
  loader::ProtectionConfig prot;
  connman::Version version = connman::Version::k134;
  /// Technique override; unset = the paper's choice for (arch, prot).
  std::optional<exploit::Technique> technique;
  std::uint64_t local_seed = 100;   // the attacker's lab instance
  std::uint64_t target_seed = 4242; // the victim (different ASLR draw)
  /// Retrofitted mitigations applied to the *victim* boot only: the
  /// attacker's lab still profiles the stock `prot` firmware, so whatever
  /// the defense randomises or checks is honestly unknown to the exploit.
  defense::DefensePolicy defense;
  /// Execution tier and restore mode of every boot the scenario makes: the
  /// attacker's lab instance and the victim alike.
  vm::ExecConfig exec;
};

/// Extracts a profile in the lab and attacks a fresh target boot.
util::Result<AttackResult> RunControlledScenario(const ScenarioConfig& config);

struct RemoteResult {
  bool benign_resolution_before = false;  // sanity: network worked pre-attack
  bool roamed_to_rogue = false;           // Pineapple won the association
  std::uint64_t queries_intercepted = 0;  // seen by the fake DNS server
  AttackResult attack;
};

/// The full Pineapple man-in-the-middle chain.
util::Result<RemoteResult> RunPineappleScenario(const ScenarioConfig& config);

struct LureResult {
  bool on_legitimate_network = true;   // no rogue AP anywhere in this one
  std::uint64_t forwarded = 0;         // queries the home resolver forwarded
  AttackResult attack;
};

/// The §III-D "malicious domain" delivery class: the victim stays on its
/// own network with its own resolver; the attacker controls the
/// authoritative DNS server for a domain the device is lured to resolve.
/// The exploit response rides the legitimate forwarding chain home.
util::Result<LureResult> RunLureScenario(const ScenarioConfig& config);

struct PoisonResult {
  bool roamed_to_rogue = false;
  bool cache_poisoned = false;       // attacker address cached for the name
  std::string victim_resolves_to;    // what the device now believes
  std::uint64_t answers_forged = 0;  // forged responses the proxy accepted
};

/// The §III-D side remark made concrete: instead of (or before) memory
/// corruption, the rogue DNS server answers every query with an
/// attacker-controlled address. The proxy caches it and the device's
/// traffic is silently redirected — the Mirai-style recruitment channel.
/// Works against *patched* Connman too: no memory corruption involved.
util::Result<PoisonResult> RunCachePoisoningScenario(const ScenarioConfig& config);

}  // namespace connlab::attack
