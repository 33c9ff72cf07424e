// Traced replica of attack::RunDefenseGrid over a block of successive
// target seeds: RunControlledScenario's lab boot, profile extraction,
// payload build, hardened victim boot and chain execution for the 36
// dnsproxy cells, and the zoo attack for the 24 resolvd/camstored cells.
#include <string>

#include "src/adapt/retarget.hpp"
#include "src/attack/scenario.hpp"
#include "src/dns/craft.hpp"
#include "src/exploit/profile.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

enum GridSpan : std::uint16_t {
  kCell,
  kBoot,
  kExtract,
  kBuild,
  kHarden,
  kResponse,
  kZoo,
};

const std::vector<std::string>& GridSpanNames() {
  static const std::vector<std::string> names = {
      "attack.cell",    "loader.boot",      "exploit.extract", "exploit.build",
      "defense.harden", "connman.response", "adapt.zoo"};
  return names;
}

const loader::ProtectionConfig kLevels[] = {
    loader::ProtectionConfig::None(),
    loader::ProtectionConfig::WxOnly(),
    loader::ProtectionConfig::WxAslr(),
};

/// attack::RunControlledScenario, layer by layer.
util::Result<attack::AttackResult> Scenario(const attack::ScenarioConfig& config,
                                            Tracer& tr, std::uint32_t op) {
  attack::AttackResult result;
  result.arch = config.arch;
  result.prot = config.prot;
  result.version = config.version;
  result.technique = config.technique.value_or(
      exploit::TechniqueFor(config.arch, config.prot));
  result.defense = config.defense.Label();

  // The attacker's lab: boot the stock build and extract its profile.
  auto profile = [&]() -> util::Result<exploit::TargetProfile> {
    auto lab = Traced(tr, kBoot, op, [&] {
      return loader::Boot(config.arch, config.prot, config.local_seed);
    });
    if (!lab.ok()) return lab.status();
    connman::DnsProxy lab_proxy(*lab.value(), connman::Version::k134);
    exploit::ProfileExtractor extractor(*lab.value(), lab_proxy);
    auto extracted =
        Traced(tr, kExtract, op, [&] { return extractor.Extract(); });
    if (extracted.ok()) {
      result.probes = static_cast<int>(lab_proxy.stats().responses);
    }
    return extracted;
  }();
  if (!profile.ok()) {
    result.exploit_available = false;
    result.detail = profile.status().message();
    return result;
  }

  exploit::ExploitGenerator generator(profile.value());
  auto image = Traced(tr, kBuild, op,
                      [&] { return generator.BuildImage(result.technique); });
  if (!image.ok()) {
    result.exploit_available = false;
    result.detail = image.status().message();
    return result;
  }
  result.payload_bytes = image.value().size();
  CONNLAB_ASSIGN_OR_RETURN(dns::LabelSeq labels,
                           dns::CutIntoLabels(image.value()));
  result.labels = labels.size();
  result.exploit_available = true;

  auto target = Traced(tr, kHarden, op, [&] {
    return config.defense.BootHardened(config.arch, config.prot,
                                       config.target_seed);
  });
  if (!target.ok()) return target.status();
  connman::DnsProxy proxy(*target.value(), config.version);

  dns::Message query = dns::Message::Query(0x7E57, "target.device.lan");
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes qwire, dns::Encode(query));
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes fwd, proxy.AcceptClientQuery(qwire));
  (void)fwd;
  dns::Message evil = dns::MaliciousAResponse(query, std::move(labels));
  CONNLAB_ASSIGN_OR_RETURN(util::Bytes rwire, dns::Encode(evil));
  result.response_bytes = rwire.size();

  const connman::ProxyOutcome outcome = Traced(
      tr, kResponse, op, [&] { return proxy.HandleServerResponse(rwire); });
  result.kind = outcome.kind;
  result.detail = outcome.detail;
  result.shell = outcome.kind == connman::ProxyOutcome::Kind::kShell;
  result.crash = outcome.kind == connman::ProxyOutcome::Kind::kCrash;
  result.guest_steps = outcome.stop.steps;

  loader::ProtectionConfig victim_prot = config.prot;
  config.defense.Configure(victim_prot);
  result.failure =
      exploit::DiagnoseFailure(result.technique, victim_prot, result.kind);
  return result;
}

connman::ProxyOutcome::Kind BridgeKind(adapt::ServiceOutcome::Kind kind) {
  using In = adapt::ServiceOutcome::Kind;
  using Out = connman::ProxyOutcome::Kind;
  switch (kind) {
    case In::kOk: return Out::kParsedOk;
    case In::kRejected: return Out::kDroppedInvalid;
    case In::kCrash: return Out::kCrash;
    case In::kShell: return Out::kShell;
    case In::kExec: return Out::kExec;
    case In::kAbort: return Out::kAbort;
    case In::kOther: return Out::kOther;
  }
  return Out::kOther;
}

/// The grid's bug-class-zoo cell.
util::Result<attack::AttackResult> ZooCell(const std::string& service,
                                           isa::Arch arch,
                                           const defense::DefensePolicy& policy,
                                           std::uint64_t target_seed,
                                           Tracer& tr, std::uint32_t op) {
  loader::ProtectionConfig prot = loader::ProtectionConfig::None();
  policy.Configure(prot);
  auto attacked = Traced(tr, kZoo, op, [&] {
    return service == "resolvd"
               ? adapt::AttackResolvd(arch, prot, target_seed)
               : adapt::AttackCamstored(arch, prot, target_seed);
  });
  if (!attacked.ok()) return attacked.status();
  const adapt::AdaptResult& zoo = attacked.value();
  attack::AttackResult result;
  result.service = service;
  result.arch = arch;
  result.prot = loader::ProtectionConfig::None();
  result.technique = zoo.technique;
  result.exploit_available = true;
  result.shell = zoo.shell;
  result.crash = zoo.kind == adapt::ServiceOutcome::Kind::kCrash;
  result.kind = BridgeKind(zoo.kind);
  result.detail = zoo.detail;
  result.defense = policy.Label();
  result.payload_bytes = zoo.payload_bytes;
  result.failure = adapt::DiagnoseZooFailure(zoo.technique, prot, zoo.kind);
  return result;
}

util::Result<std::vector<attack::AttackResult>> Grid(std::uint64_t target_seed,
                                                     Tracer& tr,
                                                     std::uint32_t& op) {
  std::vector<defense::DefensePolicy> policies = defense::StandardPolicies();
  policies.push_back(defense::DefensePolicy::HeapIntegrityChecks());
  std::vector<attack::AttackResult> results;
  results.reserve(10 * policies.size());
  for (isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    for (const loader::ProtectionConfig& prot : kLevels) {
      for (const defense::DefensePolicy& policy : policies) {
        attack::ScenarioConfig config;
        config.arch = arch;
        config.prot = prot;
        config.target_seed = target_seed;
        config.defense = policy;
        Tracer::Scope cell(tr, kCell, op);
        CONNLAB_ASSIGN_OR_RETURN(attack::AttackResult result,
                                 Scenario(config, tr, op));
        results.push_back(std::move(result));
        ++op;
      }
    }
  }
  for (isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    for (const char* service : {"resolvd", "camstored"}) {
      for (const defense::DefensePolicy& policy : policies) {
        Tracer::Scope cell(tr, kCell, op);
        CONNLAB_ASSIGN_OR_RETURN(
            attack::AttackResult result,
            ZooCell(service, arch, policy, target_seed, tr, op));
        results.push_back(std::move(result));
        ++op;
      }
    }
  }
  return results;
}

}  // namespace

TracedRun ReplicaGrid(std::uint64_t seed) {
  TracedRun run;
  run.span_names = GridSpanNames();
  Tracer tracer;
  std::vector<std::vector<attack::AttackResult>> grids;
  std::uint32_t op = 0;

  const double start = NowSeconds();
  for (std::uint64_t g = 0; g < kGridsPerBlock; ++g) {
    auto grid = Grid(seed + g, tracer, op);
    if (!grid.ok()) {
      run.campaign.status = grid.status();
      break;
    }
    grids.push_back(std::move(grid).value());
  }
  run.wall_seconds = NowSeconds() - start;
  run.threads.push_back(tracer.TakeSpans());

  if (!run.campaign.status.ok()) {
    run.campaign.ops = kGridsPerBlock * kGridCells;
    return run;
  }
  CheckGrids(seed, grids, run.campaign);
  run.campaign.seconds = run.wall_seconds;
  run.campaign.counts["attack.grid_cells"] = CountCalls(run.threads, kCell);
  return run;
}

}  // namespace perfbench
