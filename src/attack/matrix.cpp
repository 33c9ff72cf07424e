#include "src/attack/matrix.hpp"

#include "src/adapt/retarget.hpp"
#include "src/obs/obs.hpp"

namespace connlab::attack {

namespace {

/// Grid-cell bookkeeping shared by the matrix drivers: every completed cell
/// counts once; "blocked" means the generator produced a payload but the
/// victim survived with no shell and no crash (the mitigation ate it).
void CountGridCell(const AttackResult& result) {
  OBS_COUNT("attack.grid_cells");
  if (result.shell) {
    OBS_COUNT("attack.grid_shells");
  } else if (result.exploit_available && !result.crash) {
    OBS_COUNT("attack.grid_blocked");
  }
}

}  // namespace

namespace {

const loader::ProtectionConfig kLevels[] = {
    loader::ProtectionConfig::None(),
    loader::ProtectionConfig::WxOnly(),
    loader::ProtectionConfig::WxAslr(),
};

}  // namespace

util::Result<std::vector<AttackResult>> RunSixAttackMatrix(
    std::uint64_t target_seed, const vm::ExecConfig& exec) {
  std::vector<AttackResult> results;
  for (isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    for (const loader::ProtectionConfig& prot : kLevels) {
      ScenarioConfig config;
      config.arch = arch;
      config.prot = prot;
      config.target_seed = target_seed;
      config.exec = exec;
      CONNLAB_ASSIGN_OR_RETURN(AttackResult result,
                               RunControlledScenario(config));
      CountGridCell(result);
      results.push_back(std::move(result));
    }
  }
  return results;
}

util::Result<std::vector<AttackResult>> RunCrossTechniqueMatrix(
    isa::Arch arch, std::uint64_t target_seed) {
  std::vector<AttackResult> results;
  const exploit::Technique techniques[] = {
      exploit::Technique::kCodeInjection,
      arch == isa::Arch::kVX86 ? exploit::Technique::kRet2Libc
                               : exploit::Technique::kArmGadgetExeclp,
      exploit::Technique::kRopMemcpyChain,
  };
  for (exploit::Technique technique : techniques) {
    for (const loader::ProtectionConfig& prot : kLevels) {
      ScenarioConfig config;
      config.arch = arch;
      config.prot = prot;
      config.technique = technique;
      config.target_seed = target_seed;
      CONNLAB_ASSIGN_OR_RETURN(AttackResult result,
                               RunControlledScenario(config));
      results.push_back(std::move(result));
    }
  }
  return results;
}

util::Result<std::vector<AttackResult>> RunDefenseMatrix(
    std::uint64_t target_seed) {
  std::vector<AttackResult> results;
  for (isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    // Patched 1.35 at the weakest level: even there, nothing lands.
    {
      ScenarioConfig config;
      config.arch = arch;
      config.prot = loader::ProtectionConfig::None();
      config.version = connman::Version::k135;
      config.target_seed = target_seed;
      CONNLAB_ASSIGN_OR_RETURN(AttackResult result,
                               RunControlledScenario(config));
      results.push_back(std::move(result));
    }
    // Stack canary on top of W^X+ASLR: the defense the paper compiled out.
    {
      ScenarioConfig config;
      config.arch = arch;
      config.prot = loader::ProtectionConfig::All();
      config.target_seed = target_seed;
      CONNLAB_ASSIGN_OR_RETURN(AttackResult result,
                               RunControlledScenario(config));
      results.push_back(std::move(result));
    }
  }
  return results;
}

namespace {

/// One bug-class-zoo grid cell: fires the service's native exploit at a
/// victim hardened with `policy` (over a no-protection base, so each
/// mitigation's contribution is isolated).
util::Result<AttackResult> RunZooCell(const std::string& service,
                                      isa::Arch arch,
                                      const defense::DefensePolicy& policy,
                                      std::uint64_t target_seed) {
  loader::ProtectionConfig prot = loader::ProtectionConfig::None();
  policy.Configure(prot);

  CONNLAB_ASSIGN_OR_RETURN(
      adapt::AdaptResult zoo,
      service == "resolvd" ? adapt::AttackResolvd(arch, prot, target_seed)
                           : adapt::AttackCamstored(arch, prot, target_seed));
  AttackResult result;
  result.service = service;
  result.arch = arch;
  result.prot = loader::ProtectionConfig::None();
  result.technique = zoo.technique;
  result.exploit_available = true;
  result.shell = zoo.shell;
  result.crash = zoo.kind == adapt::ServiceOutcome::Kind::kCrash;
  result.kind = adapt::ToProxyOutcomeKind(zoo.kind);
  result.detail = zoo.detail;
  result.defense = policy.Label();
  result.payload_bytes = zoo.payload_bytes;
  result.failure = adapt::DiagnoseZooFailure(zoo.technique, prot, zoo.kind);
  return result;
}

}  // namespace

util::Result<std::vector<AttackResult>> RunDefenseGrid(
    std::uint64_t target_seed) {
  OBS_TRACE_SPAN(grid_span, "attack", "RunDefenseGrid");
  // The standard sweep plus the heap-integrity policy: the stack attacks
  // show it blocks nothing of theirs, the zoo shows what it does block.
  std::vector<defense::DefensePolicy> policies = defense::StandardPolicies();
  policies.push_back(defense::DefensePolicy::HeapIntegrityChecks());
  std::vector<AttackResult> results;
  results.reserve(10 * policies.size());
  for (isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    for (const loader::ProtectionConfig& prot : kLevels) {
      for (const defense::DefensePolicy& policy : policies) {
        ScenarioConfig config;
        config.arch = arch;
        config.prot = prot;
        config.target_seed = target_seed;
        config.defense = policy;
        OBS_TRACE_SPAN(cell_span, "attack", "GridCell");
        cell_span.Arg("arch", std::string(isa::ArchName(arch)));
        cell_span.Arg("defense", policy.Label());
        CONNLAB_ASSIGN_OR_RETURN(AttackResult result,
                                 RunControlledScenario(config));
        cell_span.Arg("outcome", result.OutcomeLabel());
        CountGridCell(result);
        results.push_back(std::move(result));
      }
    }
  }
  // The bug-class zoo: one row per (arch, service) per policy, covering
  // the two classes the stack-smash rows cannot represent.
  for (isa::Arch arch : {isa::Arch::kVX86, isa::Arch::kVARM}) {
    for (const char* service : {"resolvd", "camstored"}) {
      for (const defense::DefensePolicy& policy : policies) {
        OBS_TRACE_SPAN(cell_span, "attack", "GridCell");
        cell_span.Arg("arch", std::string(isa::ArchName(arch)));
        cell_span.Arg("service", std::string(service));
        cell_span.Arg("defense", policy.Label());
        CONNLAB_ASSIGN_OR_RETURN(
            AttackResult result,
            RunZooCell(service, arch, policy, target_seed));
        cell_span.Arg("outcome", result.OutcomeLabel());
        CountGridCell(result);
        results.push_back(std::move(result));
      }
    }
  }
  grid_span.Arg("cells", static_cast<std::uint64_t>(results.size()));
  return results;
}

}  // namespace connlab::attack
