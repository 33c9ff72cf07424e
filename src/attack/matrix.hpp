// The experiment matrix (the paper's six exploits, plus the rows the paper
// implies): every (arch, protection) pair with its matching technique,
// cross-technique failure rows, patched-build rows and the canary ablation.
#pragma once

#include <vector>

#include "src/attack/outcome.hpp"
#include "src/attack/scenario.hpp"

namespace connlab::attack {

/// The paper's core table: 2 architectures x 3 protection levels, each
/// attacked with the matching technique against the vulnerable build.
/// `exec` reaches every boot of every row.
util::Result<std::vector<AttackResult>> RunSixAttackMatrix(
    std::uint64_t target_seed = 4242, const vm::ExecConfig& exec = {});

/// Cross rows: each technique fired at every protection level (shows where
/// each one stops working — the reason the paper escalates).
util::Result<std::vector<AttackResult>> RunCrossTechniqueMatrix(
    isa::Arch arch, std::uint64_t target_seed = 4242);

/// Defense rows: patched 1.35 and canary builds against the best exploit.
util::Result<std::vector<AttackResult>> RunDefenseMatrix(
    std::uint64_t target_seed = 4242);

/// The full defense grid: every one of the six paper attacks fired at a
/// victim hardened with each standard mitigation policy — none, canary,
/// shadow-stack CFI, stochastic diversity, all three stacked, plus the
/// heap-integrity policy (attack-major). On top of the 36 dnsproxy rows,
/// the bug-class zoo contributes resolvd (pointer-loop DoS) and camstored
/// (heap-metadata unlink) on both architectures against every policy —
/// 60 rows total. The attacker's lab always profiles the *undefended*
/// build, so each row records honestly why the exploit missed: the stack
/// policies do nothing against the heap bug class and vice versa.
util::Result<std::vector<AttackResult>> RunDefenseGrid(
    std::uint64_t target_seed = 4242);

}  // namespace connlab::attack
