// ASCII report tables for the experiment binaries: the same rows the paper
// reports, regenerated from live runs.
#pragma once

#include <string>
#include <vector>

#include "src/attack/outcome.hpp"
#include "src/attack/scenario.hpp"

namespace connlab::attack {

/// Renders attack rows as a fixed-width table:
///   arch | protections | version | technique | defense | outcome | why |
///   payload | probes
std::string RenderMatrixTable(const std::vector<AttackResult>& results,
                              const std::string& title);

/// Pivots defense-grid rows (RunDefenseGrid order) into the summary table
/// the paper's §IV discussion implies: one row per attack, one column per
/// mitigation policy, each cell the outcome under that policy.
std::string RenderDefenseGrid(const std::vector<AttackResult>& results,
                              const std::string& title);

/// One-paragraph rendering of a remote (Pineapple) run.
std::string RenderRemoteResult(const RemoteResult& remote);

}  // namespace connlab::attack
