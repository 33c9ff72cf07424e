#include "src/attack/report.hpp"

#include <cstdio>

namespace connlab::attack {

std::string RenderMatrixTable(const std::vector<AttackResult>& results,
                              const std::string& title) {
  std::string out = "== " + title + " ==\n";
  char line[320];
  std::snprintf(line, sizeof(line),
                "%-6s %-14s %-18s %-18s %-10s %-14s %-16s %8s %7s\n",
                "arch", "protections", "version", "technique", "defense",
                "outcome", "why", "payload", "probes");
  out += line;
  out += std::string(117, '-') + "\n";
  for (const AttackResult& r : results) {
    std::snprintf(line, sizeof(line),
                  "%-6s %-14s %-18s %-18s %-10s %-14s %-16s %8zu %7d\n",
                  std::string(isa::ArchName(r.arch)).c_str(),
                  r.prot.ToString().c_str(),
                  std::string(connman::VersionName(r.version)).c_str(),
                  std::string(exploit::TechniqueName(r.technique)).c_str(),
                  r.defense.c_str(), r.OutcomeLabel().c_str(),
                  r.FailureLabel().c_str(), r.payload_bytes, r.probes);
    out += line;
  }
  return out;
}

namespace {

/// Grid row identity: the zoo rows carry their service name, the paper
/// rows stay exactly as before (service "dnsproxy" is implicit).
std::string GridRowKey(const AttackResult& r) {
  std::string key = std::string(isa::ArchName(r.arch)) + " / " +
                    r.prot.ToString() + " / " +
                    std::string(exploit::TechniqueName(r.technique));
  if (r.service != "dnsproxy") key = r.service + ": " + key;
  return key;
}

}  // namespace

std::string RenderDefenseGrid(const std::vector<AttackResult>& results,
                              const std::string& title) {
  // Column order = order of first appearance (RunDefenseGrid emits the
  // standard policies attack-major, so this recovers the policy sweep).
  std::vector<std::string> columns;
  for (const AttackResult& r : results) {
    bool known = false;
    for (const std::string& c : columns) known = known || c == r.defense;
    if (!known) columns.push_back(r.defense);
  }

  std::string out = "== " + title + " ==\n";
  char cell[64];
  std::snprintf(cell, sizeof(cell), "%-38s", "attack");
  out += cell;
  for (const std::string& c : columns) {
    std::snprintf(cell, sizeof(cell), " %-15s", c.c_str());
    out += cell;
  }
  out += "\n" + std::string(38 + 16 * columns.size(), '-') + "\n";

  std::vector<std::string> row_keys;
  for (const AttackResult& r : results) {
    const std::string key = GridRowKey(r);
    bool known = false;
    for (const std::string& k : row_keys) known = known || k == key;
    if (known) continue;
    row_keys.push_back(key);

    std::snprintf(cell, sizeof(cell), "%-38s", key.c_str());
    out += cell;
    for (const std::string& c : columns) {
      std::string value = "?";
      for (const AttackResult& other : results) {
        if (GridRowKey(other) != key || other.defense != c) continue;
        if (other.shell) {
          value = "SHELL";
        } else if (other.crash &&
                   other.failure == exploit::FailureCause::kNone) {
          // Control-flow-free bug classes: the crash *is* the attack.
          value = "DoS";
        } else {
          value = "blocked:" + other.FailureLabel();
        }
        break;
      }
      std::snprintf(cell, sizeof(cell), " %-15s", value.c_str());
      out += cell;
    }
    out += "\n";
  }
  return out;
}

std::string RenderRemoteResult(const RemoteResult& remote) {
  std::string out;
  out += "benign resolution before attack: ";
  out += remote.benign_resolution_before ? "ok" : "FAILED";
  out += "\nvictim roamed to rogue AP:       ";
  out += remote.roamed_to_rogue ? "yes" : "NO";
  out += "\nqueries intercepted:             " +
         std::to_string(remote.queries_intercepted);
  out += "\nattack technique:                " +
         std::string(exploit::TechniqueName(remote.attack.technique));
  out += "\noutcome:                         " + remote.attack.OutcomeLabel();
  out += "\n";
  return out;
}

}  // namespace connlab::attack
