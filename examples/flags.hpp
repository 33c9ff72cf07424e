// Command-line helpers the campaign examples share: `--name=value` and
// bare `--name` extraction, and the error exit.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/util/status.hpp"

namespace connlab::examples {

/// Prints the status as `error: ...` on stdout; returns the exit code 1.
inline int Fail(const util::Status& status) {
  std::printf("error: %s\n", status.ToString().c_str());
  return 1;
}

/// Pulls `--name=value` out of the argument list (anywhere on the line) so
/// the positional parameters keep their meaning. Empty when absent.
inline std::string TakeFlag(std::vector<std::string>& args,
                            const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (it->rfind(prefix, 0) == 0) {
      std::string value = it->substr(prefix.size());
      args.erase(it);
      return value;
    }
  }
  return {};
}

/// Pulls a bare `--name` switch out of the argument list.
inline bool TakeBareFlag(std::vector<std::string>& args,
                         const std::string& name) {
  const std::string flag = "--" + name;
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      args.erase(it);
      return true;
    }
  }
  return false;
}

}  // namespace connlab::examples
