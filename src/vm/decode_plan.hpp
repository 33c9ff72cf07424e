// The VM keeps no decode plans: the interpreter decodes every step in place,
// and the superblock tier (vm/superblock.hpp) is its only decode cache.
#pragma once

namespace connlab::vm {

/// An empty type with a no-op Clear(), kept only for perfbench/workloads.cpp,
/// which calls `vm::DecodePlanRegistry::Instance().Clear()` before each
/// campaign. No decode outlives its CPU, so every campaign already starts as
/// a fresh process would.
struct DecodePlanRegistry {
  static DecodePlanRegistry Instance() noexcept { return {}; }
  void Clear() noexcept {}
};

}  // namespace connlab::vm
