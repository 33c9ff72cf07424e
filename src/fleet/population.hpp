// Population profiles: what a fleet of real IoT devices looks like.
//
// The DAEDALUS question is population-level — one profiled exploit against
// a *diverse* fleet — so the simulator needs a distribution over device
// configurations, not a single victim. A PopulationProfile describes that
// distribution (mitigation adoption rates, diversity entropy, traffic
// shape); SampleTraits draws one concrete device from it using the
// client's own deterministic RNG stream.
#pragma once

#include <cstdint>
#include <vector>

#include "src/defense/mitigation.hpp"
#include "src/fleet/event_queue.hpp"
#include "src/util/rng.hpp"

namespace connlab::fleet {

struct PopulationProfile {
  // Mitigation adoption across the fleet. Real IoT deployments are ragged:
  // most ship with nothing, some with a stack protector, few with CFI.
  double p_canary = 0.25;
  double p_cfi = 0.10;
  double p_heap_integrity = 0.15;  // allocators with hardened free()
  std::vector<int> canary_bits = {8, 16, 24};  // drawn uniformly if canaried

  // Diversity entropy: each device boots one of 2^diversity_bits layout
  // variants. 0 = monoculture (every device is the profiled device).
  int diversity_bits = 0;

  // Traffic shape, in virtual microseconds.
  std::uint32_t queries_per_session_mean = 8;  // uniform in [1, 2*mean)
  SimTime query_gap_us = 50;                   // uniform in [1, 2*gap)
  SimTime join_stagger_us = 2;                 // arrivals spread per client
  double p_roam = 0.05;  // detach + re-attach (renumber) after a session

  // DNS name space the clients query — a hot set plus a long tail, so
  // concurrent sessions contend for the rogue AP's response cache.
  std::uint32_t hot_names = 64;
  std::uint32_t tail_names = 100000;
  double p_hot = 0.8;

  static PopulationProfile IoTDefault() { return {}; }
};

/// One concrete device + session plan drawn from the profile.
struct ClientTraits {
  defense::DefensePolicy policy;
  std::uint32_t variant = 0;   // which of the 2^b layout variants it boots
  std::uint32_t queries = 1;   // DNS queries this session will issue
  bool roams = false;          // one detach/re-attach mid-life
};

/// Draws a device from the population. Deterministic given the rng state;
/// campaigns pass each client its own Split(client_id) stream.
ClientTraits SampleTraits(const PopulationProfile& profile, util::Rng& rng);

/// Uniform name-id draw over hot set + tail (cache-contention model).
std::uint64_t SampleQueryName(const PopulationProfile& profile, util::Rng& rng);

}  // namespace connlab::fleet
