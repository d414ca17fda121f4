#pragma once

// The seeded tuning-key space shared by the cold_tune, daemon_mix and
// fleet_sweep workloads.

#include <string>
#include <vector>

#include "common.hpp"
#include "core/extent.hpp"
#include "service/wisdom_cache.hpp"

namespace perfbench {

/// One tuning problem: what `inplane tune` is asked for.
struct TuneKey {
  std::string method;  ///< CLI method name
  int order = 2;
  std::string device;
  bool dp = false;
  inplane::Extent3 extent{512, 512, 256};
  int tb = 1;  ///< max temporal degree swept (2 only for the full-slice variant)

  [[nodiscard]] inplane::service::WisdomKey wisdom(const std::string& kind, double beta) const;
  [[nodiscard]] std::string label() const;
};

inline constexpr double kModelBeta = 0.05;

/// The six variants every tuning round covers: the five loading methods
/// and full-slice with temporal degree 2.
inline constexpr std::size_t kVariants = 6;

/// One cycle of the key space: every variant x order {2..12} x precision
/// x extent of @p extents once, in seeded order.  Devices rotate over the
/// cycle in a fixed pattern so each appears equally often; the seed
/// decides only the order.  Every cycle holds the same keys whatever the
/// seed, so runs that cover whole cycles differ only by noise.
[[nodiscard]] std::vector<TuneKey> key_cycle(Rng& rng,
                                             const std::vector<inplane::Extent3>& extents);

/// Keys in one key_cycle over @p n_extents extents (6 orders x 2 precisions).
constexpr std::size_t cycle_size(std::size_t n_extents) { return kVariants * 6 * 2 * n_extents; }

}  // namespace perfbench
