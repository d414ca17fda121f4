#include "keys.hpp"

#include <array>

namespace perfbench {

inplane::service::WisdomKey TuneKey::wisdom(const std::string& kind, double beta) const {
  inplane::service::WisdomKey k;
  k.method = method;
  k.device = device;
  k.order = order;
  k.double_precision = dp;
  k.extent = extent;
  k.kind = kind;
  k.beta = kind == "model" ? beta : 0.0;
  k.temporal_degree = tb;
  return k;
}

std::string TuneKey::label() const {
  return method + (tb > 1 ? "/tb" + std::to_string(tb) : "") + " o" + std::to_string(order) +
         " " + device + (dp ? " dp " : " sp ") + std::to_string(extent.nx) + "x" +
         std::to_string(extent.ny) + "x" + std::to_string(extent.nz);
}

std::vector<TuneKey> key_cycle(Rng& rng, const std::vector<inplane::Extent3>& extents) {
  static const std::array<const char*, kVariants> kMethods = {
      "classical", "vertical", "horizontal", "fullslice", "forward", "fullslice"};
  static const std::array<const char*, 3> kDevices = {"gtx580", "gtx680", "c2070"};
  std::vector<TuneKey> keys;
  for (std::size_t v = 0; v < kVariants; ++v) {
    for (std::size_t o = 0; o < 6; ++o) {
      for (std::size_t p = 0; p < 2; ++p) {
        for (std::size_t e = 0; e < extents.size(); ++e) {
          TuneKey k;
          k.method = kMethods[v];
          k.tb = v == 5 ? 2 : 1;
          k.order = 2 + 2 * static_cast<int>(o);
          k.dp = p == 1;
          k.extent = extents[e];
          k.device = kDevices[(v + o + p + e) % 3];
          keys.push_back(k);
        }
      }
    }
  }
  rng.shuffle(keys);
  return keys;
}

}  // namespace perfbench
