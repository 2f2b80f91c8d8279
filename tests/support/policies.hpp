// The execution-policy sweep of the bit-identity property tests: block-tile
// shapes and dispatch orders a FastedConfig can express.  A policy changes
// only how tiles are cut and drained, never the FP16/RZ distance chain, so
// every config here must reproduce the default config's answers bit for
// bit.

#pragma once

#include <vector>

#include "core/config.hpp"

namespace fasted::test_support {

// Block tiles {64, 128} x {64, 128}, each drained in 4x4 and 16x16 dispatch
// squares and in row-major order (the 3.3.1 toggle off).  Warp tiles stay
// 64x64, so warps_per_block follows the warp-tile grid; every config
// passes validate().
inline std::vector<FastedConfig> execution_policies() {
  std::vector<FastedConfig> out;
  for (const int tile_m : {64, 128}) {
    for (const int tile_n : {64, 128}) {
      FastedConfig cfg = FastedConfig::paper_defaults();
      cfg.block_tile_m = tile_m;
      cfg.block_tile_n = tile_n;
      cfg.warps_per_block =
          (tile_m / cfg.warp_tile_m) * (tile_n / cfg.warp_tile_n);
      for (const int square : {4, 16}) {
        cfg.dispatch_square = square;
        out.push_back(cfg);
      }
      cfg.opt_block_tile_ordering = false;
      out.push_back(cfg);
    }
  }
  for (const FastedConfig& cfg : out) cfg.validate();
  return out;
}

}  // namespace fasted::test_support
