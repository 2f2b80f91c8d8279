#include "core/config.hpp"

#include <sstream>

#include "common/check.hpp"
#include "core/kernels/kernel_context.hpp"

namespace fasted {

void FastedConfig::validate() const {
  FASTED_CHECK_MSG(block_tile_m % warp_tile_m == 0 &&
                       block_tile_n % warp_tile_n == 0,
                   "warp tiles must evenly cover the block tile");
  FASTED_CHECK_MSG((block_tile_m / warp_tile_m) *
                           (block_tile_n / warp_tile_n) ==
                       warps_per_block,
                   "warps_per_block must match the warp-tile grid");
  FASTED_CHECK_MSG(warp_tile_m % 16 == 0 && warp_tile_n % 8 == 0,
                   "warp tile must be a multiple of the m16n8k16 MMA shape");
  FASTED_CHECK_MSG(block_tile_k % 16 == 0, "k-slice must cover MMA k=16");
  FASTED_CHECK_MSG(warp_tile_k == 16,
                   "one register k-slice at a time (Sec. 3.3.7)");
  FASTED_CHECK_MSG(pipeline_stages >= 1 && pipeline_stages <= 4,
                   "pipeline depth out of range");
  FASTED_CHECK_MSG(dispatch_square >= 1, "dispatch square must be positive");
  FASTED_CHECK_MSG(
      smem_bytes_per_block() * static_cast<std::size_t>(residency()) <=
          device.smem_bytes_per_sm,
      "block tiles exceed the SM shared-memory capacity");
  FASTED_CHECK_MSG(kernels::kernel_selection_known(rz_kernel),
                   "unknown rz_dot kernel selection \"" + rz_kernel + "\"");
}

std::string FastedConfig::describe() const {
  std::ostringstream os;
  const char* policy = opt_block_tile_ordering ? "squares" : "row-major";
  os << "FaSTED config: block " << block_tile_m << "x" << block_tile_n << "x"
     << block_tile_k << ", warp " << effective_warp_tile_m() << "x"
     << effective_warp_tile_n() << "x" << warp_tile_k << ", "
     << warps_per_block << " warps, pipeline "
     << effective_pipeline_stages() << ", residency " << residency()
     << ", dispatch " << policy << " ("
     << dispatch_square << "x" << dispatch_square << ")";
  if (!rz_kernel.empty() && rz_kernel != "auto") {
    os << ", kernel " << rz_kernel;
  }
  return os.str();
}

}  // namespace fasted
