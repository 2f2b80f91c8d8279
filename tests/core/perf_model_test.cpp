#include "core/perf_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>

#include "common/parallel.hpp"
#include "core/fasted.hpp"
#include "data/generators.hpp"
#include "support/scoped_pool.hpp"

namespace fasted {
namespace {

// Paper reference workload for Table 5 / Sec. 4.3: Synth |D|=1e5, d=4096.
constexpr std::size_t kN = 100000;
constexpr std::size_t kD = 4096;

// Throughput with one optimization switched off (none when `off` is null).
double tflops_with(bool FastedConfig::*off) {
  FastedConfig cfg = FastedConfig::paper_defaults();
  if (off) cfg.*off = false;
  return estimate_fasted_kernel(cfg, kN, kD).derived_tflops;
}

TEST(PerfModel, FullConfigReachesPaperThroughput) {
  // Paper: 154 TFLOPS with all optimizations enabled.
  const auto est = estimate_fasted_kernel(FastedConfig::paper_defaults(), kN, kD);
  EXPECT_NEAR(est.derived_tflops, 154.0, 154.0 * 0.10);
  // And the observed throttle: ~1.12 GHz, ~64% pipe utilization.
  EXPECT_NEAR(est.clock_ghz, 1.12, 0.08);
  EXPECT_NEAR(est.tc_utilization, 0.64, 0.08);
}

// Leave-one-out rows of Table 5, each within 15% of the paper's number.
// gtest prints a parameter without a printer as its raw bytes, and ctest
// records that text in the test name. A row therefore holds no addresses (a
// data-member pointer is an offset), so the names are the same in every build.
struct LeaveOneOut {
  bool FastedConfig::*option;  // switched off for this row
  double paper_tflops;
  double rel_tolerance;
};

constexpr const char* kRowNames[] = {
    "BlockTileOrdering", "BlockTile",        "MemcpyAsyncAndPipeline",
    "MultistagePipeline", "SmBlockResidency", "WarpTile",
    "SwizzledSmem",       "SmemAlignment",
};

const LeaveOneOut kRows[] = {
    {&FastedConfig::opt_block_tile_ordering, 133.1, 0.15},
    {&FastedConfig::opt_block_tile, 95.8, 0.15},
    {&FastedConfig::opt_memcpy_async, 48.6, 0.15},
    {&FastedConfig::opt_multistage_pipeline, 145.0, 0.15},
    {&FastedConfig::opt_sm_block_residency, 110.8, 0.15},
    {&FastedConfig::opt_warp_tile, 38.0, 0.15},
    {&FastedConfig::opt_swizzle, 120.8, 0.15},
    {&FastedConfig::opt_smem_alignment, 120.7, 0.15},
};
static_assert(std::size(kRowNames) == std::size(kRows));

class LeaveOneOutTest : public ::testing::TestWithParam<LeaveOneOut> {};

TEST_P(LeaveOneOutTest, WithinFifteenPercentOfPaper) {
  const auto& row = GetParam();
  const double measured = tflops_with(row.option);
  EXPECT_NEAR(measured, row.paper_tflops,
              row.paper_tflops * row.rel_tolerance);
  // Every disabled optimization must cost throughput.
  EXPECT_LT(measured, tflops_with(nullptr));
}

INSTANTIATE_TEST_SUITE_P(
    Table5, LeaveOneOutTest, ::testing::ValuesIn(kRows),
    [](const auto& info) { return std::string(kRowNames[info.index]); });

TEST(PerfModel, ThroughputGrowsWithDimensionality) {
  // Fig. 9 / Fig. 8 row shape: monotone growth toward saturation.
  const FastedConfig cfg = FastedConfig::paper_defaults();
  double prev = 0;
  for (std::size_t d : {64, 128, 256, 512, 1024, 2048, 4096}) {
    const double t = estimate_fasted_kernel(cfg, kN, d).derived_tflops;
    EXPECT_GT(t, prev * 0.95) << d;  // allow saturation plateau
    prev = t;
  }
  EXPECT_GT(prev, 140.0);  // saturates near 150
}

TEST(PerfModel, Figure8AnchorCells) {
  const FastedConfig cfg = FastedConfig::paper_defaults();
  // |D|=1e5 row of Fig. 8 (TFLOPS): d=128 -> 30, d=512 -> 91, d=1024 -> 132.
  EXPECT_NEAR(estimate_fasted_kernel(cfg, 100000, 128).derived_tflops, 30.0,
              30.0 * 0.25);
  EXPECT_NEAR(estimate_fasted_kernel(cfg, 100000, 512).derived_tflops, 91.0,
              91.0 * 0.25);
  EXPECT_NEAR(estimate_fasted_kernel(cfg, 100000, 1024).derived_tflops, 132.0,
              132.0 * 0.25);
}

TEST(PerfModel, SmallDatasetsAreOverheadBound) {
  // Fig. 8 bottom-left corner: tiny workloads cannot feed the device.
  const FastedConfig cfg = FastedConfig::paper_defaults();
  const double small = estimate_fasted_kernel(cfg, 1000, 64).derived_tflops;
  EXPECT_LT(small, 5.0);
}

TEST(PerfModel, ThroughputGrowsWithDatasetSize) {
  const FastedConfig cfg = FastedConfig::paper_defaults();
  double prev = 0;
  for (std::size_t n : {1000, 4642, 21544, 100000, 464159}) {
    const double t = estimate_fasted_kernel(cfg, n, 2048).derived_tflops;
    EXPECT_GE(t, prev * 0.9) << n;
    prev = t;
  }
}

TEST(PerfModel, MinimumSaturationPoint) {
  // Paper Sec. 4.2: |D|=46416, d=2048 suffices for ~150 TFLOPS.
  const FastedConfig cfg = FastedConfig::paper_defaults();
  const double t = estimate_fasted_kernel(cfg, 46416, 2048).derived_tflops;
  EXPECT_GT(t, 135.0);
}

TEST(PerfModel, SxmPowerBudgetLiftsThroughput) {
  // Conclusion: 400 W budget -> no throttle -> more TFLOPS.
  FastedConfig sxm = FastedConfig::paper_defaults();
  sxm.device = sim::DeviceSpec::a100_sxm();
  const double pcie = tflops_with(nullptr);
  const double lifted = estimate_fasted_kernel(sxm, kN, kD).derived_tflops;
  EXPECT_GT(lifted, pcie * 1.1);
}

TEST(PerfModel, L2HitRateHighWithOrdering) {
  const auto est =
      estimate_fasted_kernel(FastedConfig::paper_defaults(), kN, kD);
  EXPECT_GT(est.l2_hit_rate, 0.80);  // Table 6: 84.4% at d=4096
  FastedConfig row = FastedConfig::paper_defaults();
  row.opt_block_tile_ordering = false;
  EXPECT_LT(estimate_fasted_kernel(row, kN, kD).l2_hit_rate, 0.6);
}

TEST(PerfModel, CountersAreConsistent) {
  const auto est =
      estimate_fasted_kernel(FastedConfig::paper_defaults(), 10000, 256);
  const auto& c = est.counters;
  EXPECT_GT(c.tc_fp16_flops, 2.0 * 1e8 * 256);  // >= 2 n^2 d
  EXPECT_EQ(c.kernel_seconds, est.kernel_seconds);
  EXPECT_GT(c.l2_read_bytes, 0.0);
  EXPECT_LE(c.dram_bytes, c.l2_read_bytes);
  EXPECT_GT(c.smem_load_bytes, c.smem_store_bytes);  // 64 KB vs 32 KB per iter
}

TEST(PerfModel, DeviceMemoryReproducesPaperOomCell) {
  // Table 7: Sift10M (|D|=1e7, d=128) fits at S=128 but OOMs at S=256 on
  // the 40 GB part (|R| = |D| * (S+1) pairs buffered on device).
  FastedEngine engine;
  const std::size_t n = 10'000'000;
  const auto s128 = engine.device_memory_report(n, 128, n * 129ull);
  const auto s256 = engine.device_memory_report(n, 128, n * 257ull);
  EXPECT_TRUE(s128.fits);
  EXPECT_FALSE(s256.fits);
  // The other Table 7 datasets fit at every selectivity.
  EXPECT_TRUE(engine.device_memory_report(5'000'000, 384, 5'000'000 * 257ull)
                  .fits);
  EXPECT_TRUE(engine.device_memory_report(1'000'000, 960, 1'000'000 * 257ull)
                  .fits);
}

TEST(PerfModel, DispatchSquareAblation) {
  // Larger squares improve reuse until the square working set blows L2.
  FastedConfig cfg = FastedConfig::paper_defaults();
  cfg.dispatch_square = 2;
  const double s2 = estimate_fasted_kernel(cfg, kN, kD).counters.dram_bytes;
  cfg.dispatch_square = 8;
  const double s8 = estimate_fasted_kernel(cfg, kN, kD).counters.dram_bytes;
  EXPECT_LT(s8, s2);
}

// Block tiles the executor drained during `run`, summed over domains.
template <typename Fn>
std::uint64_t tiles_drained_by(const Fn& run) {
  ThreadPool& pool = ThreadPool::global();
  const auto baseline = pool.domain_load_snapshot();
  run();
  const auto loads = pool.domain_loads_since(baseline);
  return std::accumulate(
      loads.begin(), loads.end(), std::uint64_t{0},
      [](std::uint64_t acc, const DomainLoad& l) { return acc + l.total(); });
}

// The model's block-tile grid is not a free parameter: the executor drains
// exactly query_tiles x corpus_tiles work items, and the pool's domain
// load counters record every one.  Pin the prediction to the recorded
// counters on a fixed small corpus.
TEST(PerfModel, ModelTileGridMatchesRecordedDrainCounters) {
  test_support::ScopedTopology topo(1);
  const std::size_t nq = 96, nc = 600, d = 16;
  const auto corpus = data::uniform(nc, d, 123);
  const auto queries = data::uniform(nq, d, 124);
  const FastedConfig cfg = FastedConfig::paper_defaults();

  const PerfEstimate est = estimate_fasted_join_kernel(cfg, nq, nc, d);
  const std::size_t tm = static_cast<std::size_t>(cfg.block_tile_m);
  const std::size_t tn = static_cast<std::size_t>(cfg.block_tile_n);
  EXPECT_EQ(est.query_tiles, (nq + tm - 1) / tm);
  EXPECT_EQ(est.corpus_tiles, (nc + tn - 1) / tn);

  JoinOptions count_only;
  count_only.build_result = false;
  const std::uint64_t drained = tiles_drained_by([&] {
    FastedEngine(cfg).query_join(PreparedDataset(queries),
                                 PreparedDataset(corpus), 0.5f, count_only);
  });
  EXPECT_EQ(drained,
            static_cast<std::uint64_t>(est.query_tiles * est.corpus_tiles));
}

// Same pinning for a hand-built 64x64 tile shape: the smaller tile must
// multiply the drained-tile count exactly as the model predicts.
TEST(PerfModel, TunedTileShapeScalesDrainCountersWithModel) {
  test_support::ScopedTopology topo(1);
  const std::size_t nq = 128, nc = 512, d = 16;
  const auto corpus = data::uniform(nc, d, 125);
  const auto queries = data::uniform(nq, d, 126);

  const FastedConfig base = FastedConfig::paper_defaults();
  FastedConfig cfg = base;
  cfg.block_tile_m = 64;
  cfg.block_tile_n = 64;
  cfg.warps_per_block = 1;  // one 64x64 warp tile covers the block
  ASSERT_NO_THROW(cfg.validate());

  const PerfEstimate est = estimate_fasted_join_kernel(cfg, nq, nc, d);
  EXPECT_EQ(est.query_tiles, (nq + 63) / 64);
  EXPECT_EQ(est.corpus_tiles, (nc + 63) / 64);

  JoinOptions count_only;
  count_only.build_result = false;
  const std::uint64_t drained = tiles_drained_by([&] {
    FastedEngine(cfg).query_join(PreparedDataset(queries),
                                 PreparedDataset(corpus), 0.5f, count_only);
  });
  EXPECT_EQ(drained,
            static_cast<std::uint64_t>(est.query_tiles * est.corpus_tiles));
  // And the model agrees a 64x64 grid has 4x the tiles of the 128x128 one.
  const PerfEstimate big = estimate_fasted_join_kernel(base, nq, nc, d);
  EXPECT_EQ(est.query_tiles * est.corpus_tiles,
            4 * big.query_tiles * big.corpus_tiles);
}

}  // namespace
}  // namespace fasted
