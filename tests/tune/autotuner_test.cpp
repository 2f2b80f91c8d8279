// AutoTuner behavior on a fixed small corpus: the measured tune smoke
// (valid winner, probes actually ran, monotone vs the default), the
// model-only predict() path the regime retune uses, and the perf-model
// pinning tests — the model's block-tile grid must agree with the tile
// counts the executor's drain/steal counters actually record.

#include "tune/autotuner.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>

#include "common/parallel.hpp"
#include "core/fasted.hpp"
#include "core/perf_model.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "support/scoped_pool.hpp"

namespace fasted::tune {
namespace {

using test_support::ScopedTopology;

TuneOptions small_options() {
  TuneOptions opts;
  opts.probe_rows = 1024;
  opts.probe_queries = 64;
  opts.probe_reps = 1;
  opts.model_keep = 2;
  opts.space.tile_sides = {64, 128};
  opts.space.squares = {4, 8};
  opts.space.capacity_fractions = {1.0, 0.5};
  opts.space.min_shard_capacity = 128;
  return opts;
}

TEST(AutoTuner, TuneSmokeAtTwoThousandRows) {
  ScopedTopology topo(2);
  const auto corpus = data::uniform(2048, 16, 99);
  const float eps = data::calibrate_epsilon(corpus, 24.0).eps;

  AutoTuner tuner(FastedConfig::paper_defaults(), small_options());
  const TuneReport report = tuner.tune(corpus, corpus.rows(), 2, eps);

  EXPECT_TRUE(report.measured);
  EXPECT_GT(report.space_size, 0u);
  EXPECT_GT(report.model_scored, 0u);
  EXPECT_GT(report.probes, 0u);
  EXPECT_TRUE(report.best.valid(tuner.base())) << report.best.describe();
  ASSERT_FALSE(report.candidates.empty());
  EXPECT_TRUE(report.candidates.front().probed);
  // Monotone adoption guarantee: the returned schedule never measured
  // slower than the always-probed default.
  EXPECT_GT(report.default_pairs_per_s, 0.0);
  EXPECT_GE(report.best_pairs_per_s, report.default_pairs_per_s);
  // Probes are count-only joins on the same sample: every probed candidate
  // must agree on the pair count (bit-exactness makes pairs/s a pure speed
  // ranking).
  std::uint64_t pairs = 0;
  for (const Candidate& c : report.candidates) {
    if (!c.probed) continue;
    if (pairs == 0) pairs = c.measured.pairs;
    EXPECT_EQ(c.measured.pairs, pairs) << c.schedule.describe();
  }
  EXPECT_GT(pairs, 0u);
  // Report renderings stay usable.
  EXPECT_NE(report.table().find(report.best.describe()), std::string::npos);
  EXPECT_NE(report.json().find("\"speedup\""), std::string::npos);
}

TEST(AutoTuner, PredictIsModelOnly) {
  AutoTuner tuner(FastedConfig::paper_defaults(), small_options());
  const TuneReport report = tuner.predict(1u << 20, 64, 4);
  EXPECT_FALSE(report.measured);
  EXPECT_EQ(report.probes, 0u);
  EXPECT_GT(report.model_scored, 0u);
  EXPECT_TRUE(report.best.valid(tuner.base())) << report.best.describe();
  ASSERT_FALSE(report.candidates.empty());
  // Ranked by predicted seconds, fastest first.
  for (std::size_t i = 1; i < report.candidates.size(); ++i) {
    EXPECT_LE(report.candidates[i - 1].predicted_s,
              report.candidates[i].predicted_s);
  }
  // predict() keeps the corpus' physical layout: it never proposes a
  // capacity change (that requires a measured tune + explicit rechunk).
  EXPECT_EQ(report.best.shard_capacity,
            Schedule::defaults(tuner.base(), 1u << 20, 4).shard_capacity);
}

// The model's block-tile grid is not a free parameter: the executor drains
// exactly query_tiles x corpus_tiles work items, and the pool's domain
// load counters record every one.  Pin the prediction to the recorded
// counters on a fixed small corpus.
TEST(AutoTuner, ModelTileGridMatchesRecordedDrainCounters) {
  ScopedTopology topo(1);
  const std::size_t nq = 96, nc = 600, d = 16;
  const auto corpus = data::uniform(nc, d, 123);
  const auto queries = data::uniform(nq, d, 124);
  const FastedConfig cfg = FastedConfig::paper_defaults();

  const PerfEstimate est = estimate_fasted_join_kernel(cfg, nq, nc, d);
  const std::size_t tm = static_cast<std::size_t>(cfg.block_tile_m);
  const std::size_t tn = static_cast<std::size_t>(cfg.block_tile_n);
  EXPECT_EQ(est.query_tiles, (nq + tm - 1) / tm);
  EXPECT_EQ(est.corpus_tiles, (nc + tn - 1) / tn);

  ThreadPool& pool = ThreadPool::global();
  const auto baseline = pool.domain_load_snapshot();
  FastedEngine engine(cfg);
  JoinOptions count_only;
  count_only.build_result = false;
  engine.query_join(PreparedDataset(queries), PreparedDataset(corpus), 0.5f,
                    count_only);
  const auto loads = pool.domain_loads_since(baseline);
  const std::uint64_t drained = std::accumulate(
      loads.begin(), loads.end(), std::uint64_t{0},
      [](std::uint64_t acc, const DomainLoad& l) { return acc + l.total(); });
  EXPECT_EQ(drained,
            static_cast<std::uint64_t>(est.query_tiles * est.corpus_tiles));
}

// Same pinning through a tuned schedule: a smaller tile shape must
// multiply the drained-tile count exactly as the model predicts.
TEST(AutoTuner, TunedTileShapeScalesDrainCountersWithModel) {
  ScopedTopology topo(1);
  const std::size_t nq = 128, nc = 512, d = 16;
  const auto corpus = data::uniform(nc, d, 125);
  const auto queries = data::uniform(nq, d, 126);

  Schedule small;
  small.tile_m = 64;
  small.tile_n = 64;
  const FastedConfig base = FastedConfig::paper_defaults();
  ASSERT_TRUE(small.valid(base));
  const FastedConfig cfg = small.apply(base);

  const PerfEstimate est = estimate_fasted_join_kernel(cfg, nq, nc, d);
  EXPECT_EQ(est.query_tiles, (nq + 63) / 64);
  EXPECT_EQ(est.corpus_tiles, (nc + 63) / 64);

  ThreadPool& pool = ThreadPool::global();
  const auto baseline = pool.domain_load_snapshot();
  FastedEngine engine(cfg);
  JoinOptions count_only;
  count_only.build_result = false;
  engine.query_join(PreparedDataset(queries), PreparedDataset(corpus), 0.5f,
                    count_only);
  const auto loads = pool.domain_loads_since(baseline);
  const std::uint64_t drained = std::accumulate(
      loads.begin(), loads.end(), std::uint64_t{0},
      [](std::uint64_t acc, const DomainLoad& l) { return acc + l.total(); });
  EXPECT_EQ(drained,
            static_cast<std::uint64_t>(est.query_tiles * est.corpus_tiles));
  // And the model agrees a 64x64 grid has 4x the tiles of the 128x128 one.
  const PerfEstimate big = estimate_fasted_join_kernel(base, nq, nc, d);
  EXPECT_EQ(est.query_tiles * est.corpus_tiles,
            4 * big.query_tiles * big.corpus_tiles);
}

}  // namespace
}  // namespace fasted::tune
