// ShardedCorpus lifecycle contracts: bulk split geometry, append/seal
// mechanics, and — the property that makes incremental ingest worth having
// — sealed shards' caches SURVIVING appends (pointer identity for prepared
// data and grids, stat identity for calibration blocks).

#include "service/sharded_corpus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "core/sums.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "support/prepared.hpp"

namespace fasted::service {
namespace {

TEST(ShardedCorpus, BulkSplitIsContiguousAndSealsFullShards) {
  const auto data = data::uniform(1000, 8, 71);
  ShardedCorpusOptions opts;
  opts.shards = 3;
  ShardedCorpus corpus{MatrixF32(data), opts};

  EXPECT_EQ(corpus.size(), 1000u);
  EXPECT_EQ(corpus.dims(), 8u);
  EXPECT_EQ(corpus.shard_count(), 3u);
  EXPECT_EQ(corpus.shard_capacity(), 334u);  // ceil(1000 / 3)

  const auto infos = corpus.shard_infos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].base, 0u);
  EXPECT_EQ(infos[0].rows, 334u);
  EXPECT_TRUE(infos[0].sealed);
  EXPECT_EQ(infos[1].base, 334u);
  EXPECT_TRUE(infos[1].sealed);
  EXPECT_EQ(infos[2].base, 668u);
  EXPECT_EQ(infos[2].rows, 332u);
  EXPECT_FALSE(infos[2].sealed);  // below capacity -> open

  // Shard rows are exact slices of the logical corpus, and the prepared
  // data is the per-row pipeline preparation of exactly those rows.
  const auto snap = corpus.snapshot();
  for (const auto& slot : *snap) {
    const auto& shard = slot.shard;
    for (std::size_t i = 0; i < shard->rows(); ++i) {
      for (std::size_t k = 0; k < data.dims(); ++k) {
        ASSERT_EQ(shard->points.at(i, k), data.at(shard->base + i, k));
      }
    }
  }
}

TEST(ShardedCorpus, AppendFillsSealsAndOpensShards) {
  const auto data = data::uniform(250, 8, 72);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus{row_slice(data, 0, 130), opts};
  EXPECT_EQ(corpus.shard_count(), 2u);  // 100 sealed + 30 open

  corpus.append(row_slice(data, 130, 250));  // 30 fills + seals, 90 opens
  EXPECT_EQ(corpus.size(), 250u);
  EXPECT_EQ(corpus.shard_count(), 3u);
  const auto infos = corpus.shard_infos();
  EXPECT_TRUE(infos[0].sealed);
  EXPECT_TRUE(infos[1].sealed);
  EXPECT_EQ(infos[1].rows, 100u);
  EXPECT_FALSE(infos[2].sealed);
  EXPECT_EQ(infos[2].rows, 50u);

  const auto stats = corpus.stats();
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.rows_appended, 120u);
  EXPECT_EQ(stats.shards_sealed, 1u);
  EXPECT_EQ(stats.open_rebuilds, 1u);  // only the 30-row open shard rebuilt

  // Global row order equals ingestion order regardless of shard boundaries.
  const auto snap = corpus.snapshot();
  for (const auto& slot : *snap) {
    const auto& shard = slot.shard;
    for (std::size_t i = 0; i < shard->rows(); ++i) {
      for (std::size_t k = 0; k < data.dims(); ++k) {
        ASSERT_EQ(shard->points.at(i, k), data.at(shard->base + i, k));
      }
    }
  }
}

TEST(ShardedCorpus, SealedShardCachesSurviveAppendByPointerIdentity) {
  const auto data = data::uniform(300, 8, 73);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus{row_slice(data, 0, 250), opts};
  ASSERT_EQ(corpus.shard_count(), 3u);  // 100, 100, open 50

  // Touch artifacts on every shard; pin the pre-append snapshot so the
  // old open shard cannot be freed (and its address reused) under us.
  const auto pre_append = corpus.snapshot();
  const PreparedDataset* prep0 = &corpus.prepared(0);
  const PreparedDataset* prep1 = &corpus.prepared(1);
  const index::GridIndex* grid0 = &corpus.grid_at(0, 0.5f);
  const index::GridIndex* grid1 = &corpus.grid_at(1, 0.5f);
  const index::GridIndex* grid_open = &corpus.grid_at(2, 0.5f);
  EXPECT_EQ(corpus.stats().grids_built, 3u);

  corpus.append(row_slice(data, 250, 300));  // open shard rebuilt (50 -> 100)

  // Sealed shards: the SAME objects — no re-preparation, no grid rebuild.
  EXPECT_EQ(&corpus.prepared(0), prep0);
  EXPECT_EQ(&corpus.prepared(1), prep1);
  EXPECT_EQ(&corpus.grid_at(0, 0.5f), grid0);
  EXPECT_EQ(&corpus.grid_at(1, 0.5f), grid1);
  EXPECT_EQ(corpus.stats().grids_built, 3u);  // no new builds for sealed

  // The open shard was replaced: its grid cache was invalidated, and
  // asking again builds a fresh one over the grown shard.
  const index::GridIndex* grid2 = &corpus.grid_at(2, 0.5f);
  EXPECT_NE(grid2, grid_open);
  EXPECT_EQ(corpus.stats().grids_built, 4u);
}

TEST(ShardedCorpus, CalibrationBlocksAreReusedAcrossAppends) {
  const auto data = data::uniform(300, 8, 74);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus{row_slice(data, 0, 250), opts};
  const std::size_t k = 3;  // shards: sealed, sealed, open

  // First calibration builds every (sample shard x target shard) block.
  const float eps1 = corpus.eps_for_selectivity(32.0);
  EXPECT_GT(eps1, 0.0f);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k);
  EXPECT_EQ(corpus.stats().calibration_misses, 1u);

  // Cached target: no new blocks, a hit.
  EXPECT_EQ(corpus.eps_for_selectivity(32.0), eps1);
  EXPECT_EQ(corpus.stats().calibration_hits, 1u);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k);

  // Append replaces only the open shard; recalibration must rebuild ONLY
  // the blocks involving it: (k-1) sealed->new + new->(k-1) sealed + 1
  // new->new = 2k - 1.  Blocks between sealed shards are stat-identical.
  corpus.append(row_slice(data, 250, 300));
  const float eps2 = corpus.eps_for_selectivity(32.0);
  EXPECT_GT(eps2, 0.0f);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, k * k + 2 * k - 1);
  EXPECT_EQ(corpus.stats().calibration_misses, 2u);

  // The calibrated radius lands near the requested selectivity (it is a
  // sampled estimate) — verify against the exact count.
  const MatrixF32 whole = row_slice(data, 0, 300);
  const double achieved = data::exact_selectivity(whole, eps2);
  EXPECT_GT(achieved, 32.0 * 0.5);
  EXPECT_LT(achieved, 32.0 * 2.0);
}

TEST(ShardedCorpus, CalibrationIsDeleteAwareWithoutBlockRebuilds) {
  const auto data = data::uniform(600, 8, 77);
  ShardedCorpusOptions opts;
  opts.shards = 3;
  ShardedCorpus corpus{MatrixF32(data), opts};
  const double target = 24.0;

  const float eps_before = corpus.eps_for_selectivity(target);
  EXPECT_GT(eps_before, 0.0f);
  const auto blocks = corpus.stats().calibration_blocks_built;
  const auto misses = corpus.stats().calibration_misses;

  // Tombstone every even row — half of every shard.  Joins filter those
  // rows, so a radius tuned for `target` over physical candidates would
  // really land ~target/2 surviving matches.
  std::vector<std::uint32_t> dead;
  for (std::uint32_t i = 0; i < data.rows(); i += 2) dead.push_back(i);
  ASSERT_EQ(corpus.erase(dead), dead.size());

  // erase() invalidates the cached target -> eps entry, and recalibration
  // re-pools the UNCHANGED cached distance blocks under the new alive
  // fractions: a miss, zero block rebuilds.
  const float eps_after = corpus.eps_for_selectivity(target);
  EXPECT_EQ(corpus.stats().calibration_misses, misses + 1);
  EXPECT_EQ(corpus.stats().calibration_blocks_built, blocks);

  // Holding `target` SURVIVING neighbors with half the candidates dead
  // needs a strictly larger radius...
  EXPECT_GT(eps_after, eps_before);

  // ...and that radius lands near the target over the surviving rows
  // alone (same estimate tolerance as the physical-row test above).
  MatrixF32 survivors(data.rows() / 2, data.dims());
  for (std::size_t i = 0; i < survivors.rows(); ++i) {
    for (std::size_t k = 0; k < data.dims(); ++k) {
      survivors.at(i, k) = data.at(2 * i + 1, k);
    }
  }
  const double achieved = data::exact_selectivity(survivors, eps_after);
  EXPECT_GT(achieved, target * 0.5);
  EXPECT_LT(achieved, target * 2.0);
}

// Grid candidates of an external query must be a superset of its true
// eps-neighbors in the corpus; `candidates(q, out)` fills global row ids.
template <typename Candidates>
void expect_candidates_cover_neighbors(const MatrixF32& corpus_data,
                                       const MatrixF32& queries, float eps,
                                       Candidates candidates) {
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    std::vector<std::uint32_t> cand;
    candidates(queries.row(qi), cand);
    const std::set<std::uint32_t> cset(cand.begin(), cand.end());
    for (std::size_t j = 0; j < corpus_data.rows(); ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < corpus_data.dims(); ++k) {
        const double d = static_cast<double>(queries.at(qi, k)) -
                         corpus_data.at(j, k);
        acc += d * d;
      }
      if (std::sqrt(acc) <= eps) {
        EXPECT_TRUE(cset.count(static_cast<std::uint32_t>(j)))
            << "query " << qi << " missing corpus neighbor " << j;
      }
    }
  }
}

TEST(ShardedCorpus, GridCandidatesCoverTrueNeighborsAcrossShards) {
  const auto corpus_data = data::uniform(400, 8, 75);
  ShardedCorpusOptions opts;
  opts.shards = 3;
  ShardedCorpus corpus{MatrixF32(corpus_data), opts};
  expect_candidates_cover_neighbors(
      corpus_data, data::uniform(20, 8, 76), 0.4f,
      [&](const float* q, std::vector<std::uint32_t>& out) {
        corpus.grid_candidates(q, 0.4f, out);
      });
}

TEST(ShardedCorpus, ConcurrentReadersDuringAppendAreSafe) {
  const auto data = data::uniform(600, 8, 77);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  ShardedCorpus corpus{row_slice(data, 0, 150), opts};

  // Readers hold snapshots and hammer caches while appends grow the corpus.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        const auto snap = corpus.snapshot();
        std::size_t rows = 0;
        for (const auto& slot : *snap) {
          const auto& shard = slot.shard;
          ASSERT_EQ(shard->base, rows);
          rows += shard->rows();
          ASSERT_EQ(shard->prepared.rows(), shard->rows());
        }
        std::vector<std::uint32_t> cand;
        corpus.grid_candidates(data.row((t * 37 + i) % 600), 0.5f, cand);
      }
    });
  }
  std::thread appender([&] {
    for (std::size_t begin = 150; begin < 600; begin += 50) {
      corpus.append(row_slice(data, begin, begin + 50));
    }
  });
  for (auto& th : threads) th.join();
  appender.join();
  EXPECT_EQ(corpus.size(), 600u);
  EXPECT_EQ(corpus.shard_count(), 6u);
}

// Every shard's resident panels are pack_panel over its prepared values,
// zero-tailed, and every prepared buffer (FP16, values, norms, panels)
// equals a fresh preparation of the shard's points — whichever path built
// the shard, and although extensions, compaction and migration copy rows
// that are already prepared.
void expect_shards_match_fresh_preparation(const ShardedCorpus& corpus,
                                           const std::string& label) {
  for (const auto& slot : *corpus.snapshot()) {
    const PreparedDataset& p = slot.shard->prepared;
    const MatrixF32& v = p.values();
    const std::size_t w = kernels::kPanelWidth;
    ASSERT_EQ(p.panels().size(), (p.rows() + w - 1) / w * p.panel_floats())
        << label;
    std::vector<float> want(p.panel_floats());
    for (std::size_t r0 = 0; r0 < p.rows(); r0 += w) {
      kernels::pack_panel(v.row(r0), v.stride(), std::min(w, p.rows() - r0),
                          v.stride(), want.data());
      ASSERT_TRUE(std::equal(want.begin(), want.end(),
                             p.panels().begin() + static_cast<std::ptrdiff_t>(
                                                      r0 / w * want.size())))
          << label << " shard base " << slot.shard->base << " panel "
          << r0 / w;
    }
    test_support::expect_prepared_equal(
        p, PreparedDataset(slot.shard->points),
        label + " shard base " + std::to_string(slot.shard->base));
  }
}

TEST(ShardedCorpus, ResidentPanelsMatchPackAfterAppendCompactMigrate) {
  const auto data = data::uniform(250, 12, 79);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  opts.placement_domains = 2;
  ShardedCorpus corpus{MatrixF32(data), opts};
  expect_shards_match_fresh_preparation(corpus, "bulk");

  corpus.append(data::uniform(33, 12, 80));  // open shard: 50 -> 83 rows
  expect_shards_match_fresh_preparation(corpus, "append");

  const std::vector<std::uint32_t> dead = {1, 2, 3, 140, 141, 260};
  corpus.erase(dead);
  CompactOptions compact;
  compact.shard_capacity = 97;  // every shard re-chunks, rows % 8 == 1
  compact.dead_fraction = 0.0;
  corpus.compact(compact);
  EXPECT_EQ(corpus.size(), 283u - dead.size());
  expect_shards_match_fresh_preparation(corpus, "compact");

  const PreparedDataset* before = &corpus.prepared(0);
  corpus.migrate(0, 1);
  EXPECT_NE(&corpus.prepared(0), before);  // rebuilt on the new domain
  expect_shards_match_fresh_preparation(corpus, "migrate");
}

// Shard builds quantize each row once: the seed rows at construction, then
// exactly the appended rows.  Extending the open shard, compaction (with
// and without drops) and migration copy prepared rows and add nothing.
TEST(ShardedCorpus, RowsPreparedCountsOnlyNewRows) {
  const auto data = data::uniform(250, 12, 83);
  ShardedCorpusOptions opts;
  opts.shard_capacity = 100;
  opts.placement_domains = 2;
  ShardedCorpus corpus{MatrixF32(data), opts};
  EXPECT_EQ(corpus.stats().rows_prepared, 250u);

  corpus.append(data::uniform(16, 12, 84));  // open shard: 50 -> 66 rows
  EXPECT_EQ(corpus.stats().rows_prepared, 266u);
  EXPECT_EQ(corpus.stats().open_rebuilds, 1u);
  corpus.append(data::uniform(40, 12, 85));  // seals at 100, opens 6 rows
  EXPECT_EQ(corpus.stats().rows_prepared, 306u);

  CompactOptions rechunk;
  rechunk.shard_capacity = 97;
  const CompactReport moved = corpus.compact(rechunk);
  EXPECT_GT(moved.shards_rebuilt, 0u);
  EXPECT_EQ(moved.rows_dropped, 0u);
  EXPECT_EQ(corpus.stats().rows_prepared, 306u);

  const std::vector<std::uint32_t> dead = {0, 5, 96, 97, 200, 305};
  corpus.erase(dead);
  CompactOptions drop;
  drop.dead_fraction = 0.0;
  EXPECT_EQ(corpus.compact(drop).rows_dropped, dead.size());
  EXPECT_EQ(corpus.stats().rows_prepared, 306u);

  const PreparedDataset* before = &corpus.prepared(0);
  corpus.migrate(0, 1);
  EXPECT_NE(&corpus.prepared(0), before);
  EXPECT_EQ(corpus.stats().rows_prepared, 306u);
  expect_shards_match_fresh_preparation(corpus, "after lifecycle");
}

// The default corpus is one shard: a single resident corpus session that pays
// the ingest cost up front and caches what every later query reuses. Its
// prepared norms are the RZ squared norms of the FP16 quantization, and the
// prepared dataset is a stable object while the shard lives.
TEST(CorpusSession, PreparedArtifactsMatchDirectComputation) {
  const auto data = data::uniform(200, 16, 41);
  ShardedCorpus corpus{MatrixF32(data)};
  EXPECT_EQ(corpus.size(), 200u);
  EXPECT_EQ(corpus.dims(), 16u);
  ASSERT_EQ(corpus.shard_count(), 1u);

  const auto norms = squared_norms_fp16_rz(to_fp16(data));
  ASSERT_EQ(corpus.prepared(0).norms().size(), norms.size());
  for (std::size_t i = 0; i < norms.size(); ++i) {
    EXPECT_EQ(corpus.prepared(0).norms()[i], norms[i]) << i;
  }
  EXPECT_EQ(&corpus.prepared(0), &corpus.prepared(0));
}

TEST(CorpusSession, CalibrationIsCachedPerTarget) {
  const auto data = data::uniform(300, 8, 43);
  ShardedCorpus corpus{MatrixF32(data)};

  const float eps1 = corpus.eps_for_selectivity(64.0);
  const float eps2 = corpus.eps_for_selectivity(64.0);
  EXPECT_EQ(eps1, eps2);
  EXPECT_EQ(corpus.stats().calibration_misses, 1u);
  EXPECT_EQ(corpus.stats().calibration_hits, 1u);

  // A different target misses again and yields a larger radius.
  const float eps3 = corpus.eps_for_selectivity(128.0);
  EXPECT_GT(eps3, eps1);
  EXPECT_EQ(corpus.stats().calibration_misses, 2u);
}

TEST(CorpusSession, ConcurrentCacheAccessIsSafe) {
  const auto data = data::uniform(200, 8, 49);
  ShardedCorpus corpus{MatrixF32(data)};
  std::vector<std::thread> threads;
  std::vector<float> eps(8);
  std::vector<const index::GridIndex*> grids(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      eps[i] = corpus.eps_for_selectivity(32.0);
      grids[i] = &corpus.grid_at(0, 0.5f);
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < 8; ++t) {
    EXPECT_EQ(eps[t], eps[0]);
    EXPECT_EQ(grids[t], grids[0]);  // racing builders keep the first grid
  }
  const auto stats = corpus.stats();
  EXPECT_EQ(stats.calibration_hits + stats.calibration_misses, 8u);
}

TEST(CorpusSession, GridIndexIsCachedPerEps) {
  const auto data = data::uniform(250, 8, 45);
  ShardedCorpus corpus{MatrixF32(data)};
  ASSERT_EQ(corpus.shard_count(), 1u);

  const auto& g1 = corpus.grid_at(0, 0.5f);
  const auto& g2 = corpus.grid_at(0, 0.5f);
  EXPECT_EQ(&g1, &g2);
  const auto& g3 = corpus.grid_at(0, 0.25f);
  EXPECT_NE(&g1, &g3);
  EXPECT_EQ(&corpus.grid_at(0, 0.5f), &g1);  // a second eps evicts nothing
}

TEST(CorpusSession, GridServesExternalQueryPoints) {
  const auto corpus_data = data::uniform(400, 8, 47);
  ShardedCorpus corpus{MatrixF32(corpus_data)};
  const auto& grid = corpus.grid_at(0, 0.4f);
  expect_candidates_cover_neighbors(
      corpus_data, data::uniform(20, 8, 48), 0.4f,
      [&](const float* q, std::vector<std::uint32_t>& out) {
        grid.candidates_of(q, out);
      });
}

TEST(CorpusSession, RejectsEmptyCorpus) {
  EXPECT_THROW(ShardedCorpus{MatrixF32(0, 4)}, CheckError);
}

// Boundary validation: corpus rows the FP16 pipeline cannot represent
// (non-finite, or |x| > 65504) would lose every match silently, so the
// constructor and append reject them before any shard changes.
TEST(ShardedCorpus, RejectsRowsOutsideTheFp16Range) {
  const auto data = data::uniform(40, 8, 81);
  const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -70000.0f};
  for (const float bad : bad_values) {
    MatrixF32 rows(data);
    rows.row(17)[3] = bad;
    EXPECT_THROW(ShardedCorpus{MatrixF32(rows)}, CheckError) << bad;

    ShardedCorpusOptions opts;
    opts.shard_capacity = 16;
    ShardedCorpus corpus{MatrixF32(data), opts};
    const auto before = corpus.snapshot();
    EXPECT_THROW(corpus.append(rows), CheckError) << bad;
    EXPECT_EQ(corpus.snapshot(), before) << bad;  // nothing was published
    EXPECT_EQ(corpus.size(), 40u);
  }
}

TEST(ShardedCorpus, RejectsBadInputs) {
  EXPECT_THROW(ShardedCorpus{MatrixF32(0, 4)}, CheckError);
  const auto data = data::uniform(50, 8, 78);
  ShardedCorpus corpus{MatrixF32(data)};
  EXPECT_THROW(corpus.append(MatrixF32(0, 8)), CheckError);
  EXPECT_THROW(corpus.append(MatrixF32(5, 4)), CheckError);  // dims mismatch
  EXPECT_THROW(corpus.prepared(3), CheckError);
  EXPECT_THROW(corpus.grid_at(3, 0.5f), CheckError);
}

}  // namespace
}  // namespace fasted::service
