// Resident corpus panels and the one-row kernel shape:
//  * PreparedDataset::panels() is exactly pack_panel over values(), with
//    zero tail lanes, for any row count and after gather(),
//  * a dataset extended with new rows, or gathered from several prepared
//    sources, equals a fresh preparation of the same points on every
//    buffer,
//  * query_row_join over a prepared corpus (resident panels, one-row
//    multi-panel entry) equals the packing MatrixF32 overload,
//  * every tile shape that takes the executor's one-row path — a point
//    query over ragged shards, the last row of a batch, the last tile of a
//    triangular self-join — is bit-identical to a scalar-pinned engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/fasted.hpp"
#include "core/kernels/kernel_context.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "support/prepared.hpp"

namespace fasted {
namespace {

using kernels::kPanelWidth;

void expect_panels_match_pack(const PreparedDataset& p,
                              const std::string& label) {
  const MatrixF32& v = p.values();
  const std::size_t npanels = (p.rows() + kPanelWidth - 1) / kPanelWidth;
  ASSERT_EQ(p.panel_floats(), v.stride() * kPanelWidth) << label;
  ASSERT_EQ(p.panels().size(), npanels * p.panel_floats()) << label;
  std::vector<float> want(p.panel_floats());
  for (std::size_t k = 0; k < npanels; ++k) {
    const std::size_t r0 = k * kPanelWidth;
    const std::size_t width = std::min(kPanelWidth, p.rows() - r0);
    kernels::pack_panel(v.row(r0), v.stride(), width, v.stride(),
                        want.data());
    const float* got = p.panels().data() + k * p.panel_floats();
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i]),
                std::bit_cast<std::uint32_t>(got[i]))
          << label << " panel " << k << " dim " << i / kPanelWidth
          << " lane " << i % kPanelWidth;
      if (i % kPanelWidth >= width) {
        ASSERT_EQ(got[i], 0.0f) << label;
      }
    }
  }
}

TEST(ResidentPanels, PreparedPanelsEqualPackPanelWithZeroTails) {
  for (const std::size_t rows : {1u, 7u, 8u, 9u, 2047u}) {
    const PreparedDataset p(data::uniform(rows, 19, 100 + rows));
    expect_panels_match_pack(p, "rows " + std::to_string(rows));
    if (HasFatalFailure()) return;
  }
  // gather() re-packs the gathered rows (odd count, out of order).
  const PreparedDataset src(data::uniform(40, 19, 7));
  const PreparedDataset g =
      PreparedDataset::gather(src, {39, 3, 17, 0, 22, 5, 31, 8, 11});
  expect_panels_match_pack(g, "gather");
  const PreparedDataset none = PreparedDataset::gather(src, {});
  EXPECT_TRUE(none.panels().empty());
}

// The listed (matrix, row) rows stacked into one FP32 matrix: the points a
// fresh preparation of copied rows starts from.
MatrixF32 stack_rows(
    const std::vector<std::pair<const MatrixF32*, std::size_t>>& rows) {
  MatrixF32 out(rows.size(), rows.front().first->dims());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy_n(rows[i].first->row(rows[i].second), out.stride(), out.row(i));
  }
  return out;
}

// Extension copies the prepared rows and prepares only the new ones; the
// result must equal preparing all the points at once, for prefixes that
// end inside, on, and just past a panel boundary, and when it is extended
// again (the append-after-append shape).
TEST(ResidentPanels, ExtendedDatasetEqualsFreshPreparation) {
  for (const std::size_t base : {1u, 7u, 8u, 9u, 2047u}) {
    for (const std::size_t added : {1u, 7u, 8u, 16u}) {
      const std::string label =
          "base " + std::to_string(base) + " + " + std::to_string(added);
      const MatrixF32 all = data::uniform(base + 2 * added, 19, base + added);
      const PreparedDataset prefix(row_slice(all, 0, base));
      const PreparedDataset::Rows kept{&prefix, 0, base};
      const PreparedDataset once(std::span(&kept, 1), all, base,
                                 base + added);
      test_support::expect_prepared_equal(
          once, PreparedDataset(row_slice(all, 0, base + added)), label);
      expect_panels_match_pack(once, label);
      if (HasFatalFailure()) return;

      const PreparedDataset::Rows kept2{&once, 0, once.rows()};
      const PreparedDataset twice(std::span(&kept2, 1), all, base + added,
                                  all.rows());
      test_support::expect_prepared_equal(twice, PreparedDataset(all),
                                          label + " twice");
      if (HasFatalFailure()) return;
    }
  }
}

// A multi-source gather mixes panel-aligned runs (whole panels copied),
// misaligned ones (re-packed), an empty run, and both sources interleaved;
// the one-source id gather must agree with a fresh preparation too.
TEST(ResidentPanels, GatheredDatasetEqualsFreshPreparation) {
  const MatrixF32 a = data::uniform(37, 19, 1);
  const MatrixF32 b = data::uniform(50, 19, 2);
  const PreparedDataset pa(a);
  const PreparedDataset pb(b);
  const std::vector<PreparedDataset::Rows> runs = {
      {&pa, 0, 16}, {&pb, 8, 24}, {&pb, 5, 5},
      {&pa, 20, 37}, {&pb, 0, 3}, {&pb, 40, 50}};
  std::vector<std::pair<const MatrixF32*, std::size_t>> rows;
  for (const PreparedDataset::Rows& r : runs) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      rows.emplace_back(r.src == &pa ? &a : &b, i);
    }
  }
  test_support::expect_prepared_equal(PreparedDataset::gather(runs),
                                      PreparedDataset(stack_rows(rows)),
                                      "multi-source");

  const std::vector<std::uint32_t> ids = {8, 9, 10, 11, 12, 13, 14, 15,
                                          16, 3, 4, 36, 0};
  rows.clear();
  for (const std::uint32_t i : ids) rows.emplace_back(&a, i);
  test_support::expect_prepared_equal(PreparedDataset::gather(pa, ids),
                                      PreparedDataset(stack_rows(rows)),
                                      "id gather");
}

TEST(ResidentPanels, QueryRowJoinOverPreparedMatchesPackingOverload) {
  const PreparedDataset corpus(data::uniform(70, 24, 41));  // 70 % 8 == 6
  const PreparedDataset queries(data::uniform(5, 24, 42));
  const float eps =
      data::calibrate_epsilon(data::uniform(70, 24, 41), 8.0).eps;
  for (const kernels::RzDotKernel* kern :
       kernels::KernelRegistry::global().supported()) {
    for (const float eps2 :
         {eps * eps, std::numeric_limits<float>::infinity()}) {
      for (std::size_t i = 0; i < queries.rows(); ++i) {
        std::vector<QueryMatch> want;
        std::vector<QueryMatch> got;
        query_row_join(queries.values().row(i), queries.norms()[i],
                       corpus.values(), corpus.norms(), 0, corpus.rows(),
                       eps2, kernels::rz_dot_scalar(), want);
        query_row_join(queries.values().row(i), queries.norms()[i], corpus,
                       eps2, *kern, got);
        ASSERT_EQ(got.size(), want.size()) << kern->name << " q " << i;
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].id, want[r].id) << kern->name;
          EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r].dist2),
                    std::bit_cast<std::uint32_t>(want[r].dist2))
              << kern->name << " q " << i << " id " << want[r].id;
        }
      }
    }
  }
}

void expect_same_query_result(const QueryJoinOutput& got,
                              const QueryJoinOutput& want,
                              const std::string& label) {
  ASSERT_EQ(got.pair_count, want.pair_count) << label;
  ASSERT_EQ(got.result.num_queries(), want.result.num_queries()) << label;
  for (std::size_t i = 0; i < want.result.num_queries(); ++i) {
    const auto a = got.result.matches_of(i);
    const auto b = want.result.matches_of(i);
    ASSERT_EQ(a.size(), b.size()) << label << " query " << i;
    for (std::size_t r = 0; r < b.size(); ++r) {
      ASSERT_EQ(a[r].id, b[r].id) << label << " query " << i;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a[r].dist2),
                std::bit_cast<std::uint32_t>(b[r].dist2))
          << label << " query " << i << " id " << b[r].id;
    }
  }
}

TEST(ResidentPanels, OneRowTilesBitIdenticalToScalarEngine) {
  // Shards of 57, 63 and 257 rows (rows % 8 = 1, 7, 1): ragged last panels,
  // a shard shorter than one kMultiPanel call, and one spanning three
  // 128-column tiles (two dot_row calls per full tile).
  const auto data = data::uniform(57 + 63 + 257, 20, 61);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;
  std::vector<PreparedDataset> shards;
  std::vector<CorpusShardView> views;
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, 57}, {57, 120}, {120, 377}}) {
    shards.emplace_back(row_slice(data, begin, end));
  }
  for (std::size_t s = 0, base = 0; s < shards.size(); ++s) {
    views.push_back(CorpusShardView{&shards[s], base, 0});
    base += shards[s].rows();
  }
  const std::span<const CorpusShardView> span(views);
  const PreparedDataset whole(data);
  const PreparedDataset point = PreparedDataset::gather(whole, {200});
  // 129 queries at 128-row block tiles: the last tile is one row.
  std::vector<std::uint32_t> ids(129);
  std::iota(ids.begin(), ids.end(), 3);
  const PreparedDataset batch = PreparedDataset::gather(whole, ids);

  FastedConfig scalar_cfg = FastedConfig::paper_defaults();
  scalar_cfg.rz_kernel = "scalar";
  const FastedEngine scalar(scalar_cfg);
  for (const kernels::RzDotKernel* kern :
       kernels::KernelRegistry::global().supported()) {
    FastedConfig cfg = FastedConfig::paper_defaults();
    cfg.rz_kernel = kern->name;
    const FastedEngine engine(cfg);
    const std::string name = kern->name;

    const auto p = engine.query_join(point, span, eps);
    ASSERT_GT(p.pair_count, 0u);
    expect_same_query_result(p, scalar.query_join(point, span, eps),
                             name + " point over shards");
    expect_same_query_result(engine.query_join(batch, span, eps),
                             scalar.query_join(batch, span, eps),
                             name + " 129-row batch");

    // 257 rows at 128-row square tiles: the last triangular tile is the
    // 1 x 1 diagonal one, and the last 128-row strip of the batched
    // self-join is one row against the whole corpus.  The sharded self-join
    // adds the 57/63-row triangles and the cross-shard rectangles.
    const auto self = engine.self_join(shards[2], eps);
    const auto want = scalar.self_join(shards[2], eps);
    ASSERT_EQ(self.pair_count, want.pair_count) << name;
    EXPECT_EQ(self.result.offsets(), want.result.offsets()) << name;
    EXPECT_EQ(self.result.neighbors(), want.result.neighbors()) << name;
    const MatrixF32 rows257 = row_slice(data, 120, 377);
    const auto strips = engine.batched_self_join(rows257, eps, 128);
    const auto strips_want = scalar.batched_self_join(rows257, eps, 128);
    ASSERT_EQ(strips.pair_count, strips_want.pair_count) << name;
    EXPECT_EQ(strips.result.offsets(), strips_want.result.offsets()) << name;
    EXPECT_EQ(strips.result.neighbors(), strips_want.result.neighbors())
        << name;
    const auto sharded = engine.self_join(span, eps);
    const auto sharded_want = scalar.self_join(span, eps);
    ASSERT_EQ(sharded.pair_count, sharded_want.pair_count) << name;
    EXPECT_EQ(sharded.result.offsets(), sharded_want.result.offsets())
        << name;
    EXPECT_EQ(sharded.result.neighbors(), sharded_want.result.neighbors())
        << name;
  }
}

}  // namespace
}  // namespace fasted
