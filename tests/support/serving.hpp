// Shared test helpers for the serving layer: the one-shard corpus every
// single-corpus service test serves from, the references service answers
// are checked against bit-for-bit, and the bit-identity assertion.  The
// scoped pool pins come along from scoped_pool.hpp.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "core/fasted.hpp"
#include "obs/metrics.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"
#include "support/scoped_pool.hpp"

namespace fasted::test_support {

// Bit identity of two eps-join outputs: same pair count, same rows, same
// ids, and bit-equal pipeline distances (not approximately equal ones).
inline void expect_same_eps(const QueryJoinOutput& expect,
                            const QueryJoinOutput& got,
                            const std::string& label) {
  ASSERT_EQ(got.pair_count, expect.pair_count) << label;
  ASSERT_EQ(got.result.num_queries(), expect.result.num_queries()) << label;
  for (std::size_t q = 0; q < expect.result.num_queries(); ++q) {
    const auto a = expect.result.matches_of(q);
    const auto b = got.result.matches_of(q);
    ASSERT_EQ(b.size(), a.size()) << label << " query " << q;
    for (std::size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(b[r].id, a[r].id) << label << " query " << q;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(b[r].dist2),
                std::bit_cast<std::uint32_t>(a[r].dist2))
          << label << " query " << q;
    }
  }
}

// Every boundary-validation rejection reason (service::reject_request).
inline const std::vector<std::string>& rejection_reasons() {
  static const std::vector<std::string> reasons = {
      "empty_batch", "dims_mismatch", "out_of_range", "nan_eps", "bad_k"};
  return reasons;
}

// The global registry's requests.rejected.<reason> counters, one per reason.
inline std::vector<std::uint64_t> rejection_counts() {
  std::vector<std::uint64_t> counts;
  for (const std::string& reason : rejection_reasons()) {
    counts.push_back(
        obs::Registry::global().counter("requests.rejected." + reason).value());
  }
  return counts;
}

// Since `before`, `reason` counted exactly `n` rejections and every other
// reason none.
inline void expect_rejections_since(const std::vector<std::uint64_t>& before,
                                    const std::string& reason,
                                    std::uint64_t n) {
  const std::vector<std::uint64_t> after = rejection_counts();
  for (std::size_t i = 0; i < after.size(); ++i) {
    const std::string& r = rejection_reasons()[i];
    EXPECT_EQ(after[i] - before[i], r == reason ? n : 0u) << r;
  }
}

// The default ShardedCorpus: one shard over a copy of `rows`.
inline std::shared_ptr<service::ShardedCorpus> one_shard(
    const MatrixF32& rows) {
  return std::make_shared<service::ShardedCorpus>(MatrixF32(rows));
}

// Eps-join reference: the engine's query join against one prepared corpus,
// with no service, shards or snapshot in between.
inline QueryJoinOutput reference_eps(const MatrixF32& corpus,
                                     const MatrixF32& queries, float eps) {
  return FastedEngine().query_join(PreparedDataset(queries),
                                   PreparedDataset(corpus), eps);
}

// kNN reference: every corpus row ranked by pipeline distance (ties by
// id) for every query, the k best kept — what JoinService::knn promises.
inline service::KnnBatchResult reference_knn(const MatrixF32& corpus,
                                             const MatrixF32& queries,
                                             std::size_t k) {
  const PreparedDataset pq(queries);
  const PreparedDataset pc(corpus);
  service::KnnBatchResult out;
  out.k = k;
  for (std::size_t i = 0; i < pq.rows(); ++i) {
    std::vector<QueryMatch> all;
    query_row_join(pq.values().row(i), pq.norms()[i], pc.values(), pc.norms(),
                   0, pc.rows(), std::numeric_limits<float>::infinity(), all);
    std::sort(all.begin(), all.end(),
              [](const QueryMatch& a, const QueryMatch& b) {
                return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.id < b.id;
              });
    for (std::size_t r = 0; r < k; ++r) {
      out.ids.push_back(all[r].id);
      out.distances.push_back(std::sqrt(std::max(0.0f, all[r].dist2)));
    }
  }
  return out;
}

}  // namespace fasted::test_support
