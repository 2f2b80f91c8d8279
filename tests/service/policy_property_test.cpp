// The execution-policy safety property at the service: every block-tile
// shape and dispatch order (support/policies.hpp), over two shard
// capacities, with stealing on and off, on one and two execution domains,
// must produce bit-identical eps-join and kNN results.  Tile shape and
// dispatch stay settable in FastedConfig because no setting of them can
// change an answer.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>

#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "service/join_service.hpp"
#include "support/policies.hpp"
#include "support/serving.hpp"

namespace fasted::service {
namespace {

using test_support::expect_same_eps;
using test_support::ScopedSteal;
using test_support::ScopedTopology;

TEST(ScheduleProperty, EpsAndKnnBitIdenticalForEverySchedule) {
  const auto data = data::uniform(420, 16, 4040);
  const auto queries = data::uniform(60, 16, 4041);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;

  EpsQuery eps_request;
  eps_request.points = MatrixF32(queries);
  eps_request.eps = eps;
  KnnQuery knn_request;
  knn_request.points = MatrixF32(queries);
  knn_request.k = 4;

  // Reference: flat pool, default config, monolithic corpus.
  QueryJoinOutput eps_expect;
  KnnBatchResult knn_expect;
  {
    ScopedTopology flat(1);
    eps_expect = test_support::reference_eps(data, queries, eps);
    knn_expect = test_support::reference_knn(data, queries, knn_request.k);
  }

  for (const std::size_t domains : {std::size_t{1}, std::size_t{2}}) {
    ScopedTopology topo(domains);
    auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data));
    // One shard, then three: re-chunked only (dead_fraction > 1), so ids
    // never shift between capacities.
    for (const std::size_t capacity : {std::size_t{420}, std::size_t{140}}) {
      corpus->compact(CompactOptions{capacity, 2.0});
      for (const bool steal : {true, false}) {
        ScopedSteal steal_pin(steal);
        for (const FastedConfig& cfg : test_support::execution_policies()) {
          const std::string label =
              "domains=" + std::to_string(domains) +
              " capacity=" + std::to_string(capacity) +
              (steal ? " steal " : " no-steal ") + cfg.describe();
          JoinService svc(corpus, FastedEngine(cfg));
          expect_same_eps(eps_expect, svc.eps_join(eps_request), label);
          const KnnBatchResult got = svc.knn(knn_request);
          for (std::size_t q = 0; q < queries.rows(); ++q) {
            for (std::size_t r = 0; r < knn_request.k; ++r) {
              ASSERT_EQ(got.id(q, r), knn_expect.id(q, r))
                  << label << " q " << q;
              ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                        std::bit_cast<std::uint32_t>(knn_expect.distance(q, r)))
                  << label << " q " << q;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fasted::service
