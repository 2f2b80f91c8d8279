// The schedule safety property, tested exhaustively: a Schedule is pure
// execution policy, so EVERY schedule the ScheduleSpace can enumerate must
// produce bit-identical eps-join, kNN, and self-join results — across
// shard counts {1, 3}, execution-domain counts {1, 2}, and with stealing
// pinned on or off.  This is the invariant that makes autotuning safe to
// adopt: the tuner can pick anything in the space without a results
// review.

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "service/join_service.hpp"
#include "support/serving.hpp"
#include "tune/schedule_space.hpp"

namespace fasted::tune {
namespace {

using service::EpsQuery;
using service::JoinService;
using service::KnnBatchResult;
using service::KnnQuery;
using service::ShardedCorpus;
using service::ShardedCorpusOptions;
using test_support::expect_same_eps;
using test_support::ScopedTopology;

constexpr std::size_t kShardCounts[] = {1, 3};
constexpr std::size_t kDomainCounts[] = {1, 2};

// A reduced — but still shape-diverse — space: square and rectangular
// tiles, all three dispatch policies, two capacities, and (at domains > 1)
// both steal pins.
std::vector<Schedule> test_space(const FastedConfig& base, std::size_t rows,
                                 std::size_t domains) {
  ScheduleSpaceOptions opts;
  opts.tile_sides = {64, 128};
  opts.squares = {4, 16};
  opts.capacity_fractions = {1.0, 0.5};
  opts.min_shard_capacity = 64;
  return ScheduleSpace::enumerate(base, rows, domains, opts);
}

TEST(ScheduleProperty, EpsAndKnnBitIdenticalForEverySchedule) {
  const auto data = data::uniform(420, 16, 4040);
  const auto queries = data::uniform(60, 16, 4041);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;
  const FastedConfig base = FastedConfig::paper_defaults();

  EpsQuery eps_request;
  eps_request.points = MatrixF32(queries);
  eps_request.eps = eps;
  KnnQuery knn_request;
  knn_request.points = MatrixF32(queries);
  knn_request.k = 4;

  // Reference: flat pool, default schedule, monolithic corpus.
  QueryJoinOutput eps_expect;
  KnnBatchResult knn_expect;
  {
    ScopedTopology flat(1);
    eps_expect = test_support::reference_eps(data, queries, eps);
    knn_expect = test_support::reference_knn(data, queries, knn_request.k);
  }

  for (const std::size_t domains : kDomainCounts) {
    for (const std::size_t shards : kShardCounts) {
      ScopedTopology topo(domains);
      ShardedCorpusOptions opts;
      opts.shards = shards;
      JoinService svc(std::make_shared<ShardedCorpus>(MatrixF32(data), opts));
      for (const Schedule& s : test_space(base, data.rows(), domains)) {
        const std::string label = "domains=" + std::to_string(domains) +
                                  " shards=" + std::to_string(shards) + " " +
                                  s.describe();
        // rechunk: the schedule's capacity physically re-shards the corpus
        // (compaction path) — placement changes, results must not.
        svc.set_schedule(s, /*rechunk_shards=*/true);
        expect_same_eps(eps_expect, svc.eps_join(eps_request), label);
        const KnnBatchResult got = svc.knn(knn_request);
        for (std::size_t q = 0; q < queries.rows(); ++q) {
          for (std::size_t r = 0; r < knn_request.k; ++r) {
            ASSERT_EQ(got.id(q, r), knn_expect.id(q, r)) << label << " q " << q;
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got.distance(q, r)),
                      std::bit_cast<std::uint32_t>(knn_expect.distance(q, r)))
                << label << " q " << q;
          }
        }
      }
    }
  }
}

TEST(ScheduleProperty, SelfJoinBitIdenticalForEverySchedule) {
  // Engine-level: tuned configs drive the triangular self-join directly,
  // monolithic and through 3-shard placement, on a 2-domain pool with the
  // steal pin coming from the schedule itself.
  const auto data = data::uniform(350, 12, 4050);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;
  const FastedConfig base = FastedConfig::paper_defaults();

  JoinOutput expect;
  {
    ScopedTopology flat(1);
    FastedEngine ref(base);
    expect = ref.self_join(data, eps);
  }

  ScopedTopology topo(2);
  const PreparedShards set = prepare_shards(data, 3);
  for (const Schedule& s : test_space(base, data.rows(), 2)) {
    const std::string label = s.describe();
    FastedEngine engine(s.apply(base));
    for (const bool sharded : {false, true}) {
      const JoinOutput got = sharded ? engine.self_join(set.span(), eps)
                                     : engine.self_join(data, eps);
      ASSERT_EQ(got.pair_count, expect.pair_count)
          << label << (sharded ? " sharded" : " mono");
      for (std::size_t i = 0; i < data.rows(); ++i) {
        const auto a = expect.result.neighbors_of(i);
        const auto b = got.result.neighbors_of(i);
        ASSERT_EQ(std::vector<std::uint32_t>(b.begin(), b.end()),
                  std::vector<std::uint32_t>(a.begin(), a.end()))
            << label << (sharded ? " sharded" : " mono") << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace fasted::tune
