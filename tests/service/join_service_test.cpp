#include "service/join_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "support/serving.hpp"

namespace fasted::service {
namespace {

using test_support::one_shard;

// Acceptance: an EpsQuery batch whose query set equals the corpus
// reproduces self_join bit-exactly — same pair count, same neighbor lists.
TEST(JoinService, EpsBatchEqualToCorpusReproducesSelfJoin) {
  const auto data = data::uniform(400, 16, 51);
  const float eps = data::calibrate_epsilon(data, 48.0).eps;

  FastedEngine engine;
  const auto self = engine.self_join(data, eps);

  JoinService svc(one_shard(data), engine);
  EpsQuery request;
  request.points = data;
  request.eps = eps;
  const auto out = svc.eps_join(request);

  ASSERT_EQ(out.pair_count, self.pair_count);
  ASSERT_EQ(out.result.num_queries(), self.result.num_points());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    const auto expect = self.result.neighbors_of(i);
    const auto got = out.result.matches_of(i);
    ASSERT_EQ(got.size(), expect.size()) << i;
    for (std::size_t r = 0; r < expect.size(); ++r) {
      EXPECT_EQ(got[r].id, expect[r]) << "query " << i << " rank " << r;
    }
  }
}

TEST(JoinService, EmulatedPathReproducesSelfJoinToo) {
  const auto data = data::uniform(180, 8, 52);
  const float eps = 0.6f;
  FastedEngine engine;
  const auto self = engine.self_join(data, eps);

  JoinService svc(one_shard(data), engine);
  EpsQuery request;
  request.points = data;
  request.eps = eps;
  request.path = ExecutionPath::kEmulated;
  const auto out = svc.eps_join(request);
  EXPECT_EQ(out.pair_count, self.pair_count);
}

TEST(JoinService, CalibratedEpsQueryUsesSessionCache) {
  const auto data = data::uniform(300, 8, 53);
  JoinService svc(one_shard(data));

  EpsQuery request;
  request.points = data;
  request.eps = -1.0f;  // calibrate
  request.selectivity = 32.0;
  const auto out1 = svc.eps_join(request);
  const auto out2 = svc.eps_join(request);
  EXPECT_EQ(out1.pair_count, out2.pair_count);

  const auto stats = svc.sharded().stats();
  EXPECT_EQ(stats.calibration_misses, 1u);
  EXPECT_GE(stats.calibration_hits, 1u);
}

TEST(JoinService, StreamingCallbackMatchesCsrResult) {
  const auto corpus = data::uniform(350, 8, 54);
  const auto queries = data::uniform(140, 8, 55);
  JoinService svc(one_shard(corpus));

  EpsQuery request;
  request.points = queries;
  request.eps = 0.7f;
  const auto batched = svc.eps_join(request);

  std::vector<int> calls(queries.rows(), 0);
  std::vector<std::vector<QueryMatch>> streamed(queries.rows());
  const auto out = svc.eps_join(request, [&](std::size_t q,
                                             std::span<const QueryMatch> m) {
    ++calls[q];
    streamed[q].assign(m.begin(), m.end());
  });

  EXPECT_EQ(out.pair_count, batched.pair_count);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    ASSERT_EQ(calls[i], 1) << i;
    const auto expect = batched.result.matches_of(i);
    ASSERT_EQ(streamed[i].size(), expect.size()) << i;
    for (std::size_t r = 0; r < expect.size(); ++r) {
      EXPECT_EQ(streamed[i][r].id, expect[r].id) << i;
      EXPECT_EQ(streamed[i][r].dist2, expect[r].dist2) << i;
    }
  }
}

TEST(JoinService, BackendAccessorsMatchConstruction) {
  const auto corpus = data::uniform(60, 8, 58);
  const auto single = one_shard(corpus);
  JoinService by_default(single);
  EXPECT_EQ(&by_default.sharded(), single.get());
  EXPECT_EQ(by_default.sharded().size(), 60u);
  EXPECT_EQ(by_default.sharded().shard_count(), 1u);

  ShardedCorpusOptions opts;
  opts.shards = 2;
  JoinService by_shards(
      std::make_shared<ShardedCorpus>(MatrixF32(corpus), opts));
  EXPECT_EQ(by_shards.sharded().size(), 60u);
  EXPECT_EQ(by_shards.sharded().shard_count(), 2u);
}

// A callback that throws runs on the sink's consumer thread; the exception
// reaches the eps_join caller (no hang, no terminate), and the service keeps
// serving.
TEST(JoinService, StreamingCallbackExceptionReachesTheCaller) {
  const auto corpus = data::uniform(300, 8, 78);
  const auto queries = data::uniform(120, 8, 79);
  for (const std::size_t shards : {1u, 3u}) {
    ShardedCorpusOptions opts;
    opts.shards = shards;
    JoinService svc(std::make_shared<ShardedCorpus>(MatrixF32(corpus), opts));
    EpsQuery request;
    request.points = queries;
    request.eps = 0.7f;
    EXPECT_THROW(svc.eps_join(request,
                              [](std::size_t q, std::span<const QueryMatch>) {
                                if (q == 70) throw std::runtime_error("stop");
                              }),
                 std::runtime_error)
        << shards;

    std::size_t delivered = 0;
    svc.eps_join(request, [&](std::size_t, std::span<const QueryMatch>) {
      ++delivered;
    });
    EXPECT_EQ(delivered, queries.rows()) << shards;
  }
}

// Acceptance: KnnQuery results match a brute-force reference of the FP32
// pipeline distance on small inputs (distance ascending, ties by id).
TEST(JoinService, KnnMatchesBruteForceReference) {
  const auto corpus = data::uniform(120, 8, 56);
  const auto queries = data::uniform(30, 8, 57);
  const std::size_t k = 4;

  JoinService svc(one_shard(corpus));
  KnnQuery request;
  request.points = queries;
  request.k = k;
  const auto got = svc.knn(request);

  const PreparedDataset pq(queries);
  const PreparedDataset pc(corpus);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    std::vector<QueryMatch> all;
    query_row_join(pq.values().row(i), pq.norms()[i], pc.values(), pc.norms(),
                   0, pc.rows(), std::numeric_limits<float>::infinity(), all);
    std::sort(all.begin(), all.end(), [](const QueryMatch& a,
                                         const QueryMatch& b) {
      return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.id < b.id;
    });
    for (std::size_t r = 0; r < k; ++r) {
      EXPECT_EQ(got.id(i, r), all[r].id) << "query " << i << " rank " << r;
      EXPECT_EQ(got.distance(i, r),
                std::sqrt(std::max(0.0f, all[r].dist2)))
          << "query " << i << " rank " << r;
    }
  }
}

TEST(JoinService, KnnTinyRadiusStartConvergesViaAdaptiveRounds) {
  const auto corpus = data::uniform(200, 8, 58);
  const auto queries = data::uniform(25, 8, 59);
  JoinService svc(one_shard(corpus));

  KnnQuery request;
  request.points = queries;
  request.k = 6;
  KnnOptions opts;
  opts.initial_growth = 0.02;  // deliberately far too small
  const auto got = svc.knn(request, opts);
  EXPECT_GE(got.rounds, 1);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    for (std::size_t r = 1; r < 6; ++r) {
      EXPECT_LE(got.distance(i, r - 1), got.distance(i, r)) << i;
    }
  }
}

TEST(JoinService, KnnKEqualsCorpusSizeRanksEverything) {
  const auto corpus = data::uniform(40, 8, 60);
  const auto queries = data::uniform(5, 8, 61);
  JoinService svc(one_shard(corpus));
  KnnQuery request;
  request.points = queries;
  request.k = 40;
  const auto got = svc.knn(request);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    std::vector<bool> seen(40, false);
    for (std::size_t r = 0; r < 40; ++r) seen[got.id(i, r)] = true;
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }))
        << i;
  }
}

TEST(JoinService, KnnCorpusMatchesExplicitSelfBatch) {
  const auto corpus = data::uniform(150, 8, 67);
  JoinService svc(one_shard(corpus));

  KnnQuery request;
  request.points = corpus;
  request.k = 5;
  const auto explicit_batch = svc.knn(request);
  const auto resident = svc.knn_corpus(5);

  ASSERT_EQ(resident.k, explicit_batch.k);
  EXPECT_EQ(resident.rounds, explicit_batch.rounds);
  for (std::size_t i = 0; i < corpus.rows(); ++i) {
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(resident.id(i, r), explicit_batch.id(i, r)) << i;
      EXPECT_EQ(resident.distance(i, r), explicit_batch.distance(i, r)) << i;
    }
  }
}

TEST(JoinService, ConcurrentRequestsAreAdmittedSafely) {
  // Requests from many threads queue on the serve mutex; every caller gets
  // the same answer as a serial run.
  const auto corpus = data::uniform(200, 8, 68);
  const auto queries = data::uniform(40, 8, 69);
  JoinService svc(one_shard(corpus));

  EpsQuery request;
  request.points = queries;
  request.eps = 0.7f;
  const auto expect = svc.eps_join(request).pair_count;

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> counts(6, 0);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      counts[static_cast<std::size_t>(t)] = svc.eps_join(request).pair_count;
    });
  }
  for (auto& th : threads) th.join();
  for (const auto c : counts) EXPECT_EQ(c, expect);
  EXPECT_EQ(svc.stats().eps_batches, 7u);
}

TEST(JoinService, StatsAccumulateAcrossBatches) {
  const auto corpus = data::uniform(150, 8, 62);
  const auto queries = data::uniform(60, 8, 63);
  JoinService svc(one_shard(corpus));

  EpsQuery eq;
  eq.points = queries;
  eq.eps = 0.7f;
  const auto out = svc.eps_join(eq);
  KnnQuery kq;
  kq.points = queries;
  kq.k = 3;
  svc.knn(kq);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.eps_batches, 1u);
  EXPECT_EQ(stats.knn_batches, 1u);
  EXPECT_EQ(stats.queries, 120u);
  EXPECT_EQ(stats.pairs, out.pair_count);
}

// Regression for the double-attribution bug: domain-load tallies are
// deltas since service construction, so two services sharing the global
// pool never report each other's tiles.
TEST(JoinService, DomainLoadsAreScopedToTheService) {
  test_support::ScopedTopology topo(2);

  const auto data = data::uniform(700, 8, 70);
  const auto queries = data::uniform(24, 8, 71);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;
  ShardedCorpusOptions opts;
  opts.shards = 4;
  auto corpus = std::make_shared<ShardedCorpus>(MatrixF32(data), opts);

  EpsQuery request;
  request.points = MatrixF32(queries);
  request.eps = eps;

  const auto total_tiles = [](const ServiceStats& stats) {
    std::uint64_t tiles = 0;
    for (const auto& load : stats.domain_loads) {
      tiles += load.tiles_drained + load.tiles_stolen;
    }
    return tiles;
  };

  JoinService first(corpus);
  first.eps_join(request);
  const std::uint64_t first_tiles = total_tiles(first.stats());
  EXPECT_GT(first_tiles, 0u);

  // A second service on the same pool starts from zero — the first
  // service's tiles must not leak into its stats.
  JoinService second(corpus);
  EXPECT_EQ(total_tiles(second.stats()), 0u);

  second.eps_join(request);
  const std::uint64_t second_tiles = total_tiles(second.stats());
  EXPECT_GT(second_tiles, 0u);
  // The first service's window covers both joins; the tallies must add up
  // exactly (same pool counters, different baselines).
  EXPECT_EQ(total_tiles(first.stats()), first_tiles + second_tiles);
}

TEST(JoinService, PhaseLatenciesPopulateWithNonZeroQuantiles) {
  const auto corpus = data::uniform(200, 8, 72);
  const auto queries = data::uniform(50, 8, 73);
  JoinService svc(one_shard(corpus));

  EpsQuery eq;
  eq.points = queries;
  eq.eps = 0.7f;
  svc.eps_join(eq);
  KnnQuery kq;
  kq.points = queries;
  kq.k = 3;
  svc.knn(kq);

  const auto stats = svc.stats();
  const auto find = [&](const char* phase) -> const PhaseLatency* {
    for (const auto& p : stats.phase_latencies) {
      if (std::strcmp(p.phase, phase) == 0) return &p;
    }
    return nullptr;
  };

  const PhaseLatency* drain = find("eps_drain");
  ASSERT_NE(drain, nullptr);
  EXPECT_GE(drain->count, 1u);
  EXPECT_GT(drain->p50_ns, 0u);
  EXPECT_GE(drain->p95_ns, drain->p50_ns);
  EXPECT_GE(drain->p99_ns, drain->p95_ns);
  EXPECT_GE(drain->max_ns, drain->p99_ns);

  const PhaseLatency* round = find("knn_round");
  ASSERT_NE(round, nullptr);
  EXPECT_GE(round->count, 1u);
  EXPECT_GT(round->p50_ns, 0u);

  const PhaseLatency* wait = find("admission_wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->count, 2u);  // one eps batch + one knn batch

  // Phases this service never exercised are omitted, not zero-filled.
  EXPECT_EQ(find("stream_deliver"), nullptr);

  // The JSON export carries the same phases.
  const std::string json = svc.stats_json();
  EXPECT_NE(json.find("\"eps_drain\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"domain_loads\""), std::string::npos);
}

TEST(JoinService, RejectsBadRequests) {
  const auto corpus = data::uniform(50, 8, 64);
  JoinService svc(one_shard(corpus));

  EpsQuery empty;
  empty.points = MatrixF32(0, 8);
  EXPECT_THROW(svc.eps_join(empty), CheckError);

  EpsQuery mismatch;
  mismatch.points = data::uniform(10, 4, 65);
  mismatch.eps = 0.5f;
  EXPECT_THROW(svc.eps_join(mismatch), CheckError);

  KnnQuery bad_k;
  bad_k.points = data::uniform(10, 8, 66);
  bad_k.k = 51;  // > corpus size
  EXPECT_THROW(svc.knn(bad_k), CheckError);
  bad_k.k = 0;
  EXPECT_THROW(svc.knn(bad_k), CheckError);

  EXPECT_THROW(JoinService(std::shared_ptr<ShardedCorpus>()), CheckError);
}

// Boundary validation: inputs the FP16 pipeline would answer wrongly are
// rejected with CheckError before admission, at every entry point.
MatrixF32 with_value(const MatrixF32& rows, std::size_t r, std::size_t k,
                     float value) {
  MatrixF32 out(rows);
  out.row(r)[k] = value;
  return out;
}

const float kBadCoordinates[] = {
    std::numeric_limits<float>::quiet_NaN(),
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    65520.0f,  // past Fp16::max_value() (65504): rounds to FP16 inf
    -1.0e6f,
};

TEST(JoinService, RejectsNanRadiusInsteadOfCalibrating) {
  const auto corpus = data::uniform(80, 8, 74);
  JoinService svc(one_shard(corpus));
  EpsQuery request;
  request.points = data::uniform(6, 8, 75);
  request.eps = std::numeric_limits<float>::quiet_NaN();

  EXPECT_THROW(svc.eps_join(request), CheckError);
  EXPECT_THROW(svc.eps_join(request, [](std::size_t,
                                        std::span<const QueryMatch>) {}),
               CheckError);
  const EpsQuery window[] = {request};
  EXPECT_THROW(svc.eps_join_coalesced(window), CheckError);
  // Nothing was admitted or calibrated.
  EXPECT_EQ(svc.stats().eps_batches, 0u);
  EXPECT_EQ(svc.sharded().stats().calibration_misses, 0u);

  // Negative radii still mean "calibrate".
  request.eps = -1.0f;
  EXPECT_NO_THROW(svc.eps_join(request));
}

TEST(JoinService, RejectsQueryRowsOutsideTheFp16Range) {
  const auto corpus = data::uniform(80, 8, 76);
  const auto queries = data::uniform(6, 8, 77);
  JoinService svc(one_shard(corpus));
  for (const float bad : kBadCoordinates) {
    EpsQuery eq;
    eq.points = with_value(queries, 3, 5, bad);
    eq.eps = 0.5f;
    EXPECT_THROW(svc.eps_join(eq), CheckError) << bad;
    EXPECT_THROW(svc.eps_join(eq, [](std::size_t,
                                     std::span<const QueryMatch>) {}),
                 CheckError)
        << bad;
    const EpsQuery window[] = {eq};
    EXPECT_THROW(svc.eps_join_coalesced(window), CheckError) << bad;

    KnnQuery kq;
    kq.points = with_value(queries, 0, 0, bad);
    kq.k = 2;
    EXPECT_THROW(svc.knn(kq), CheckError) << bad;
  }
  EXPECT_EQ(svc.stats().eps_batches, 0u);
  EXPECT_EQ(svc.stats().knn_batches, 0u);

  // The largest FP16 magnitude itself is representable and served.
  EpsQuery edge;
  edge.points = with_value(queries, 0, 0, -65504.0f);
  edge.eps = 0.5f;
  EXPECT_NO_THROW(svc.eps_join(edge));
}

// Rejection counters: each boundary validation counts under its own
// requests.rejected.<reason>, whichever entry point refused the rows.
TEST(RequestRejections, EmptyBatchIsCounted) {
  const auto before = test_support::rejection_counts();
  EXPECT_THROW(ShardedCorpus{MatrixF32(0, 8)}, CheckError);
  JoinService svc(one_shard(data::uniform(40, 8, 90)));
  EXPECT_THROW(svc.sharded().append(MatrixF32(0, 8)), CheckError);
  EXPECT_THROW(svc.eps_join(EpsQuery{MatrixF32(0, 8), 0.5f}), CheckError);
  test_support::expect_rejections_since(before, "empty_batch", 3);
}

TEST(RequestRejections, DimsMismatchIsCounted) {
  JoinService svc(one_shard(data::uniform(40, 8, 91)));
  const auto before = test_support::rejection_counts();
  EXPECT_THROW(svc.sharded().append(data::uniform(5, 4, 92)), CheckError);
  EXPECT_THROW(svc.eps_join(EpsQuery{data::uniform(3, 4, 93), 0.5f}),
               CheckError);
  EXPECT_THROW(svc.knn(KnnQuery{data::uniform(3, 9, 94), 2}), CheckError);
  test_support::expect_rejections_since(before, "dims_mismatch", 3);
}

TEST(RequestRejections, OutOfRangeIsCounted) {
  JoinService svc(one_shard(data::uniform(40, 8, 95)));
  const auto queries = data::uniform(4, 8, 96);
  const auto before = test_support::rejection_counts();
  for (const float bad : kBadCoordinates) {
    EXPECT_THROW(svc.sharded().append(with_value(queries, 1, 2, bad)),
                 CheckError);
    EXPECT_THROW(svc.eps_join(EpsQuery{with_value(queries, 3, 7, bad), 0.5f}),
                 CheckError);
  }
  test_support::expect_rejections_since(before, "out_of_range",
                                        2 * std::size(kBadCoordinates));
}

TEST(RequestRejections, NanEpsIsCounted) {
  JoinService svc(one_shard(data::uniform(40, 8, 97)));
  EpsQuery request;
  request.points = data::uniform(2, 8, 98);
  request.eps = std::numeric_limits<float>::quiet_NaN();
  const auto before = test_support::rejection_counts();
  EXPECT_THROW(svc.eps_join(request), CheckError);
  const EpsQuery window[] = {request};
  EXPECT_THROW(svc.eps_join_coalesced(window), CheckError);
  test_support::expect_rejections_since(before, "nan_eps", 2);
}

}  // namespace
}  // namespace fasted::service
