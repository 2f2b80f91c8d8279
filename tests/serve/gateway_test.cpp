// BatchGateway properties.
//
// The coalescing invariant: results served through a gateway window are
// BIT-identical to serving the same requests sequentially through
// JoinService — for any shard count, domain count, and window size, with
// distinct per-request radii (the window drains at the widest radius and
// the DemuxSink re-imposes each request's own), with tombstones, and for
// knn.  Plus the admission-control contracts: deadline-expired requests are
// dropped at dispatch and reported, and a full admission ring rejects
// try_submit with a caller-visible nullptr instead of queueing unbounded.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "serve/batch_gateway.hpp"
#include "service/join_service.hpp"
#include "support/serving.hpp"

namespace fasted::serve {
namespace {

using service::EpsQuery;
using service::JoinService;
using service::KnnQuery;
using test_support::ScopedTopology;

// Gateway answers must also carry the standalone per-shard hit counts.
void expect_same_eps(const QueryJoinOutput& expect, const QueryJoinOutput& got,
                     const std::string& label) {
  ASSERT_EQ(got.shard_pairs, expect.shard_pairs) << label;
  test_support::expect_same_eps(expect, got, label);
}

// Submits with retry: the default ring never fills in these tests, but a
// briefly-full ring is a legal transient under backpressure.
BatchGateway::TicketPtr must_submit(BatchGateway& gw, EpsQuery request) {
  for (;;) {
    EpsQuery attempt;
    attempt.points = MatrixF32(request.points);
    attempt.eps = request.eps;
    attempt.selectivity = request.selectivity;
    auto ticket = gw.try_submit(std::move(attempt));
    if (ticket != nullptr) return ticket;
    std::this_thread::yield();
  }
}

// The headline property, across the serving matrix: shards {1,3} x domains
// {1,2} x window sizes {1,3,8}.  Eight requests with DISTINCT radii (plus
// two resolved from a selectivity target) are served sequentially through
// JoinService, then through a gateway; every response must be bit-identical
// and every request must be served (never silently merged or dropped).
TEST(GatewayCoalescing, EpsBitIdenticalToSequentialAcrossTopologies) {
  const auto data = data::uniform(420, 16, 901);
  const float base_eps = data::calibrate_epsilon(data, 24.0).eps;
  constexpr std::size_t kRequests = 8;

  std::vector<EpsQuery> requests(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests[i].points = data::uniform(40 + 7 * i, 16, 910 + i);
    if (i < 6) {
      // Distinct radii: the window drains at the widest and demuxes back.
      requests[i].eps = base_eps * (0.6f + 0.15f * static_cast<float>(i));
    } else {
      // Calibration-resolved radius (resolve_eps runs pre-admission).
      requests[i].eps = -1.0f;
      requests[i].selectivity = 16.0 + 8.0 * static_cast<double>(i);
    }
  }

  for (const std::size_t domains : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      for (const std::size_t window : {std::size_t{1}, std::size_t{3},
                                       std::size_t{8}}) {
        const std::string label = "domains=" + std::to_string(domains) +
                                  " shards=" + std::to_string(shards) +
                                  " window=" + std::to_string(window);
        ScopedTopology topo(domains);
        service::ShardedCorpusOptions opts;
        opts.shards = shards;
        auto svc = std::make_shared<JoinService>(
            std::make_shared<service::ShardedCorpus>(MatrixF32(data), opts));

        // Sequential reference through the same service (and the same
        // calibration cache, so selectivity targets resolve identically).
        std::vector<QueryJoinOutput> expect;
        expect.reserve(kRequests);
        for (const EpsQuery& r : requests) {
          EpsQuery copy;
          copy.points = MatrixF32(r.points);
          copy.eps = r.eps;
          copy.selectivity = r.selectivity;
          expect.push_back(svc->eps_join(copy));
        }

        GatewayOptions gopts;
        gopts.window_max_requests = window;
        gopts.window_wait = std::chrono::milliseconds(50);
        BatchGateway gateway(svc, gopts);
        std::vector<BatchGateway::TicketPtr> tickets;
        tickets.reserve(kRequests);
        for (const EpsQuery& r : requests) {
          tickets.push_back(must_submit(gateway, EpsQuery{
              MatrixF32(r.points), r.eps, r.selectivity}));
        }
        for (std::size_t i = 0; i < kRequests; ++i) {
          const BatchGateway::Response& resp = tickets[i]->wait();
          ASSERT_EQ(resp.state, RequestState::kDone)
              << label << " req " << i << " error=" << resp.error;
          expect_same_eps(expect[i], resp.eps,
                          label + " req " + std::to_string(i));
        }
        gateway.stop();
        const GatewayStats stats = gateway.stats();
        EXPECT_EQ(stats.served, kRequests) << label;
        EXPECT_EQ(stats.expired, 0u) << label;
        EXPECT_EQ(stats.failed, 0u) << label;
        EXPECT_GE(stats.windows, (kRequests + window - 1) / window) << label;
        if (window == 1) {
          EXPECT_EQ(stats.windows, kRequests) << label;
        }
      }
    }
  }
}

// Tombstoned corpora: the demux applies the snapshot's delete masks per
// hit, so coalesced responses match sequential ones match a corpus where
// the dead rows never existed.
TEST(GatewayCoalescing, EpsCoalescedMatchesSequentialWithTombstones) {
  const auto data = data::uniform(360, 12, 931);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;

  std::vector<std::uint32_t> dead;
  for (std::uint32_t i = 0; i < data.rows(); i += 4) dead.push_back(i);

  service::ShardedCorpusOptions opts;
  opts.shards = 3;
  auto corpus = std::make_shared<service::ShardedCorpus>(MatrixF32(data), opts);
  ASSERT_EQ(corpus->erase(dead), dead.size());
  auto svc = std::make_shared<JoinService>(corpus);

  std::vector<EpsQuery> requests(4);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].points = data::uniform(30 + 5 * i, 12, 940 + i);
    requests[i].eps = eps * (0.8f + 0.1f * static_cast<float>(i));
  }
  std::vector<QueryJoinOutput> expect;
  for (const EpsQuery& r : requests) {
    expect.push_back(svc->eps_join(EpsQuery{MatrixF32(r.points), r.eps}));
  }

  GatewayOptions gopts;
  gopts.window_max_requests = requests.size();
  gopts.window_wait = std::chrono::milliseconds(50);
  BatchGateway gateway(svc, gopts);
  std::vector<BatchGateway::TicketPtr> tickets;
  for (const EpsQuery& r : requests) {
    tickets.push_back(must_submit(gateway, EpsQuery{MatrixF32(r.points),
                                                    r.eps}));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const BatchGateway::Response& resp = tickets[i]->wait();
    ASSERT_EQ(resp.state, RequestState::kDone) << resp.error;
    expect_same_eps(expect[i], resp.eps, "tombstoned req " + std::to_string(i));
  }
}

// kNN requests coalesce by k into one adaptive batch; per-query answers are
// exact regardless of batch composition, so the split-out rows must equal
// sequential serving bit-for-bit.  A window mixing eps and knn shapes must
// serve both.
TEST(GatewayCoalescing, KnnAndMixedWindowsMatchSequential) {
  const auto data = data::uniform(300, 10, 951);
  const float eps = data::calibrate_epsilon(data, 18.0).eps;
  auto svc = std::make_shared<JoinService>(
      test_support::one_shard(data));

  std::vector<KnnQuery> knns(3);
  knns[0] = KnnQuery{data::uniform(25, 10, 960), 4};
  knns[1] = KnnQuery{data::uniform(31, 10, 961), 4};  // coalesces with [0]
  knns[2] = KnnQuery{data::uniform(19, 10, 962), 7};  // its own k-group
  EpsQuery eps_req;
  eps_req.points = data::uniform(28, 10, 963);
  eps_req.eps = eps;

  std::vector<service::KnnBatchResult> knn_expect;
  for (const KnnQuery& r : knns) {
    knn_expect.push_back(svc->knn(KnnQuery{MatrixF32(r.points), r.k}));
  }
  const QueryJoinOutput eps_expect =
      svc->eps_join(EpsQuery{MatrixF32(eps_req.points), eps_req.eps});

  GatewayOptions gopts;
  gopts.window_max_requests = 4;
  gopts.window_wait = std::chrono::milliseconds(50);
  BatchGateway gateway(svc, gopts);
  std::vector<BatchGateway::TicketPtr> tickets;
  for (const KnnQuery& r : knns) {
    auto t = gateway.try_submit(KnnQuery{MatrixF32(r.points), r.k});
    ASSERT_NE(t, nullptr);
    tickets.push_back(std::move(t));
  }
  auto eps_ticket =
      gateway.try_submit(EpsQuery{MatrixF32(eps_req.points), eps_req.eps});
  ASSERT_NE(eps_ticket, nullptr);

  for (std::size_t i = 0; i < knns.size(); ++i) {
    const BatchGateway::Response& resp = tickets[i]->wait();
    ASSERT_EQ(resp.state, RequestState::kDone) << resp.error;
    ASSERT_EQ(resp.knn.k, knn_expect[i].k);
    ASSERT_EQ(resp.knn.ids, knn_expect[i].ids) << "knn req " << i;
    ASSERT_EQ(resp.knn.distances.size(), knn_expect[i].distances.size());
    for (std::size_t j = 0; j < resp.knn.distances.size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(resp.knn.distances[j]),
                std::bit_cast<std::uint32_t>(knn_expect[i].distances[j]))
          << "knn req " << i << " slot " << j;
    }
  }
  const BatchGateway::Response& eps_resp = eps_ticket->wait();
  ASSERT_EQ(eps_resp.state, RequestState::kDone) << eps_resp.error;
  expect_same_eps(eps_expect, eps_resp.eps, "mixed-window eps");
}

// Requests past their deadline at dispatch are dropped and reported; they
// never block the window's live requests.
TEST(GatewayAdmission, ExpiredRequestsDropAtDispatchWithoutBlocking) {
  const auto data = data::uniform(200, 8, 971);
  auto svc = std::make_shared<JoinService>(
      test_support::one_shard(data));

  GatewayOptions gopts;
  gopts.window_max_requests = 4;
  gopts.window_wait = std::chrono::milliseconds(1);
  gopts.start = false;  // stage submissions before the dispatcher runs
  BatchGateway gateway(svc, gopts);

  EpsQuery doomed;
  doomed.points = data::uniform(16, 8, 972);
  doomed.eps = 0.5f;
  auto expired1 =
      gateway.try_submit(EpsQuery{MatrixF32(doomed.points), doomed.eps},
                         std::chrono::nanoseconds(1));
  auto expired2 =
      gateway.try_submit(EpsQuery{MatrixF32(doomed.points), doomed.eps},
                         std::chrono::nanoseconds(1));
  auto live =
      gateway.try_submit(EpsQuery{MatrixF32(doomed.points), doomed.eps});
  ASSERT_NE(expired1, nullptr);
  ASSERT_NE(expired2, nullptr);
  ASSERT_NE(live, nullptr);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gateway.start();

  EXPECT_EQ(expired1->wait().state, RequestState::kExpired);
  EXPECT_EQ(expired2->wait().state, RequestState::kExpired);
  const BatchGateway::Response& resp = live->wait();
  EXPECT_EQ(resp.state, RequestState::kDone) << resp.error;
  EXPECT_GT(resp.eps.result.num_queries(), 0u);

  gateway.stop();
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.expired, 2u);
  EXPECT_EQ(stats.served, 1u);
}

// The admission ring is the backpressure boundary: once it is full,
// try_submit returns nullptr (tallied as a rejection) instead of queueing;
// accepted requests still serve once the dispatcher runs.
TEST(GatewayAdmission, RingFullRejectsInsteadOfQueueing) {
  const auto data = data::uniform(200, 8, 981);
  auto svc = std::make_shared<JoinService>(
      test_support::one_shard(data));

  GatewayOptions gopts;
  gopts.ring_capacity = 4;  // rounds to exactly 4 slots
  gopts.window_max_requests = 4;
  gopts.window_wait = std::chrono::milliseconds(1);
  gopts.start = false;
  BatchGateway gateway(svc, gopts);

  EpsQuery request;
  request.points = data::uniform(12, 8, 982);
  request.eps = 0.5f;
  std::vector<BatchGateway::TicketPtr> accepted;
  for (int i = 0; i < 4; ++i) {
    auto t = gateway.try_submit(EpsQuery{MatrixF32(request.points),
                                         request.eps});
    ASSERT_NE(t, nullptr) << "slot " << i;
    accepted.push_back(std::move(t));
  }
  EXPECT_EQ(gateway.try_submit(EpsQuery{MatrixF32(request.points),
                                        request.eps}),
            nullptr);
  EXPECT_EQ(gateway.try_submit(EpsQuery{MatrixF32(request.points),
                                        request.eps}),
            nullptr);
  {
    const GatewayStats stats = gateway.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.rejected, 2u);
  }

  gateway.start();
  for (const auto& t : accepted) {
    EXPECT_EQ(t->wait().state, RequestState::kDone);
  }
  gateway.stop();
  EXPECT_EQ(gateway.stats().served, 4u);

  // Submission after stop() is a rejection too, never a hang.
  EXPECT_EQ(gateway.try_submit(EpsQuery{MatrixF32(request.points),
                                        request.eps}),
            nullptr);
}

// Stop racing submissions: clients keep submitting while the main thread
// stops the gateway.  A submit that passed its stopped-check just before
// stop() must still get an answer (served, or failed as "gateway
// stopped"), never a ticket that no dispatcher will complete — its wait()
// would block forever.  ready() is checked instead of wait(), so a lost
// ticket fails the test rather than hanging it.
TEST(GatewayAdmission, StopWhileSubmittingLeavesNoTicketPending) {
  const auto data = data::uniform(64, 8, 1001);
  const auto query = data::uniform(1, 8, 1002);
  auto svc = std::make_shared<JoinService>(test_support::one_shard(data));
  constexpr std::size_t kClients = 4;

  for (int round = 0; round < 20; ++round) {
    GatewayOptions gopts;
    gopts.window_wait = std::chrono::microseconds(50);
    BatchGateway gateway(svc, gopts);
    std::atomic<bool> stopped{false};
    std::vector<std::vector<BatchGateway::TicketPtr>> tickets(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (!stopped.load()) {
          auto t = gateway.try_submit(EpsQuery{MatrixF32(query), 0.5f});
          if (t != nullptr) tickets[c].push_back(std::move(t));
          std::this_thread::yield();
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    gateway.stop();
    stopped.store(true);
    for (std::thread& t : clients) t.join();

    for (std::size_t c = 0; c < kClients; ++c) {
      for (const auto& t : tickets[c]) {
        ASSERT_TRUE(t->ready()) << "round " << round << " client " << c;
        const auto& resp = t->wait();
        if (resp.state == RequestState::kFailed) {
          EXPECT_EQ(resp.error, "gateway stopped");
        } else {
          EXPECT_EQ(resp.state, RequestState::kDone);
        }
      }
    }
  }
}

// Boundary validation at admission: a NaN radius or query rows outside the
// FP16 range throw CheckError from try_submit, before touching the ring —
// never served at a calibrated radius or with overflowed rows.
TEST(GatewayAdmission, RejectsInvalidRequestsAtSubmit) {
  const auto data = data::uniform(120, 8, 1011);
  auto svc = std::make_shared<JoinService>(test_support::one_shard(data));
  GatewayOptions gopts;
  gopts.start = false;
  BatchGateway gateway(svc, gopts);

  const MatrixF32 points = data::uniform(4, 8, 1012);
  EXPECT_THROW(gateway.try_submit(EpsQuery{
                   MatrixF32(points), std::numeric_limits<float>::quiet_NaN()}),
               CheckError);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(), 1.0e5f}) {
    MatrixF32 rows(points);
    rows.row(2)[6] = bad;
    EXPECT_THROW(gateway.try_submit(EpsQuery{MatrixF32(rows), 0.5f}),
                 CheckError)
        << bad;
    EXPECT_THROW(gateway.try_submit(KnnQuery{MatrixF32(rows), 2}), CheckError)
        << bad;
  }
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);  // malformed, not backpressured
}

// Concurrent clients: 8 threads submit through one gateway; every response
// must match the sequential reference, and the gateway must have coalesced
// (fewer windows than requests when the window admits more than one).
TEST(GatewayCoalescing, ConcurrentClientsCoalesceAndMatch) {
  const auto data = data::uniform(400, 16, 991);
  const float eps = data::calibrate_epsilon(data, 24.0).eps;
  service::ShardedCorpusOptions opts;
  opts.shards = 3;
  auto svc = std::make_shared<JoinService>(
      std::make_shared<service::ShardedCorpus>(MatrixF32(data), opts));

  constexpr std::size_t kClients = 8;
  std::vector<EpsQuery> requests(kClients);
  std::vector<QueryJoinOutput> expect(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    requests[i].points = data::uniform(32, 16, 1000 + i);
    requests[i].eps = eps * (0.7f + 0.1f * static_cast<float>(i % 4));
    expect[i] = svc->eps_join(
        EpsQuery{MatrixF32(requests[i].points), requests[i].eps});
  }

  GatewayOptions gopts;
  gopts.window_max_requests = kClients;
  // Generous time trigger: the size trigger closes the window as soon as
  // all 8 clients are in, so this only bounds straggler thread spawns.
  gopts.window_wait = std::chrono::milliseconds(250);
  BatchGateway gateway(svc, gopts);

  std::vector<std::thread> clients;
  std::vector<int> ok(kClients, 0);
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto ticket = must_submit(gateway, EpsQuery{
          MatrixF32(requests[i].points), requests[i].eps});
      const BatchGateway::Response& resp = ticket->wait();
      if (resp.state != RequestState::kDone) return;
      if (resp.eps.pair_count != expect[i].pair_count) return;
      ok[i] = 1;
      expect_same_eps(expect[i], resp.eps, "client " + std::to_string(i));
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(ok[i], 1) << "client " << i;
  }
  gateway.stop();
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.served, kClients);
  EXPECT_LT(stats.windows, kClients);  // something actually coalesced
  EXPECT_GT(stats.coalescing_factor, 1.0);
}

// A kNN request with k < 1 is refused at submit and counted as "bad_k";
// a NaN radius at submit counts as "nan_eps".
TEST(RequestRejections, BadKIsCounted) {
  const auto data = data::uniform(60, 8, 1013);
  auto svc = std::make_shared<JoinService>(test_support::one_shard(data));
  GatewayOptions gopts;
  gopts.start = false;
  BatchGateway gateway(svc, gopts);
  const MatrixF32 points = data::uniform(2, 8, 1014);

  auto before = test_support::rejection_counts();
  EXPECT_THROW(gateway.try_submit(KnnQuery{MatrixF32(points), 0}),
               CheckError);
  test_support::expect_rejections_since(before, "bad_k", 1);

  before = test_support::rejection_counts();
  EXPECT_THROW(gateway.try_submit(EpsQuery{
                   MatrixF32(points), std::numeric_limits<float>::quiet_NaN()}),
               CheckError);
  test_support::expect_rejections_since(before, "nan_eps", 1);
  EXPECT_EQ(gateway.stats().submitted, 0u);
}

}  // namespace
}  // namespace fasted::serve
