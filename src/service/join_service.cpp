#include "service/join_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/kernels/demux_sink.hpp"
#include "core/kernels/kernel_context.hpp"
#include "core/kernels/merging_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fasted::service {

namespace {

// Ranking order for kNN: pipeline distance ascending, ties by corpus id.
bool rank_less(const QueryMatch& a, const QueryMatch& b) {
  return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.id < b.id;
}

}  // namespace

JoinService::JoinService(std::shared_ptr<ShardedCorpus> corpus,
                         FastedEngine engine)
    : shards_(std::move(corpus)), engine_(std::move(engine)),
      pool_baseline_(ThreadPool::global().domain_load_snapshot()) {
  FASTED_CHECK_MSG(shards_ != nullptr, "JoinService needs a sharded corpus");
}

std::unique_lock<std::mutex> JoinService::admit() {
  obs::PhaseTimer wait(phases_->admission_wait);
  obs::TraceSpan span("admit", "service");
  // The lock is acquired while constructing the return value; `wait` and
  // `span` are destroyed after it, so both record the full queueing time.
  return std::unique_lock<std::mutex>(serve_mutex_);
}

void JoinService::validate(const EpsQuery& request) const {
  check_rows(request.points, shards_->dims());
  if (std::isnan(request.eps)) {
    reject_request("nan_eps", "search radius is NaN");
  }
}

void JoinService::validate(const KnnQuery& request) const {
  check_rows(request.points, shards_->dims());
}

JoinService::CorpusRef JoinService::corpus_ref() const {
  CorpusRef ref;
  ref.snap = shards_->snapshot();
  ref.views = ShardedCorpus::shard_views(*ref.snap);
  ref.rows = ref.snap->back().shard->base + ref.snap->back().shard->rows();
  ref.filter = ShardedCorpus::tombstone_filter(*ref.snap);
  ref.alive = ShardedCorpus::alive_rows(*ref.snap);
  return ref;
}

float JoinService::resolve_eps(const EpsQuery& request) {
  if (request.eps >= 0) return request.eps;
  obs::PhaseTimer timer(phases_->calibrate);
  obs::TraceSpan span("calibrate", "service");
  return shards_->eps_for_selectivity(request.selectivity);
}

QueryJoinOutput JoinService::eps_join(const EpsQuery& request) {
  validate(request);
  // Resolve the radius BEFORE admission: first-use calibration is a
  // sample join, and holding the serve slot across it would serialize
  // every concurrent cached-radius request behind one cold calibration.
  const float eps = resolve_eps(request);
  std::unique_lock<std::mutex> serve = admit();
  const CorpusRef ref = corpus_ref();

  JoinOptions options;
  options.path = request.path;
  // Dead rows are filtered sink-side: surviving matches are bit-exact, and
  // the no-delete path passes no filter at all (byte-identical to before).
  options.tombstones = ref.filter.any() ? &ref.filter : nullptr;
  const PreparedDataset queries(request.points);
  QueryJoinOutput out;
  {
    obs::PhaseTimer drain(phases_->eps_drain);
    obs::TraceSpan span("eps_join", "service");
    out = engine_.query_join(
        queries, std::span<const CorpusShardView>(ref.views), eps, options);
  }

  std::uint64_t raw = 0;
  for (const std::uint64_t p : out.shard_pairs) raw += p;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.eps_batches;
  stats_.queries += request.points.rows();
  stats_.pairs += out.pair_count;
  stats_.pairs_tombstoned += raw - out.pair_count;
  return out;
}

QueryJoinOutput JoinService::eps_join(const EpsQuery& request,
                                      const EpsMatchCallback& callback) {
  validate(request);
  FASTED_CHECK_MSG(callback != nullptr, "streaming join needs a callback");
  const float eps = resolve_eps(request);  // before admission, see above
  std::unique_lock<std::mutex> serve = admit();
  const CorpusRef ref = corpus_ref();
  obs::PhaseTimer drain(phases_->eps_drain);
  obs::TraceSpan drain_span("eps_join_stream", "service");

  const PreparedDataset queries(request.points);
  const std::size_t nq = queries.rows();
  const std::size_t nc = ref.rows;

  // Bounded-buffer streaming through the unified pipeline: a query_strip
  // plan per shard (block_tile_m queries x the whole shard per tile)
  // drained into the streaming sink, which merges each strip across shards
  // and hands it to the callback through its ring, so matches stream out
  // with no batch-wide buffer.  Streaming always runs the fast kernel — it
  // is bit-identical to the emulated data path, so the requested
  // ExecutionPath does not change the matches.
  // Tombstone filtering is sink-side (the sink drops dead-corpus matches
  // before regrouping), so the executor's raw count is corrected by the
  // sink's drop tally and every delivered row holds only surviving rows.
  kernels::StreamingSink sink(callback, ref.views.size());
  sink.filter_tombstones(&ref.filter);
  QueryJoinOutput out;
  out.pair_count = engine_.query_join_into(
      queries, std::span<const CorpusShardView>(ref.views), eps, sink);
  {
    // finish() drains the ring: what is left of delivery after the join
    // itself stops producing.
    obs::PhaseTimer deliver(phases_->stream_deliver);
    obs::TraceSpan span("stream_finish", "service");
    sink.finish();
  }
  const std::uint64_t dropped = sink.dropped();
  out.pair_count -= dropped;
  out.host_seconds = drain.seconds();
  drain.stop();
  out.perf = engine_.estimate_join(nq, nc, queries.dims());
  out.timing =
      engine_.model_query_response_time(nq, nc, queries.dims(), out.pair_count);

  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.eps_batches;
  stats_.queries += nq;
  stats_.pairs += out.pair_count;
  stats_.pairs_tombstoned += dropped;
  return out;
}

std::vector<QueryJoinOutput> JoinService::eps_join_coalesced(
    std::span<const EpsQuery> requests) {
  FASTED_CHECK_MSG(!requests.empty(), "empty coalesced window");
  const std::size_t dims = shards_->dims();
  std::size_t total = 0;
  for (const EpsQuery& r : requests) {
    validate(r);
    total += r.points.rows();
  }

  // Resolve every radius BEFORE admission (the same rule as eps_join: cold
  // calibration must not hold the serve slot), and build the strip routes —
  // each request keeps its OWN eps^2, computed with the same float multiply
  // a standalone join uses, so the demux re-filter is bit-exact.
  std::vector<kernels::DemuxRoute> routes(requests.size());
  float eps_max = 0.0f;
  {
    std::size_t at = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const float eps = resolve_eps(requests[i]);
      FASTED_CHECK_MSG(eps >= 0.0f, "coalesced request needs a radius");
      eps_max = std::max(eps_max, eps);
      routes[i] = kernels::DemuxRoute{at, requests[i].points.rows(),
                                      eps * eps};
      at += requests[i].points.rows();
    }
  }

  // Concatenate the window's query rows into one strip.  Equal dims means
  // equal stride, so each request's rows copy in one block; quantization and
  // norms are per-row, so preparing the strip is bit-identical to preparing
  // each request alone.
  MatrixF32 strip(total, dims);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const MatrixF32& pts = requests[i].points;
    std::copy_n(pts.row(0), pts.rows() * pts.stride(),
                strip.row(routes[i].row_begin));
  }

  std::unique_lock<std::mutex> serve = admit();
  const CorpusRef ref = corpus_ref();

  const PreparedDataset queries(strip);
  kernels::DemuxSink sink(std::move(routes), ref.views.size());
  sink.filter_tombstones(&ref.filter);
  obs::PhaseTimer drain(phases_->coalesced_drain);
  {
    obs::TraceSpan span("eps_join_coalesced", "service");
    engine_.query_join_into(
        queries, std::span<const CorpusShardView>(ref.views), eps_max, sink);
  }
  const double drain_seconds = drain.seconds();
  drain.stop();

  std::vector<QueryJoinOutput> outs(requests.size());
  std::uint64_t pairs_total = 0;
  std::uint64_t tomb_total = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    QueryJoinOutput& out = outs[i];
    out.result = sink.finalize(i);
    out.pair_count = sink.pairs(i);
    out.shard_pairs = sink.shard_pairs(i);
    const std::size_t nq = requests[i].points.rows();
    out.perf = engine_.estimate_join(nq, ref.rows, dims);
    out.timing =
        engine_.model_query_response_time(nq, ref.rows, dims, out.pair_count);
    out.host_seconds = drain_seconds;  // the shared window drain
    pairs_total += out.pair_count;
    tomb_total += sink.tombstone_dropped(i);
  }

  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.eps_batches += requests.size();
  ++stats_.coalesced_windows;
  stats_.coalesced_requests += requests.size();
  stats_.queries += total;
  stats_.pairs += pairs_total;
  stats_.pairs_tombstoned += tomb_total;
  return outs;
}

KnnBatchResult JoinService::knn(const KnnQuery& request,
                                const KnnOptions& options) {
  validate(request);
  // Like eps_join: resolve the initial radius BEFORE admission so cold
  // calibration does not serialize concurrent cached-radius requests.
  const float initial_eps = initial_knn_eps(request.k, options);
  std::unique_lock<std::mutex> serve = admit();
  const CorpusRef ref = corpus_ref();
  const PreparedDataset queries(request.points);
  FASTED_CHECK_MSG(request.k >= 1 && request.k <= ref.alive,
                   "need 1 <= k <= alive corpus size");

  KnnBatchResult result;
  result.k = request.k;
  result.ids.assign(queries.rows() * request.k, 0);
  result.distances.assign(queries.rows() * request.k, 0.0f);
  const std::size_t brute =
      knn_fill(queries, ref, request.k, options, initial_eps, 0, result);

  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.knn_batches;
  stats_.queries += queries.rows();
  stats_.knn_brute_force_queries += brute;
  return result;
}

KnnBatchResult JoinService::knn_corpus(std::size_t k,
                                       const KnnOptions& options) {
  const float initial_eps = initial_knn_eps(k, options);  // before admission
  std::unique_lock<std::mutex> serve = admit();
  const CorpusRef ref = corpus_ref();
  FASTED_CHECK_MSG(k >= 1 && k <= ref.alive,
                   "need 1 <= k <= alive corpus size");

  KnnBatchResult result;
  result.k = k;
  result.ids.assign(ref.rows * k, 0);
  result.distances.assign(ref.rows * k, 0.0f);

  // The query set is the corpus itself: serve each shard's prepared rows as
  // a query batch against the whole sharded corpus, writing into the global
  // result rows.  Every query's kNN row is exact (adaptive radius + final
  // brute sweep), so batching by shard changes nothing but the round count.
  std::size_t brute = 0;
  std::size_t nq = 0;
  for (const CorpusShardView& view : ref.views) {
    brute += knn_fill(*view.prepared, ref, k, options, initial_eps,
                      view.base, result);
    nq += view.prepared->rows();
  }

  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.knn_batches;
  stats_.queries += nq;
  stats_.knn_brute_force_queries += brute;
  return result;
}

float JoinService::initial_knn_eps(std::size_t k, const KnnOptions& options) {
  // The first adaptive-radius round targets ~growth * k neighbors; the
  // corpus's calibration cache amortizes the sampling across batches
  // asking for similar k.
  obs::PhaseTimer timer(phases_->calibrate);
  obs::TraceSpan span("calibrate", "service");
  return shards_->eps_for_selectivity(options.initial_growth *
                                      static_cast<double>(k));
}

std::size_t JoinService::knn_fill(const PreparedDataset& queries,
                                  const CorpusRef& ref, std::size_t k,
                                  const KnnOptions& options, float initial_eps,
                                  std::size_t row_base,
                                  KnnBatchResult& result) {
  const std::size_t nq = queries.rows();
  const std::span<const CorpusShardView> views(ref.views);
  // Every join and sweep of this request filters the snapshot's tombstones:
  // dead rows are never counted toward k and never returned.
  JoinOptions round_options;
  round_options.tombstones = ref.filter.any() ? &ref.filter : nullptr;

  // Adaptive radius: join the still-deficient queries against the corpus
  // with a growing eps, freezing each query's matches at the first round
  // that yields at least k (the k nearest are then inside the radius, so
  // the frozen set is complete).
  std::vector<std::vector<QueryMatch>> matches(nq);
  std::vector<std::uint32_t> active(nq);
  std::iota(active.begin(), active.end(), 0);

  float eps = initial_eps;
  int rounds;
  for (rounds = 1;; ++rounds) {
    std::optional<PreparedDataset> gathered;
    if (active.size() != nq) {
      gathered = PreparedDataset::gather(queries, active);
    }
    const PreparedDataset& sub = gathered ? *gathered : queries;
    obs::PhaseTimer round_timer(phases_->knn_round);
    obs::TraceSpan round_span("knn_round", "service");
    const QueryJoinOutput out = engine_.query_join(sub, views, eps,
                                                  round_options);
    round_timer.stop();
    std::vector<std::uint32_t> still;
    for (std::size_t a = 0; a < active.size(); ++a) {
      if (out.result.degree(a) >= k) {
        const auto span = out.result.matches_of(a);
        matches[active[a]].assign(span.begin(), span.end());
      } else {
        still.push_back(active[a]);
      }
    }
    active = std::move(still);
    if (active.empty() || rounds >= options.max_rounds ||
        static_cast<double>(active.size()) <=
            options.straggler_fraction * static_cast<double>(nq)) {
      break;
    }
    eps *= static_cast<float>(options.radius_growth);
  }
  result.rounds = std::max(result.rounds, rounds);

  // Straggler sweep: rank the whole corpus for queries the radius never
  // covered (isolated points, tiny corpora) — shard by shard, appended ids
  // offset to global rows (shards ascend, so rows come out id-ascending
  // exactly like the single-corpus sweep).
  if (!active.empty()) {
    obs::PhaseTimer brute_timer(phases_->knn_brute);
    obs::TraceSpan brute_span("knn_brute", "service");
    const float inf = std::numeric_limits<float>::infinity();
    // The sweep runs the same kernel the tiled path would, on the shard's
    // resident panels: each shard's rows go through the kernel of its
    // owning domain, so sweep distances are bit-identical to tile distances
    // under any kernel selection.
    const kernels::KernelContext kctx = kernels::KernelContext::resolve(
        engine_.config().rz_kernel, ThreadPool::global());
    parallel_for(0, active.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t a = lo; a < hi; ++a) {
        const std::size_t i = active[a];
        auto& row = matches[i];
        row.clear();
        for (const CorpusShardView& view : views) {
          const std::size_t before = row.size();
          query_row_join(queries.values().row(i), queries.norms()[i],
                         *view.prepared, inf, kctx.kernel(view.domain), row);
          if (view.base != 0) {
            for (std::size_t r = before; r < row.size(); ++r) {
              row[r].id += static_cast<std::uint32_t>(view.base);
            }
          }
        }
        if (round_options.tombstones != nullptr) {
          // The sweep ranked every physical row; drop the dead ones (ids
          // are already global) so the top k is over survivors only.
          std::erase_if(row, [&](const QueryMatch& m) {
            return round_options.tombstones->dead(m.id);
          });
        }
      }
    });
  }

  // Rank and emit the top k per query.
  parallel_for(0, nq, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      auto& row = matches[i];
      std::partial_sort(row.begin(),
                        row.begin() + static_cast<std::ptrdiff_t>(k),
                        row.end(), rank_less);
      for (std::size_t r = 0; r < k; ++r) {
        result.ids[(row_base + i) * k + r] = row[r].id;
        result.distances[(row_base + i) * k + r] =
            std::sqrt(std::max(0.0f, row[r].dist2));
      }
    }
  });
  return active.size();
}

namespace {

PhaseLatency phase_latency(const char* name,
                           const obs::ConcurrentHistogram& hist) {
  const obs::LatencyHistogram h = hist.snapshot();
  PhaseLatency out;
  out.phase = name;
  out.count = h.count();
  out.p50_ns = h.quantile_ns(0.50);
  out.p95_ns = h.quantile_ns(0.95);
  out.p99_ns = h.quantile_ns(0.99);
  out.max_ns = h.max_ns();
  out.mean_ns = h.mean_ns();
  return out;
}

}  // namespace

ServiceStats JoinService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  // Snapshot the pool's drain/steal counters outside our lock (they are
  // relaxed atomics with their own discipline), as a delta against the
  // construction-time baseline: only tiles THIS service caused — another
  // service sharing the pool never shows up here.
  out.domain_loads =
      ThreadPool::global().domain_loads_since(pool_baseline_);
  const kernels::KernelContext kctx = kernels::KernelContext::resolve(
      engine_.config().rz_kernel, ThreadPool::global());
  out.domain_kernels.reserve(out.domain_loads.size());
  for (std::size_t d = 0; d < out.domain_loads.size(); ++d) {
    out.domain_kernels.emplace_back(kctx.kernel(d).name);
  }
  const std::pair<const char*, const obs::ConcurrentHistogram*> phases[] = {
      {"admission_wait", &phases_->admission_wait},
      {"calibrate", &phases_->calibrate},
      {"eps_drain", &phases_->eps_drain},
      {"coalesced_drain", &phases_->coalesced_drain},
      {"stream_deliver", &phases_->stream_deliver},
      {"knn_round", &phases_->knn_round},
      {"knn_brute", &phases_->knn_brute},
  };
  for (const auto& [name, hist] : phases) {
    PhaseLatency lat = phase_latency(name, *hist);
    if (lat.count != 0) out.phase_latencies.push_back(lat);
  }
  return out;
}

std::string ServiceStats::json() const {
  std::ostringstream os;
  os << "{\"eps_batches\":" << eps_batches
     << ",\"knn_batches\":" << knn_batches << ",\"queries\":" << queries
     << ",\"pairs\":" << pairs << ",\"pairs_tombstoned\":" << pairs_tombstoned
     << ",\"knn_brute_force_queries\":" << knn_brute_force_queries
     << ",\"coalesced_windows\":" << coalesced_windows
     << ",\"coalesced_requests\":" << coalesced_requests;
  os << ",\"phases\":{";
  for (std::size_t i = 0; i < phase_latencies.size(); ++i) {
    const PhaseLatency& p = phase_latencies[i];
    if (i != 0) os << ",";
    os << "\"" << p.phase << "\":{\"count\":" << p.count << ",\"mean_ns\":"
       << static_cast<std::uint64_t>(p.mean_ns)
       << ",\"p50_ns\":" << p.p50_ns << ",\"p95_ns\":" << p.p95_ns
       << ",\"p99_ns\":" << p.p99_ns << ",\"max_ns\":" << p.max_ns << "}";
  }
  os << "},\"domain_loads\":[";
  for (std::size_t d = 0; d < domain_loads.size(); ++d) {
    const DomainLoad& l = domain_loads[d];
    if (d != 0) os << ",";
    os << "{\"domain\":" << d << ",\"kernel\":\""
       << (d < domain_kernels.size() ? domain_kernels[d] : "") << "\""
       << ",\"tiles_drained\":" << l.tiles_drained
       << ",\"tiles_stolen\":" << l.tiles_stolen
       << ",\"drain_ns\":" << l.drain_ns << ",\"steal_ns\":" << l.steal_ns
       << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace fasted::service
