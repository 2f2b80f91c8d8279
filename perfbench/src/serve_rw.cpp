// serve_rw: an interactive search service that also takes writes.
//
// Closed loop, one client, on a JoinService over a ShardedCorpus of
// SIFT-like rows.  Reads and writes run 3:1.  A read is a 1-row EpsQuery at
// the radius calibrated at set-up (S=64), its row drawn from the seed
// corpus.  Writes alternate append of 16 fresh rows and erase of 16 random
// live ids; compact() runs every kCompactEvery operations.  The first
// kRecalMax writes (an append, then an erase) are each followed by a
// selectivity-targeted read (eps=-1), paying the calibration the write
// invalidated.  This is where the 1-row kernel shape,
// the per-query panel pack and the service overhead dominate, and the only
// workload that runs the corpus lifecycle and calibration invalidation.

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>

#include "common/parallel.hpp"
#include "core/fasted.hpp"
#include "data/generators.hpp"
#include "probes.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using fasted::service::JoinService;
using fasted::service::ShardedCorpus;

constexpr std::size_t kRows = 8192;
constexpr std::size_t kShardCapacity = 2048;
constexpr double kSelectivity = 64;
constexpr std::size_t kWriteRows = 16;
constexpr std::size_t kFreshRows = 8192;   // append pool, cycled
constexpr std::size_t kCompactEvery = 400;  // operations
constexpr std::size_t kOracleEvery = 16;    // reads
// capacity_per_s is the median over chunks of this many operations, so a
// stretch of outside load on a shared host moves a few chunks, not the
// figure.
constexpr std::size_t kChunkOps = 256;
// Selectivity-targeted reads per run, one after each of the first writes
// (each recomputes the invalidated calibration, for seconds).  Early, so
// the corpus they calibrate over is the same size on every seed.
constexpr std::size_t kRecalMax = 2;

struct Inputs {
  fasted::MatrixF32 data;   // seed corpus rows; reads draw from these
  fasted::MatrixF32 fresh;  // rows appends ingest
  std::shared_ptr<ShardedCorpus> corpus;
  std::shared_ptr<JoinService> service;
  float eps = 0;
  double generate_s = 0;
  double calibrate_s = 0;
};

Inputs set_up(std::uint64_t seed) {
  Inputs in;
  {
    SpanScope span("data.sift_like", kData);
    const auto t0 = Clock::now();
    in.data = fasted::data::sift_like(kRows, seed);
    in.fresh = fasted::data::sift_like(kFreshRows, seed ^ 0xf7e54ull);
    in.generate_s = seconds_since(t0);
  }
  {
    SpanScope span("corpus.build", kCorpus);
    fasted::service::ShardedCorpusOptions opts;
    opts.shard_capacity = kShardCapacity;
    in.corpus = std::make_shared<ShardedCorpus>(in.data, opts);
  }
  {
    SpanScope span("service.construct", kService);
    in.service = std::make_shared<JoinService>(in.corpus);
  }
  {
    SpanScope span("corpus.eps_for_selectivity.cold", kCorpus);
    const auto t0 = Clock::now();
    in.eps = in.corpus->eps_for_selectivity(kSelectivity);
    in.calibrate_s = seconds_since(t0);
  }
  return in;
}

fasted::MatrixF32 one_row(const fasted::MatrixF32& src, std::size_t i) {
  fasted::MatrixF32 m(1, src.dims());
  std::copy_n(src.row(i), src.stride(), m.row(0));
  return m;
}

// Re-runs a read on a scalar-kernel engine over the same snapshot's shard
// views and tombstone filter; true when every match (id and distance)
// agrees.
bool oracle_agrees(const fasted::FastedEngine& scalar,
                   const ShardedCorpus::Snapshot& snap,
                   const fasted::MatrixF32& query, float eps,
                   const fasted::QueryJoinOutput& got) {
  SpanScope span("oracle.serve_rw", kBench);
  const auto views = ShardedCorpus::shard_views(snap);
  const auto filter = ShardedCorpus::tombstone_filter(snap);
  fasted::JoinOptions opts;
  opts.tombstones = filter.any() ? &filter : nullptr;
  const auto want = scalar.query_join(
      fasted::PreparedDataset(query),
      std::span<const fasted::CorpusShardView>(views), eps, opts);
  const auto a = got.result.matches_of(0);
  const auto b = want.result.matches_of(0);
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].id != b[k].id || a[k].dist2 != b[k].dist2) return false;
  }
  return true;
}

}  // namespace

Outcome run_serve_rw(const RunArgs& args) {
  Outcome out;
  SetupTimes setup;
  Inputs in =
      set_up_repeatedly<Inputs>([&] { return set_up(args.seed); }, setup);
  ShardedCorpus& corpus = *in.corpus;
  JoinService& service = *in.service;

  fasted::FastedConfig scalar_cfg = fasted::FastedConfig::paper_defaults();
  scalar_cfg.rz_kernel = "scalar";
  const fasted::FastedEngine scalar(scalar_cfg);

  std::mt19937_64 rng(args.seed ^ 0x5e4e5ull);
  std::vector<std::uint32_t> live(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    live[i] = static_cast<std::uint32_t>(i);
  }

  std::vector<double> read_s, append_s, erase_s, compact_s, recal_s,
      snapshot_s;
  std::size_t writes = 0, recals = 0, fresh_next = 0;
  double rows_prepared = 0, rows_appended = 0, oracle_s = 0;
  std::uint64_t ops = 0;
  double chunk_busy_s = 0;  // timed operation seconds in the current chunk
  std::vector<double> chunk_rate;

  // Checks one read against the oracle (outside the timed region).
  auto check_read = [&](const fasted::MatrixF32& q, float eps,
                        const fasted::QueryJoinOutput& got) {
    const auto t0 = Clock::now();
    std::shared_ptr<const ShardedCorpus::Snapshot> snap;
    {
      SpanScope span("corpus.snapshot", kCorpus);
      const auto s0 = Clock::now();
      snap = corpus.snapshot();
      snapshot_s.push_back(seconds_since(s0));
    }
    if (!oracle_agrees(scalar, *snap, q, eps, got)) ++out.wrong;
    oracle_s += seconds_since(t0);
  };

  const auto start = Clock::now();
  std::size_t reads = 0;
  // The run measures `seconds` of reads and writes; oracle checks and the
  // (multi-second) selectivity-targeted reads come on top.
  double recal_total = 0;
  while (seconds_since(start) - oracle_s - recal_total < args.seconds ||
         recals == 0) {
    const bool write = ops % 4 == 3;
    if (!write) {
      fasted::service::EpsQuery q;
      q.points = one_row(in.data, rng() % kRows);
      q.eps = in.eps;
      fasted::QueryJoinOutput r;
      const auto t0 = Clock::now();
      {
        SpanScope span("service.eps_join", kService, ops);
        r = service.eps_join(q);
      }
      read_s.push_back(seconds_since(t0));
      ++out.attempted;
      if (++reads % kOracleEvery == 0) check_read(q.points, in.eps, r);
    } else if (writes++ % 2 == 0) {
      fasted::MatrixF32 rows(kWriteRows, in.fresh.dims());
      for (std::size_t r = 0; r < kWriteRows; ++r) {
        std::copy_n(in.fresh.row((fresh_next + r) % kFreshRows),
                    in.fresh.stride(), rows.row(r));
      }
      fresh_next += kWriteRows;
      // Rows the open-shard rebuild re-prepares: its current rows plus the
      // new ones (a full shard seals and the rows open a fresh one).
      const auto infos = corpus.shard_infos();
      const bool open = !infos.empty() && !infos.back().sealed;
      rows_prepared += static_cast<double>(
          kWriteRows + (open ? infos.back().rows : 0));
      rows_appended += kWriteRows;
      const std::size_t before = corpus.size();
      const auto t0 = Clock::now();
      {
        SpanScope span("corpus.append", kCorpus, ops);
        corpus.append(rows);
      }
      append_s.push_back(seconds_since(t0));
      ++out.attempted;
      for (std::size_t r = 0; r < kWriteRows; ++r) {
        live.push_back(static_cast<std::uint32_t>(before + r));
      }
      if (corpus.size() != before + kWriteRows) ++out.wrong;
    } else {
      std::vector<std::uint32_t> ids;
      for (std::size_t r = 0; r < kWriteRows; ++r) {
        const std::size_t at = rng() % live.size();
        ids.push_back(live[at]);
        live[at] = live.back();
        live.pop_back();
      }
      std::size_t newly = 0;
      const auto t0 = Clock::now();
      {
        SpanScope span("corpus.erase", kCorpus, ops);
        newly = corpus.erase(ids);
      }
      erase_s.push_back(seconds_since(t0));
      ++out.attempted;
      if (newly != kWriteRows) ++out.wrong;
    }
    ++ops;
    chunk_busy_s += !write            ? read_s.back()
                    : writes % 2 == 1 ? append_s.back()
                                      : erase_s.back();

    if (ops % kCompactEvery == 0) {
      fasted::service::CompactReport rep;
      const auto t0 = Clock::now();
      {
        SpanScope span("corpus.compact", kCorpus, ops);
        rep = corpus.compact();
      }
      compact_s.push_back(seconds_since(t0));
      chunk_busy_s += compact_s.back();
      ++out.attempted;
      if (rep.rows_dropped > 0) {
        // Survivors were renumbered: re-read the live id set.
        const auto snap = corpus.snapshot();
        const auto filter = ShardedCorpus::tombstone_filter(*snap);
        live.clear();
        for (std::size_t id = 0; id < corpus.size(); ++id) {
          if (!filter.dead(static_cast<std::uint32_t>(id))) {
            live.push_back(static_cast<std::uint32_t>(id));
          }
        }
      }
      if (live.size() != corpus.alive()) ++out.wrong;
    }
    if (ops % kChunkOps == 0) {
      chunk_rate.push_back(static_cast<double>(kChunkOps) / chunk_busy_s);
      chunk_busy_s = 0;
    }

    if (write && recals < kRecalMax) {
      fasted::service::EpsQuery q;
      q.points = one_row(in.data, rng() % kRows);
      q.eps = -1;
      q.selectivity = kSelectivity;
      fasted::QueryJoinOutput r;
      const auto t0 = Clock::now();
      {
        SpanScope span("service.eps_join.recalibrate", kService, ops);
        r = service.eps_join(q);
      }
      recal_s.push_back(seconds_since(t0));
      recal_total += recal_s.back();
      ++recals;
      ++out.attempted;
      // The radius the read resolved is now cached.
      check_read(q.points, corpus.eps_for_selectivity(kSelectivity), r);
    }
  }

  const fasted::service::ServiceStats st = service.stats();
  std::string kernels;
  for (const auto& k : st.domain_kernels) {
    kernels += (kernels.empty() ? "" : ",") + k;
  }
  std::printf("service kernel(s) per domain: %s\n", kernels.c_str());

  Report& e = out.end_to_end;
  e.add("setup_s", median(setup.total), "s",
        "generate + corpus + service + cold calibration");
  e.add("peak_rss_mb", peak_rss_mb(), "MB");
  e.add("p50_us", 1e6 * median(read_s), "us", "= read_p50_us");
  e.add("p99_us", 1e6 * quantile(read_s, 0.99), "us", "= read_p99_us");
  e.add("op2.p50_us", 1e6 * median(append_s), "us", "= append_p50_us");
  e.add("op2.p99_us", 1e6 * quantile(append_s, 0.99), "us",
        "= append_p99_us");
  e.add("capacity_per_s", median(chunk_rate), "1/s",
        "reads + writes per second of service time, median of 256-op chunks");
  e.add("read_p50_us", 1e6 * median(read_s), "us");
  e.add("read_p99_us", 1e6 * quantile(read_s, 0.99), "us");
  e.add("append_p50_us", 1e6 * median(append_s), "us");
  e.add("append_p99_us", 1e6 * quantile(append_s, 0.99), "us");
  e.add("recal_s", median(recal_s), "s", "eps=-1 read right after a write");
  e.add("reads", static_cast<double>(read_s.size()), "count");
  e.add("appends", static_cast<double>(append_s.size()), "count");
  e.add("erases", static_cast<double>(erase_s.size()), "count");
  e.add("compactions", static_cast<double>(compact_s.size()), "count");
  e.add("recal_reads", static_cast<double>(recal_s.size()), "count");

  if (args.trace) {
    Report& l = out.layers;
    l.add("data.generate_s", median(setup.generate), "s");
    const auto snap = corpus.snapshot();
    const auto views = ShardedCorpus::shard_views(*snap);
    const auto filter = ShardedCorpus::tombstone_filter(*snap);
    const KernelCeilings k =
        probe_kernels(corpus.prepared(0), resolved_kernel(service.engine()));
    // Queries for the probe: the first shard's prepared rows (all in the
    // seed corpus, like the workload's reads).
    const ExecutorShapes x = probe_executor(
        service.engine(), std::span<const fasted::CorpusShardView>(views),
        corpus.prepared(0), in.eps, filter.any() ? &filter : nullptr, 0.3);
    const std::size_t slots = fasted::ThreadPool::global().size();
    add_probe_layers(l, k, x, static_cast<double>(corpus.size()), slots);
    l.add("service.overhead_us", 1e6 * median(read_s) - x.point_us, "us",
          "eps_join p50 - executor.point_us");
    // A read rebuilt from its layers: service + executor, and the executor
    // as panel packing + the nq1 kernel + the rest.
    double rows = 0, panels = 0;
    for (const auto& v : views) {
      rows += static_cast<double>(v.prepared->rows());
      panels += std::ceil(static_cast<double>(v.prepared->rows()) / 8.0);
    }
    const double pack_us =
        1e-3 * panels * k.pack_ns / static_cast<double>(slots);
    const double kernels_us =
        1e6 * rows / (k.nq1 * static_cast<double>(slots));
    l.add("adds_up.pack_us", pack_us, "us", "panels x pack_panel_ns / slots");
    l.add("adds_up.kernels_us", kernels_us, "us",
          "rows / (nq1 ceiling x slots)");
    l.add("adds_up.executor_rest_us", x.point_us - pack_us - kernels_us, "us",
          "executor.point_us - pack - kernels");
    l.add("adds_up.service_us", 1e6 * median(read_s) - x.point_us, "us",
          "service.overhead_us");
    l.add("adds_up.sum_us", 1e6 * median(read_s), "us", "= read p50");
    const double raw = static_cast<double>(st.pairs + st.pairs_tombstoned);
    l.add("service.tombstone_waste",
          raw > 0 ? static_cast<double>(st.pairs_tombstoned) / raw : 0.0,
          "ratio", "pairs_tombstoned / (pairs + pairs_tombstoned)");
    for (const auto& ph : st.phase_latencies) {
      l.add(std::string("service.phase.") + ph.phase + "_p50_us",
            1e-3 * static_cast<double>(ph.p50_ns), "us",
            "ServiceStats phase, n=" + std::to_string(ph.count));
    }
    const fasted::service::ShardedStats cs = corpus.stats();
    l.add("corpus.calibrate_cold_s", median(setup.calibrate), "s");
    double after = 0;
    for (const auto& ph : st.phase_latencies) {
      if (std::string(ph.phase) == "calibrate") {
        after = 1e-9 * static_cast<double>(ph.p50_ns);
      }
    }
    l.add("corpus.calibrate_after_write_s", after, "s",
          "ServiceStats calibrate phase p50");
    const double lookups =
        static_cast<double>(cs.calibration_hits + cs.calibration_misses);
    l.add("corpus.calibration_hit_ratio",
          lookups > 0 ? static_cast<double>(cs.calibration_hits) / lookups : 0,
          "ratio");
    l.add("corpus.calibration_blocks_built",
          static_cast<double>(cs.calibration_blocks_built), "count",
          "incl. the set-ups");
    l.add("corpus.rows_prepared_per_row_appended",
          rows_appended > 0 ? rows_prepared / rows_appended : 0, "ratio");
    l.add("corpus.open_rebuilds", static_cast<double>(cs.open_rebuilds),
          "count");
    l.add("corpus.erase_us", 1e6 * median(erase_s), "us");
    l.add("corpus.compact_ms", 1e3 * median(compact_s), "ms");
    l.add("corpus.snapshot_us", 1e6 * median(snapshot_s), "us");
  }
  return out;
}

}  // namespace perfbench
