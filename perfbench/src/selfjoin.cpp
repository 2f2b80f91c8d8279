// selfjoin: the paper's workload, as batch analytics runs it.
//
// Closed loop, one caller: FastedEngine::self_join(PreparedDataset, eps)
// back to back with the CSR result materialised, alternating the paper's
// lowest and highest selectivity targets (S=64 is the primary operation,
// S=256 the second: four times the pairs through the same kernel work).
// 8192 SIFT-like rows at d=128 are 4 MiB of FP32: past a core's 2 MiB L2,
// inside the shared L3.  No service, corpus, calibration cache or gateway
// code runs.

#include <algorithm>
#include <memory>
#include <random>

#include "common/parallel.hpp"
#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRows = 8192;
constexpr double kSelectivity = 64;
constexpr double kSelectivity2 = 256;
constexpr std::size_t kOracleRows = 32;  // sampled rows per checked join

struct Inputs {
  fasted::MatrixF32 data;
  std::unique_ptr<fasted::PreparedDataset> prepared;
  float eps = 0;
  float eps2 = 0;
  double generate_s = 0;
  double calibrate_s = 0;
};

Inputs set_up(std::uint64_t seed) {
  Inputs in;
  {
    SpanScope span("data.sift_like", kData);
    const auto t0 = Clock::now();
    in.data = fasted::data::sift_like(kRows, seed);
    in.generate_s = seconds_since(t0);
  }
  {
    SpanScope span("executor.prepare", kExecutor);
    in.prepared = std::make_unique<fasted::PreparedDataset>(in.data);
  }
  {
    SpanScope span("data.calibrate_epsilon", kData);
    const auto t0 = Clock::now();
    in.eps = fasted::data::calibrate_epsilon(in.data, kSelectivity, seed).eps;
    in.eps2 = fasted::data::calibrate_epsilon(in.data, kSelectivity2, seed).eps;
    in.calibrate_s = seconds_since(t0);
  }
  return in;
}

// FNV-1a over the CSR neighbour lists: every repeat of a join must return
// the identical result set.
std::uint64_t digest(const fasted::SelfJoinResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < r.num_points(); ++i) {
    for (const std::uint32_t id : r.neighbors_of(i)) {
      h = (h ^ id) * 1099511628211ull;
    }
    h = (h ^ 0xffffffffull) * 1099511628211ull;
  }
  return h;
}

// Neighbour lists of sampled rows against query_row_join with the scalar
// kernel over the whole corpus.  Returns the number of mismatching rows.
std::size_t oracle_mismatches(const fasted::PreparedDataset& p, float eps,
                              const fasted::SelfJoinResult& r,
                              std::mt19937_64& rng) {
  SpanScope span("oracle.selfjoin", kBench);
  std::size_t bad = 0;
  std::vector<fasted::QueryMatch> want;
  for (std::size_t s = 0; s < kOracleRows; ++s) {
    const std::size_t i = rng() % p.rows();
    want.clear();
    fasted::query_row_join(p.values().row(i), p.norms()[i], p.values(),
                           p.norms(), 0, p.rows(), eps * eps,
                           fasted::kernels::rz_dot_scalar(), want);
    const auto got = r.neighbors_of(i);
    bool same = got.size() == want.size();
    for (std::size_t k = 0; same && k < got.size(); ++k) {
      same = got[k] == want[k].id;
    }
    if (!same) ++bad;
  }
  return bad;
}

}  // namespace

Outcome run_selfjoin(const RunArgs& args) {
  Outcome out;
  SetupTimes setup;
  Inputs in =
      set_up_repeatedly<Inputs>([&] { return set_up(args.seed); }, setup);

  const fasted::FastedEngine engine;
  const fasted::PreparedDataset& p = *in.prepared;
  fasted::JoinOptions count_only;
  count_only.build_result = false;

  // Timed region.  The traced run adds a count-only join per cycle (the
  // executor without the CSR sink); sink time is the difference.
  std::vector<double> join_s, join2_s, count_s, sink_s;
  std::uint64_t want_digest = 0, want_digest2 = 0, want_count = 0;
  fasted::JoinOutput last, last2;
  const auto start = Clock::now();
  while (join_s.size() < 3 || seconds_since(start) < args.seconds) {
    for (int which = 0; which < 2; ++which) {
      const float eps = which == 0 ? in.eps : in.eps2;
      fasted::JoinOutput r;
      const auto t0 = Clock::now();
      {
        SpanScope span(which == 0 ? "executor.self_join.s64"
                                  : "executor.self_join.s256",
                       kExecutor);
        r = engine.self_join(p, eps);
      }
      (which == 0 ? join_s : join2_s).push_back(seconds_since(t0));
      ++out.attempted;
      const std::uint64_t d = digest(r.result);
      std::uint64_t& want = which == 0 ? want_digest : want_digest2;
      if (want == 0) want = d;
      if (d != want) ++out.wrong;
      (which == 0 ? last : last2) = std::move(r);
    }
    if (args.trace) {
      const auto t0 = Clock::now();
      std::uint64_t pairs;
      {
        SpanScope span("executor.self_join.count_only", kExecutor);
        pairs = engine.self_join(p, in.eps, count_only).pair_count;
      }
      count_s.push_back(seconds_since(t0));
      // Paired with this cycle's materialised join, so drift cancels.
      sink_s.push_back(join_s.back() - count_s.back());
      ++out.attempted;
      if (want_count == 0) want_count = pairs;
      if (pairs != want_count || pairs != last.pair_count) ++out.wrong;
    }
  }
  const double measured_s = seconds_since(start);

  std::mt19937_64 rng(args.seed ^ 0x0bac1e5ull);
  const std::size_t bad = oracle_mismatches(p, in.eps, last.result, rng) +
                          oracle_mismatches(p, in.eps2, last2.result, rng);
  // A wrong sampled row means every repeat of that join (identical digest)
  // was wrong too.
  if (bad > 0) out.wrong = out.attempted;

  const double n = static_cast<double>(kRows);
  const double evals = n * (n - 1) / 2;
  const double join_med = median(join_s);
  Report& e = out.end_to_end;
  e.add("setup_s", median(setup.total), "s", "generate + prepare + calibrate");
  e.add("peak_rss_mb", peak_rss_mb(), "MB");
  e.add("p50_us", 1e6 * join_med, "us", "self-join S=64, CSR materialised");
  e.add("p99_us", 1e6 * quantile(join_s, 0.99), "us",
        "self-join S=64 (fewer than 100 joins: near the slowest)");
  e.add("op2.p50_us", 1e6 * median(join2_s), "us", "self-join S=256");
  e.add("op2.p99_us", 1e6 * quantile(join2_s, 0.99), "us", "self-join S=256");
  e.add("capacity_per_s", evals / join_med, "1/s",
        "= evals_per_s: n(n-1)/2 / median S=64 join");
  e.add("evals_per_s", evals / join_med, "1/s");
  e.add("pairs.s64", static_cast<double>(last.pair_count), "count");
  e.add("pairs.s256", static_cast<double>(last2.pair_count), "count");
  e.add("joins", static_cast<double>(join_s.size() + join2_s.size()), "count",
        "samples behind the latencies");
  e.add("measured_s", measured_s, "s");

  if (args.trace) {
    Report& l = out.layers;
    l.add("data.generate_s", median(setup.generate), "s");
    l.add("data.calibrate_epsilon_s", median(setup.calibrate), "s",
          "S=64 and S=256");
    const auto& kern = resolved_kernel(engine);
    const KernelCeilings k = probe_kernels(p, kern);
    const fasted::CorpusShardView whole{&p, 0, 0};
    const ExecutorShapes x = probe_executor(
        engine, std::span<const fasted::CorpusShardView>(&whole, 1), p, in.eps,
        nullptr, 0.3);
    const std::size_t slots = fasted::ThreadPool::global().size();
    add_probe_layers(l, k, x, n, slots);
    const double count_med = median(count_s);
    l.add("executor.selfjoin.count_only_s", count_med, "s");
    l.add("executor.selfjoin.efficiency",
          evals / count_med / static_cast<double>(slots) / k.nqB, "ratio",
          "evals/s/core / nqB ceiling");
    l.add("sink.csr_s", median(sink_s), "s",
          "materialised - count-only, S=64, per cycle");
    l.add("sink.csr_share", median(sink_s) / join_med, "ratio");
    // The S=64 join rebuilt from its layers.
    const double kernels_s = evals / (k.nqB * static_cast<double>(slots));
    l.add("adds_up.kernels_s", kernels_s, "s", "evals / (nqB ceiling x slots)");
    l.add("adds_up.executor_s", count_med - kernels_s, "s",
          "count-only - kernels");
    l.add("adds_up.sink_s", median(sink_s), "s", "sink.csr_s");
    l.add("adds_up.sum_s", count_med + median(sink_s), "s",
          "compare: S=64 join p50 " + std::to_string(join_med) + " s");
  }
  return out;
}

}  // namespace perfbench
