#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "common/parallel.hpp"
#include "core/kernels/kernel_context.hpp"

namespace perfbench {

namespace fk = fasted::kernels;

namespace {

constexpr std::size_t kProbePanels = 256;  // 2048 rows: 1 MiB at d=128
constexpr int kProbeReps = 5;
constexpr double kRepSeconds = 0.04;

// Median seconds per pass of `pass` over kProbeReps timed repetitions, each
// running enough passes to last about kRepSeconds.
template <typename Pass>
double seconds_per_pass(const char* span_name, Pass&& pass) {
  const auto t0 = Clock::now();
  pass();
  const double once = std::max(seconds_since(t0), 1e-7);
  const int passes = std::max(1, static_cast<int>(kRepSeconds / once));
  std::vector<double> reps;
  for (int r = 0; r < kProbeReps; ++r) {
    SpanScope span(span_name, kKernels);
    const auto a = Clock::now();
    for (int p = 0; p < passes; ++p) pass();
    reps.push_back(seconds_since(a) / passes);
  }
  return median(reps);
}

double dot_rate(const fk::RzDotKernel& kern, const fasted::MatrixF32& values,
                const std::vector<float>& panels, std::size_t nq,
                const char* span_name) {
  const std::size_t dims = values.dims();
  const std::size_t panel_floats = dims * fk::kPanelWidth;
  const std::size_t npanels = panels.size() / panel_floats;
  float acc[fk::kQueryBlock * fk::kPanelWidth];
  float guard = 0;
  const double s = seconds_per_pass(span_name, [&] {
    for (std::size_t p = 0; p < npanels; ++p) {
      kern.dot_panel(values.row(p % 64), values.stride(), nq,
                     panels.data() + p * panel_floats, dims, acc);
      guard += acc[0];
    }
  });
  // Keep the accumulators observable.
  if (guard == -1.0f) std::printf("#\n");
  return static_cast<double>(npanels * nq * fk::kPanelWidth) / s;
}

}  // namespace

const fk::RzDotKernel& resolved_kernel(const fasted::FastedEngine& engine) {
  const fk::KernelContext ctx = fk::KernelContext::resolve(
      engine.config().rz_kernel, fasted::ThreadPool::global());
  return ctx.kernel(0);
}

KernelCeilings probe_kernels(const fasted::PreparedDataset& data,
                             const fk::RzDotKernel& kern) {
  const fasted::MatrixF32& values = data.values();
  const std::size_t dims = values.dims();
  const std::size_t panel_floats = dims * fk::kPanelWidth;
  const std::size_t npanels =
      std::min(kProbePanels, values.rows() / fk::kPanelWidth);
  std::vector<float> panels(npanels * panel_floats);

  KernelCeilings out;
  out.kernel = kern.name;
  const double pack_s = seconds_per_pass("kernels.pack_panel", [&] {
    for (std::size_t p = 0; p < npanels; ++p) {
      fk::pack_panel(values.row(p * fk::kPanelWidth), values.stride(),
                     fk::kPanelWidth, dims, panels.data() + p * panel_floats);
    }
  });
  out.pack_ns = 1e9 * pack_s / static_cast<double>(npanels);
  out.nqB = dot_rate(kern, values, panels, fk::kQueryBlock,
                     "kernels.dot_panel.nqB");
  out.nq1 = dot_rate(kern, values, panels, 1, "kernels.dot_panel.nq1");
  out.scalar = dot_rate(fk::rz_dot_scalar(), values, panels, fk::kQueryBlock,
                        "kernels.dot_panel.scalar");
  return out;
}

ExecutorShapes probe_executor(const fasted::FastedEngine& engine,
                              std::span<const fasted::CorpusShardView> views,
                              const fasted::PreparedDataset& queries,
                              float eps, const fk::TombstoneFilter* tombs,
                              double seconds) {
  fasted::JoinOptions opts;
  opts.build_result = false;
  opts.tombstones = tombs;
  auto shape_us = [&](std::size_t rows, const char* span_name) {
    // Distinct query batches, cycled, so no one row's hit count dominates.
    std::vector<fasted::PreparedDataset> batches;
    for (std::size_t b = 0; b < 16; ++b) {
      std::vector<std::uint32_t> ids;
      for (std::size_t r = 0; r < rows; ++r) {
        ids.push_back(static_cast<std::uint32_t>(
            (b * 977 + r * 131) % queries.rows()));
      }
      batches.push_back(fasted::PreparedDataset::gather(queries, ids));
    }
    std::vector<double> us;
    const auto start = Clock::now();
    for (std::size_t i = 0; us.size() < 8 || seconds_since(start) < seconds;
         ++i) {
      SpanScope span(span_name, kExecutor);
      const auto t0 = Clock::now();
      engine.query_join(batches[i % batches.size()], views, eps, opts);
      us.push_back(1e6 * seconds_since(t0));
    }
    return median(us);
  };
  ExecutorShapes out;
  out.point_us = shape_us(1, "executor.query_join.point");
  out.strip8_us = shape_us(8, "executor.query_join.strip8");
  return out;
}

void add_probe_layers(Report& layers, const KernelCeilings& k,
                      const ExecutorShapes& e, double corpus_rows,
                      std::size_t pool_slots) {
  const std::string on = "kernel=" + k.kernel;
  layers.add("kernels.nqB.evals_per_s_core", k.nqB, "1/s", on);
  layers.add("kernels.nq1.evals_per_s_core", k.nq1, "1/s", on);
  layers.add("kernels.pack_panel_ns", k.pack_ns, "ns", "per 8-row panel");
  layers.add("kernels.scalar.evals_per_s_core", k.scalar, "1/s",
             "hardware normaliser");
  const double slots = static_cast<double>(pool_slots);
  layers.add("executor.point_us", e.point_us, "us", "1 row, count-only");
  layers.add("executor.point.efficiency",
             corpus_rows / (1e-6 * e.point_us) / slots / k.nq1, "ratio",
             "evals/s/core / nq1 ceiling");
  layers.add("executor.strip8_us", e.strip8_us, "us", "8 rows, count-only");
  layers.add("executor.strip8.efficiency",
             8 * corpus_rows / (1e-6 * e.strip8_us) / slots / k.nqB, "ratio",
             "evals/s/core / nqB ceiling");
}

}  // namespace perfbench
