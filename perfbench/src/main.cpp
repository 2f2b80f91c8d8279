// fasted_perfbench: one run of one benchmark workload.
//
//   fasted_perfbench --workload <selfjoin|serve_rw|gateway_open> --seed <n>
//                    --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints the run's environment and every metric it measured as readable
// lines, then one JSON object on the last line for perfbench/run.py, which
// picks the manifest's metrics out of it.  Exits non-zero when an answer
// was wrong.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parallel.hpp"
#include "common/topology.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, RunArgs& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty() && a.seconds > 0;
}

void json_metrics(const Report& r, std::string& out) {
  for (const auto& e : r.entries()) {
    char value[32] = "null";  // JSON has no infinity
    if (std::isfinite(e.value)) {
      std::snprintf(value, sizeof(value), "%.17g", e.value);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                  out.empty() ? "" : ",", e.name.c_str(), value,
                  e.unit.c_str());
    out += buf;
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <selfjoin|serve_rw|gateway_open> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  Outcome (*run)(const RunArgs&) = nullptr;
  if (args.workload == "selfjoin") run = run_selfjoin;
  if (args.workload == "serve_rw") run = run_serve_rw;
  if (args.workload == "gateway_open") run = run_gateway_open;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // One core is left to the load generator: the pool gets nproc - 1 slots
  // (its caller counts as one of them), pinned to the library's CPUs.
  const std::size_t nproc = online_cpus();
  const CpuSplit& split = cpu_split();
  pin_current_thread(split.library);
  const fasted::Topology topo =
      fasted::Topology::custom({fasted::ExecutionDomain{split.library, -1}});
  fasted::ThreadPool::reset_global(
      std::max<std::size_t>(split.library.size(), 1), &topo);
  if (args.trace) Tracer::get().enable();
  const char* pin = std::getenv("FASTED_RZ_KERNEL");
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::string lib_cpus;
  for (const int c : split.library) {
    lib_cpus += (lib_cpus.empty() ? "" : ",") + std::to_string(c);
  }
  std::printf("env nproc=%zu pool_slots=%zu library_cpus=%s loadgen_cpu=%d "
              "FASTED_RZ_KERNEL=%s\n",
              nproc, fasted::ThreadPool::global().size(), lib_cpus.c_str(),
              split.loadgen.empty() ? -1 : split.loadgen.front(),
              pin != nullptr ? pin : "<unset>");

  const auto t0 = Clock::now();
  Outcome out = run(args);
  const double wall_s = seconds_since(t0);

  const double error_rate =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed()) /
                               static_cast<double>(out.attempted);
  out.end_to_end.add("error_rate", error_rate, "ratio",
                     "(wrong + refused + expired + failed) / attempted");
  out.end_to_end.print("end_to_end");
  if (args.trace) {
    // Per-layer self time over the whole traced run; "untraced" is wall
    // time no span covers.
    const auto self = Tracer::get().self_seconds();
    for (const char* layer :
         {kKernels, kExecutor, kService, kCorpus, kGateway, kData, kBench}) {
      const auto it = self.find(layer);
      out.layers.add(std::string("self.") + layer + "_s",
                     it == self.end() ? 0.0 : it->second, "s",
                     "span self time (concurrent spans add up)");
    }
    out.layers.add("self.untraced_s", wall_s - Tracer::get().covered_seconds(),
                   "s", "wall time no span covers");
    const std::size_t spans = Tracer::get().spans().size();
    if (!args.trace_out.empty() && !Tracer::get().write(args.trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    // What one span costs, to set against the traced run's end-to-end
    // numbers (after the trace is written, so these spans stay out of it).
    constexpr int kCostSpans = 10000;
    const auto c0 = Clock::now();
    for (int i = 0; i < kCostSpans; ++i) SpanScope cost("trace.cost", kBench);
    out.layers.add("trace.span_ns", 1e9 * seconds_since(c0) / kCostSpans, "ns",
                   "open + close of one span");
    out.layers.add("trace.spans", static_cast<double>(spans), "count");
    out.layers.print("layer");
  }
  std::printf("result attempted=%llu failed=%llu wrong=%llu wall_s=%.3f\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed()),
              static_cast<unsigned long long>(out.wrong), wall_s);

  std::string e2e, layers;
  json_metrics(out.end_to_end, e2e);
  json_metrics(out.layers, layers);
  // Refused or expired requests count as failed, but only a wrong answer
  // makes the run incorrect.
  const bool correct = out.attempted > 0 && out.wrong == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"end_to_end\":{%s},\"per_layer\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed()), e2e.c_str(),
              layers.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
