// The benchmark's workloads.  Each builds its inputs from the run's seed,
// drives the library through public calls only, checks every answer it
// samples against a scalar-kernel oracle, and fills an Outcome.
//
// End-to-end metrics every workload reports:
//   setup_s          median of kSetups full set-ups (generate, prepare,
//                    calibrate) before the first timed operation
//   peak_rss_mb      peak resident memory of the run
//   p50_us, p99_us   the workload's primary operation
//   op2.p50_us, op2.p99_us   its second operation
//   capacity_per_s   the workload's throughput figure
// BENCHMARK.json gates setup_s, peak_rss_mb, p50_us and op2.p50_us.
// README.md maps each to the workload's own name (read_p50_us,
// append_p50_us, max_qps, ...), which the run prints alongside.

#pragma once

#include <vector>

#include "common.hpp"

namespace perfbench {

// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

struct SetupTimes {
  std::vector<double> total, generate, calibrate;  // seconds, per set-up
};

// Builds a workload's inputs kSetups times, releasing each before the
// next, and returns the last.  `Inputs` records its own generate_s and
// calibrate_s.
template <typename Inputs, typename SetUp>
Inputs set_up_repeatedly(SetUp&& set_up, SetupTimes& times) {
  Inputs in;
  for (int k = 0; k < kSetups; ++k) {
    in = Inputs{};
    const auto t0 = Clock::now();
    in = set_up();
    times.total.push_back(seconds_since(t0));
    times.generate.push_back(in.generate_s);
    times.calibrate.push_back(in.calibrate_s);
  }
  return in;
}

Outcome run_selfjoin(const RunArgs& args);
Outcome run_serve_rw(const RunArgs& args);
Outcome run_gateway_open(const RunArgs& args);

}  // namespace perfbench
