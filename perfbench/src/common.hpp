// Shared pieces of the benchmark binary: timing, order statistics, the
// metric report, and the span recorder of the traced run.
//
// Everything here lives in the benchmark, outside the library: spans are
// recorded around the benchmark's own calls into public library APIs, so the
// untraced run executes exactly the program a user runs.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

// Logical CPUs this process may run on.
std::size_t online_cpus();

// The run's CPU split: the library (its thread pool, and every thread the
// library starts, which inherits its creator's affinity) runs on all
// allowed CPUs but the last, and the load generator on the last, so a
// busy pool never delays a scheduled request.  On one CPU both share it.
struct CpuSplit {
  std::vector<int> library;
  std::vector<int> loadgen;
};
const CpuSplit& cpu_split();
// Best-effort affinity for the calling thread; false when refused.
bool pin_current_thread(const std::vector<int>& cpus);

// Command-line inputs of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // chrome-trace JSON written when the run ends
};

// Named metrics in insertion order.  The human-readable lines carry every
// metric a workload measures; the final JSON line carries the ones the
// benchmark manifest lists for the run's mode.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void print(const char* section) const;

  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

// Outcome of one workload run.
struct Outcome {
  Report end_to_end;  // every user-visible metric of the workload
  Report layers;      // traced run only: the per-layer ledger
  std::uint64_t attempted = 0;
  std::uint64_t wrong = 0;  // answers the oracle rejected: the run fails
  std::uint64_t shed = 0;   // refused, expired or unserved requests
  std::uint64_t failed() const { return wrong + shed; }
};

// --- Span recorder ----------------------------------------------------------
//
// One span per call into a layer: name, layer, start, end, parent span and
// request id.  Spans are kept in memory and written out when the run ends.
// Recording is off unless the run is traced; a disabled scope costs one
// branch.

struct Span {
  const char* name;
  const char* layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  // index into the span list, -1 for a root
  std::uint64_t request;
  std::uint64_t thread;
};

class Tracer {
 public:
  static Tracer& get();

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread (its parent is the thread's
  // innermost open span, and it becomes the parent of spans the thread
  // opens next); returns its id.
  std::int64_t open(const char* name, const char* layer,
                    std::uint64_t request,
                    Clock::time_point start = Clock::now());
  // Ends a span.  Any thread may end it (a request submitted on one thread
  // completes on another); the opening thread calls detach() first.
  void close(std::int64_t id, Clock::time_point end = Clock::now());
  // Stops the calling thread from parenting new spans under `id` without
  // ending it.
  void detach(std::int64_t id);

  std::vector<Span> spans() const;

  // Self time per layer: each span's duration minus the part of it its
  // child spans cover, summed by layer (seconds).
  std::map<std::string, double> self_seconds() const;
  // Wall time covered by at least one span (seconds).
  double covered_seconds() const;
  // Writes every span as Chrome trace-event JSON.  Returns false on I/O
  // failure.
  bool write(const std::string& path) const;

 private:
  Tracer();
  std::int64_t ns(Clock::time_point t) const;  // since epoch_

  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(const char* name, const char* layer, std::uint64_t request = 0)
      : id_(Tracer::get().enabled() ? Tracer::get().open(name, layer, request)
                                    : -1) {}
  ~SpanScope() {
    if (id_ >= 0) Tracer::get().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t id_;
};

// Layer names, as the library's modules are named.  The sink runs inside
// the executor's calls, so it has no span of its own: its time is measured
// as a difference (sink.csr_s).
inline constexpr const char* kKernels = "kernels";
inline constexpr const char* kExecutor = "executor";
inline constexpr const char* kService = "service";
inline constexpr const char* kCorpus = "corpus";
inline constexpr const char* kGateway = "gateway";
inline constexpr const char* kData = "data";
// Benchmark-side work that is no layer of the program (the oracle, load
// generation bookkeeping).
inline constexpr const char* kBench = "bench";

}  // namespace perfbench
