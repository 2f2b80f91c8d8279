// gateway_open: many independent users in front of a coalescing gateway.
//
// The run's main thread submits 1-row eps requests to default-option
// BatchGateways and one collector thread completes them.  The corpus is
// SIFT-like rows in 4 shards with an explicit radius from
// data::calibrate_epsilon (no service calibration).  Four fixed-load
// phases, interleaved in slices:
//   lo, hi    open loop on a seeded Poisson schedule; latency runs from each
//             request's INTENDED send time, so a stall charges every
//             request queued behind it.  `lo` is about half of what direct
//             serving sustains, `hi` more than direct serving sustains.
//   closed1, closed8   closed loops keeping 1 request, or a full default
//             window, in flight: the gated latencies, because an open loop
//             turns a slow stretch of a shared host into a queue.
// Then max_qps, the highest open-loop rate whose p99 stays within
// kLatencyLimit with refusals counted as misses, bisected above `hi`.  Here
// admission, windowing and shared strip drains do the work that selfjoin
// and serve_rw never reach.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common/parallel.hpp"
#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "probes.hpp"
#include "serve/batch_gateway.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using fasted::serve::BatchGateway;
using fasted::service::JoinService;
using fasted::service::ShardedCorpus;

constexpr std::size_t kRows = 32768;
constexpr std::size_t kShards = 4;
constexpr double kSelectivity = 64;
constexpr std::size_t kQueryPool = 256;  // distinct request rows, cycled
constexpr double kLoRate = 200;          // requests/s
constexpr double kHiRate = 450;
// Closed-loop phases keep 1 request, or a default window's worth, in flight.
constexpr std::uint64_t kWindowRequests = 8;
constexpr double kLatencyLimit = 0.050;  // s, on p99, for max_qps
constexpr double kMaxRateFactor = 16;    // bisection ceiling: 16 x hi
constexpr double kResolution = 1.05;     // bisection stops at 5%
// Open-loop phases whose generator ran later than this (p99) measured the
// generator, not the gateway: their figures are withheld.  The closed-loop
// phases follow no schedule, so lateness cannot distort them.
constexpr double kMaxLateMs = 5.0;

struct Inputs {
  fasted::MatrixF32 data;
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
    in.generate_s = seconds_since(t0);
  }
  {
    SpanScope span("corpus.build", kCorpus);
    fasted::service::ShardedCorpusOptions opts;
    opts.shards = kShards;
    in.corpus = std::make_shared<ShardedCorpus>(in.data, opts);
  }
  {
    SpanScope span("service.construct", kService);
    in.service = std::make_shared<JoinService>(in.corpus);
  }
  {
    SpanScope span("data.calibrate_epsilon", kData);
    const auto t0 = Clock::now();
    in.eps = fasted::data::calibrate_epsilon(in.data, kSelectivity, seed).eps;
    in.calibrate_s = seconds_since(t0);
  }
  return in;
}

// One submitted request on its way to the collector.
struct InFlight {
  BatchGateway::TicketPtr ticket;
  Clock::time_point intended;
  std::size_t query;
  std::int64_t span;  // the request's trace span, -1 when untraced
};

// The completing side of the load generator: one thread, created before
// any timed region and reused by every phase.  Waits on tickets in
// submission order.
class Collector {
 public:
  explicit Collector(const std::vector<std::uint64_t>& expected)
      : expected_(expected) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(InFlight f) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(f));
      ++pushed_;
    }
    cv_.notify_all();
  }

  std::uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }

  struct Results {
    std::vector<double> latency_s;  // served and verified
    std::uint64_t wrong = 0;        // served with the wrong pair count
    std::uint64_t unserved = 0;     // expired or failed
  };
  // Waits for every pushed request to complete; returns and resets the
  // results gathered since the previous call.
  Results drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return completed_ == pushed_; });
    Results r = std::move(results_);
    results_ = Results{};
    return r;
  }

 private:
  void loop() {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        f = std::move(queue_.front());
        queue_.pop_front();
      }
      const BatchGateway::Response& resp = f.ticket->wait();
      const auto done = Clock::now();
      if (f.span >= 0) Tracer::get().close(f.span, done);
      std::lock_guard<std::mutex> lock(mutex_);
      if (resp.state != fasted::serve::RequestState::kDone) {
        ++results_.unserved;
      } else if (resp.eps.pair_count != expected_[f.query]) {
        ++results_.wrong;
      } else {
        results_.latency_s.push_back(seconds_between(f.intended, done));
      }
      completed_.fetch_add(1, std::memory_order_release);
      done_cv_.notify_all();
    }
  }

  const std::vector<std::uint64_t>& expected_;
  std::mutex mutex_;  // guards everything below
  std::condition_variable cv_, done_cv_;
  std::deque<InFlight> queue_;
  Results results_;
  std::uint64_t pushed_ = 0;
  // Written under mutex_ (the drain predicate reads it there); atomic so a
  // closed-loop generator can poll it without the lock.
  std::atomic<std::uint64_t> completed_{0};
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member is live
};

struct PhaseResult {
  double rate = 0;
  std::uint64_t offered = 0;  // scheduled arrivals
  std::uint64_t refused = 0;  // try_submit returned nullptr
  Collector::Results done;
  std::vector<double> late_ms;   // actual - intended submit time
  std::vector<double> submit_us;  // try_submit call time
  std::vector<fasted::serve::GatewayStats> stats;  // one per gateway run

  // Folds another slice at the same rate into this one.
  void absorb(PhaseResult&& o) {
    offered += o.offered;
    refused += o.refused;
    done.wrong += o.done.wrong;
    done.unserved += o.done.unserved;
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(done.latency_s, o.done.latency_s);
    append(late_ms, o.late_ms);
    append(submit_us, o.submit_us);
    stats.insert(stats.end(), o.stats.begin(), o.stats.end());
  }

  std::uint64_t misses(double limit) const {
    std::uint64_t m = refused + done.wrong + done.unserved;
    for (const double s : done.latency_s) m += s > limit ? 1 : 0;
    return m;
  }
  // Latency quantile with every refused, unserved or wrong request counted
  // as infinitely late.
  double latency_q(double q) const {
    std::vector<double> all = done.latency_s;
    all.resize(offered, std::numeric_limits<double>::infinity());
    return quantile(all, q);
  }
};

// Sends one request for pool row `row`, due at `intended`, and hands it to
// the collector; false when the gateway refused it.
bool submit(BatchGateway& gateway, Collector& collector,
            const fasted::MatrixF32& pool, std::size_t row, float eps,
            Clock::time_point intended, std::uint64_t& next_request,
            PhaseResult& r) {
  fasted::service::EpsQuery q;
  q.points = fasted::MatrixF32(1, pool.dims());
  std::copy_n(pool.row(row), pool.stride(), q.points.row(0));
  q.eps = eps;
  const std::uint64_t id = ++next_request;
  const auto t0 = Clock::now();
  r.late_ms.push_back(1e3 * seconds_between(intended, t0));
  // The request's span runs from its intended send time to completion on
  // the collector; try_submit is its child.
  const std::int64_t span =
      Tracer::get().enabled()
          ? Tracer::get().open("gateway.request", kGateway, id, intended)
          : -1;
  BatchGateway::TicketPtr ticket;
  {
    SpanScope submit_span("gateway.try_submit", kGateway, id);
    ticket = gateway.try_submit(std::move(q));
  }
  r.submit_us.push_back(1e6 * seconds_since(t0));
  ++r.offered;
  if (span >= 0) Tracer::get().detach(span);
  if (!ticket) {
    if (span >= 0) Tracer::get().close(span);
    ++r.refused;
    return false;
  }
  collector.push({std::move(ticket), intended, row, span});
  return true;
}

// Open loop: `rate` requests/s on a seeded Poisson schedule for `seconds`,
// against a gateway created (and its dispatcher started) before the timed
// region; then waits for the backlog.
PhaseResult run_open(const std::shared_ptr<JoinService>& service,
                     Collector& collector, const fasted::MatrixF32& pool,
                     float eps, double rate, double seconds,
                     std::mt19937_64& rng, std::uint64_t& next_request) {
  PhaseResult r;
  r.rate = rate;
  BatchGateway gateway(service);  // default options, dispatcher running
  // The schedule and request payloads are fixed before timing starts.
  std::exponential_distribution<double> gap(rate);
  std::vector<double> at;
  for (double t = gap(rng); t < seconds; t += gap(rng)) at.push_back(t);
  std::vector<std::size_t> which(at.size());
  for (auto& w : which) w = rng() % pool.rows();

  // Generate from the load generator's CPU; the gateway's dispatcher was
  // started from the library's CPUs and inherited them.
  pin_current_thread(cpu_split().loadgen);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < at.size(); ++i) {
    const auto intended =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(at[i]));
    // Spin (yielding to the collector) rather than sleep: an idle virtual
    // CPU can take milliseconds to be woken, which would make the generator,
    // not the gateway, late.
    while (Clock::now() < intended) std::this_thread::yield();
    submit(gateway, collector, pool, which[i], eps, intended, next_request, r);
  }
  pin_current_thread(cpu_split().library);
  r.done = collector.drain();
  r.stats.push_back(gateway.stats());
  return r;
}

// Closed loop: keeps `outstanding` requests in flight for `seconds`,
// sending the next as soon as one completes; latency runs from the send.
PhaseResult run_closed(const std::shared_ptr<JoinService>& service,
                       Collector& collector, const fasted::MatrixF32& pool,
                       float eps, std::uint64_t outstanding, double seconds,
                       std::mt19937_64& rng, std::uint64_t& next_request) {
  PhaseResult r;
  BatchGateway gateway(service);
  pin_current_thread(cpu_split().loadgen);
  const std::uint64_t base = collector.completed();
  std::uint64_t sent = 0;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    if (sent - (collector.completed() - base) >= outstanding) {
      std::this_thread::yield();
      continue;
    }
    if (submit(gateway, collector, pool, rng() % pool.rows(), eps,
               Clock::now(), next_request, r)) {
      ++sent;
    }
  }
  pin_current_thread(cpu_split().library);
  r.done = collector.drain();
  r.stats.push_back(gateway.stats());
  return r;
}

// Median over a phase's gateway runs of one GatewayStats phase p50.
double phase_p50_us(const PhaseResult& r, const char* phase) {
  std::vector<double> p50;
  for (const auto& s : r.stats) {
    for (const auto& p : s.phase_latencies) {
      if (std::string(p.phase) == phase) {
        p50.push_back(1e-3 * static_cast<double>(p.p50_ns));
      }
    }
  }
  return median(p50);
}

}  // namespace

Outcome run_gateway_open(const RunArgs& args) {
  Outcome out;
  SetupTimes setup;
  Inputs in =
      set_up_repeatedly<Inputs>([&] { return set_up(args.seed); }, setup);

  // Request rows (drawn from the corpus) and their expected pair counts,
  // from a direct eps_join on a scalar-kernel service over the same corpus.
  std::mt19937_64 rng(args.seed ^ 0x6a7e3a1ull);
  fasted::MatrixF32 pool(kQueryPool, in.data.dims());
  for (std::size_t i = 0; i < kQueryPool; ++i) {
    std::copy_n(in.data.row(rng() % kRows), in.data.stride(), pool.row(i));
  }
  std::vector<std::uint64_t> expected(kQueryPool);
  {
    SpanScope span("oracle.gateway_open", kBench);
    fasted::FastedConfig cfg = fasted::FastedConfig::paper_defaults();
    cfg.rz_kernel = "scalar";
    JoinService oracle(in.corpus, fasted::FastedEngine(cfg));
    fasted::service::EpsQuery q;
    q.points = pool;
    q.eps = in.eps;
    const auto r = oracle.eps_join(q);
    for (std::size_t i = 0; i < kQueryPool; ++i) {
      expected[i] = r.result.degree(i);
    }
  }

  // The collector thread inherits the load generator's CPU.
  pin_current_thread(cpu_split().loadgen);
  Collector collector(expected);
  pin_current_thread(cpu_split().library);
  std::uint64_t next_request = 0;
  auto open = [&](double rate, double seconds) {
    return run_open(in.service, collector, pool, in.eps, rate, seconds, rng,
                    next_request);
  };
  auto closed = [&](std::uint64_t outstanding, double seconds) {
    return run_closed(in.service, collector, pool, in.eps, outstanding,
                      seconds, rng, next_request);
  };
  // Run time split: half for the fixed-load phases, half for up to
  // kMaxProbes bisection probes.  The four fixed-load phases alternate in
  // kSlices slices each, so a stretch of load from outside the run lands on
  // all of them rather than on one.
  constexpr int kMaxProbes = 12;
  constexpr int kSlices = 4;
  const double slice_s = 0.5 * args.seconds / (4 * kSlices);
  const double probe_s = 0.5 * args.seconds / kMaxProbes;

  PhaseResult lo, hi, single, full;
  lo.rate = kLoRate;
  hi.rate = kHiRate;
  for (int s = 0; s < kSlices; ++s) {
    lo.absorb(open(kLoRate, slice_s));
    hi.absorb(open(kHiRate, slice_s));
    single.absorb(closed(1, slice_s));
    full.absorb(closed(kWindowRequests, slice_s));
  }

  // max_qps: double from hi until a rate misses, then bisect to 5%.
  auto passes = [&](const PhaseResult& p) {
    return p.offered > 0 &&
           static_cast<double>(p.misses(kLatencyLimit)) <=
               0.01 * static_cast<double>(p.offered);
  };
  std::vector<PhaseResult> probes;
  // A rate passes when either of two probes at it passes: one stall from
  // outside the run must not set the capacity.
  auto rate_passes = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (static_cast<int>(probes.size()) == kMaxProbes) break;
      probes.push_back(open(rate, probe_s));
      if (passes(probes.back())) return true;
    }
    return false;
  };
  // Bracket [good, bad]: good is the highest rate seen to pass, bad the
  // lowest seen to miss (0: none yet, keep doubling).
  double good = passes(hi) ? kHiRate : passes(lo) ? kLoRate : 0;
  double bad = good == kHiRate ? 0 : kHiRate;
  while (good > 0 && static_cast<int>(probes.size()) < kMaxProbes) {
    double rate;
    if (bad == 0) {
      rate = std::min(2 * good, kMaxRateFactor * kHiRate);
    } else {
      if (good * kResolution >= bad) break;
      rate = std::sqrt(good * bad);
    }
    if (rate_passes(rate)) {
      good = rate;
      if (rate >= kMaxRateFactor * kHiRate) break;
    } else {
      bad = rate;
    }
  }
  const double max_qps = good;

  // The fixed-load phases are the reported ones: their errors count.
  for (const PhaseResult* p : {&lo, &hi, &single, &full}) {
    out.attempted += p->offered;
    out.wrong += p->done.wrong;
    out.shed += p->refused + p->done.unserved;
  }
  for (const PhaseResult& p : probes) {
    // Probes above capacity are refused by design; wrong answers still fail.
    out.attempted += p.offered - p.refused;
    out.wrong += p.done.wrong;
  }
  std::vector<double> late = lo.late_ms;
  late.insert(late.end(), hi.late_ms.begin(), hi.late_ms.end());
  const double late_p99 = quantile(late, 0.99);
  const bool open_valid = late_p99 <= kMaxLateMs;
  if (!open_valid) {
    std::printf("INVALID open loop: the load generator ran %.3f ms late "
                "(p99) at the fixed rates; lo, hi and max_qps withheld\n",
                late_p99);
  } else if (max_qps == 0) {
    std::printf("max_qps below %.0f req/s: neither fixed rate kept p99 "
                "within %.0f ms; max_qps withheld\n",
                kLoRate, 1e3 * kLatencyLimit);
  }

  Report& e = out.end_to_end;
  e.add("setup_s", median(setup.total), "s",
        "generate + corpus + service + calibrate_epsilon");
  e.add("peak_rss_mb", peak_rss_mb(), "MB");
  e.add("p50_us", 1e6 * single.latency_q(0.5), "us",
        "closed loop, 1 request in flight");
  e.add("p99_us", 1e6 * single.latency_q(0.99), "us",
        "closed loop, 1 request in flight");
  e.add("op2.p50_us", 1e6 * full.latency_q(0.5), "us",
        "closed loop, 8 requests in flight (full windows)");
  e.add("op2.p99_us", 1e6 * full.latency_q(0.99), "us",
        "closed loop, 8 requests in flight (full windows)");
  if (open_valid) {
    e.add("lo.p50_us", 1e6 * lo.latency_q(0.5), "us", "200 req/s");
    e.add("lo.p99_us", 1e6 * lo.latency_q(0.99), "us");
    e.add("hi.p50_us", 1e6 * hi.latency_q(0.5), "us", "450 req/s");
    e.add("hi.p99_us", 1e6 * hi.latency_q(0.99), "us");
    if (max_qps > 0) {
      e.add("capacity_per_s", max_qps, "1/s", "= max_qps");
      e.add("max_qps", max_qps, "1/s", "p99 <= 50 ms, refusals are misses");
    }
  }
  e.add("lo.requests", static_cast<double>(lo.offered), "count");
  e.add("hi.requests", static_cast<double>(hi.offered), "count");
  e.add("closed1.requests", static_cast<double>(single.offered), "count");
  e.add("closed8.requests", static_cast<double>(full.offered), "count");
  e.add("max_qps.probes", static_cast<double>(probes.size()), "count");
  for (const PhaseResult& p : probes) {
    std::printf("probe rate=%.1f offered=%llu refused=%llu p99_ms=%.3f %s\n",
                p.rate, static_cast<unsigned long long>(p.offered),
                static_cast<unsigned long long>(p.refused),
                1e3 * p.latency_q(0.99), passes(p) ? "pass" : "miss");
  }

  if (args.trace) {
    Report& l = out.layers;
    l.add("data.generate_s", median(setup.generate), "s");
    l.add("data.calibrate_epsilon_s", median(setup.calibrate), "s");
    const auto snap = in.corpus->snapshot();
    const auto views = ShardedCorpus::shard_views(*snap);
    const KernelCeilings k = probe_kernels(
        in.corpus->prepared(0), resolved_kernel(in.service->engine()));
    const ExecutorShapes x = probe_executor(
        in.service->engine(), std::span<const fasted::CorpusShardView>(views),
        in.corpus->prepared(0), in.eps, nullptr, 0.3);
    const std::size_t slots = fasted::ThreadPool::global().size();
    add_probe_layers(l, k, x, static_cast<double>(kRows), slots);
    double served = 0, windows = 0;
    for (const auto& s : hi.stats) {
      served += static_cast<double>(s.served);
      windows += static_cast<double>(s.windows);
    }
    l.add("gateway.submit_us", median(hi.submit_us), "us", "hi");
    l.add("gateway.coalescing_factor", windows > 0 ? served / windows : 0,
          "ratio", "hi, requests per window");
    l.add("gateway.window_fill_us", phase_p50_us(hi, "window_fill"), "us",
          "hi, p50");
    l.add("gateway.coalesced_drain_us", phase_p50_us(hi, "coalesced_drain"),
          "us", "hi, p50");
    l.add("gateway.admission_wait_us", phase_p50_us(hi, "admission_wait"),
          "us", "hi, p50");
    l.add("gateway.demux_us", phase_p50_us(hi, "demux"), "us", "hi, p50");
    // A hi request rebuilt from the gateway's phase p50s (p50s of separate
    // histograms: the sum is approximate).
    const double gw_sum = phase_p50_us(hi, "admission_wait") +
                          phase_p50_us(hi, "coalesced_drain") +
                          phase_p50_us(hi, "demux");
    l.add("adds_up.admission_drain_demux_us", gw_sum, "us",
          "compare: hi p50 " + std::to_string(1e6 * hi.latency_q(0.5)) + " us");
    std::uint64_t rejected = 0, expired = 0;
    for (const PhaseResult* p : {&lo, &hi}) {
      for (const auto& s : p->stats) {
        rejected += s.rejected;
        expired += s.expired;
      }
    }
    l.add("gateway.rejected", static_cast<double>(rejected), "count",
          "lo + hi");
    l.add("gateway.expired", static_cast<double>(expired), "count", "lo + hi");
    l.add("loadgen.late_ms", late_p99, "ms", "p99 at lo + hi");
  }
  return out;
}

}  // namespace perfbench
