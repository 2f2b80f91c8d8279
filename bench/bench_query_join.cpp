// Query-service throughput microbench: queries/s of the corpus-resident
// query join across batch sizes, against the cold path that re-prepares the
// corpus per request.  The gap is the point of the resident corpus (a
// one-shard ShardedCorpus) — the FP16 conversion + norm precompute
// (+ calibration) amortize across batches.
//
//   bench_query_join [corpus_n] [dims] [batches]   (defaults 4096 64 4)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench_util.hpp"
#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"

using namespace fasted;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t corpus_n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;
  const std::size_t dims = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 64;
  const std::size_t batches =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;

  bench::header("Query-join service throughput",
                "service subsystem (no paper figure): corpus-resident "
                "batched query joins");
  std::printf("corpus: %zu points x %zu dims, %zu batches per size\n\n",
              corpus_n, dims, batches);

  const auto corpus = data::uniform(corpus_n, dims, 42);
  const float eps = data::calibrate_epsilon(corpus, 64.0).eps;
  std::printf("eps=%.5g (selectivity 64)\n\n", eps);

  auto t0 = std::chrono::steady_clock::now();
  service::JoinService svc(
      std::make_shared<service::ShardedCorpus>(MatrixF32(corpus)));
  const double ingest_s = seconds_since(t0);
  std::printf("corpus ingest (FP16 + norms + panels, paid once): %.4f s\n\n",
              ingest_s);

  std::printf("%-10s %14s %14s %16s %16s\n", "batch", "resident q/s",
              "cold q/s", "modeled q/s", "pairs/batch");
  for (const std::size_t batch : {64ull, 256ull, 1024ull}) {
    // Resident: the corpus's prepared shard serves every batch.
    double resident_s = 0;
    double modeled_s = 0;
    std::uint64_t pairs = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      service::EpsQuery request;
      request.points = data::uniform(batch, dims, 1000 + b);
      request.eps = eps;
      t0 = std::chrono::steady_clock::now();
      const auto out = svc.eps_join(request);
      resident_s += seconds_since(t0);
      modeled_s += out.timing.total_s();
      pairs = out.pair_count;
    }

    // Cold: re-quantize and re-precompute the corpus per batch, as an
    // engine without a resident corpus must.
    double cold_s = 0;
    FastedEngine engine;
    for (std::size_t b = 0; b < batches; ++b) {
      const auto queries = data::uniform(batch, dims, 1000 + b);
      t0 = std::chrono::steady_clock::now();
      const PreparedDataset corpus_again(corpus);
      (void)engine.query_join(queries, corpus_again, eps);
      cold_s += seconds_since(t0);
    }

    const double served = static_cast<double>(batch * batches);
    std::printf("%-10zu %14.0f %14.0f %16.0f %16llu\n", batch,
                served / resident_s, served / cold_s, served / modeled_s,
                static_cast<unsigned long long>(pairs));
  }

  bench::note("resident vs cold isolates the resident-corpus amortization; "
              "modeled q/s is the A100 timing model with corpus legs "
              "amortized");
  return 0;
}
