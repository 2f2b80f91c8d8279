// A corpus resident in a long-lived serving session.
//
// Production query traffic joins a stream of query batches against the same
// corpus; the per-corpus work — FP16 quantization, squared-norm precompute
// (Step 1), grid index construction, selectivity calibration — must be paid
// once at ingest and amortized across every request.  CorpusSession owns the
// corpus and caches exactly those artifacts:
//
//   * PreparedDataset   FP16 data + dequantized values + RZ squared norms
//                       + resident rz_dot panels
//   * eps calibration   selectivity target -> search radius (sampled once
//                       per distinct target, then served from cache)
//   * GridIndex         one per distinct eps, for candidate pruning clients
//                       (the dense tile kernel itself does not prune — that
//                       is what keeps it bit-exact with self_join)
//
// Cache lookups are thread-safe; the returned references stay valid for the
// session's lifetime (entries are never evicted).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/matrix.hpp"
#include "core/fasted.hpp"
#include "index/grid_index.hpp"

namespace fasted::service {

struct SessionStats {
  std::uint64_t calibration_hits = 0;
  std::uint64_t calibration_misses = 0;
  std::uint64_t grid_hits = 0;
  std::uint64_t grid_misses = 0;
};

class CorpusSession {
 public:
  // Takes ownership of the corpus and pays the ingest cost up front.
  explicit CorpusSession(MatrixF32 corpus);

  CorpusSession(const CorpusSession&) = delete;
  CorpusSession& operator=(const CorpusSession&) = delete;

  std::size_t size() const { return corpus_.rows(); }
  std::size_t dims() const { return corpus_.dims(); }

  const MatrixF32& corpus() const { return corpus_; }
  const PreparedDataset& prepared() const { return prepared_; }

  // Search radius whose self-join selectivity over this corpus hits
  // `target` (paper Sec. 4.1.3), estimated from a sample on first use and
  // cached per distinct target thereafter.
  float eps_for_selectivity(double target);

  // Grid index over the corpus at cell width eps, built on first use and
  // cached per distinct eps.  Valid for the session's lifetime.
  const index::GridIndex& grid_at(float eps);

  SessionStats stats() const;

 private:
  MatrixF32 corpus_;
  PreparedDataset prepared_;

  mutable std::mutex mutex_;  // guards the caches and stats below
  std::map<double, float> calibration_;
  std::map<float, std::unique_ptr<index::GridIndex>> grids_;
  SessionStats stats_;
};

}  // namespace fasted::service
