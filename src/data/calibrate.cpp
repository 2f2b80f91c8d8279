#include "data/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace fasted::data {

double dist2_f64(const float* a, const float* b, std::size_t dims) {
  double acc = 0;
  for (std::size_t k = 0; k < dims; ++k) {
    const double diff = static_cast<double>(a[k]) - b[k];
    acc += diff * diff;
  }
  return acc;
}

CalibrationResult calibrate_epsilon(const MatrixF32& data,
                                    double target_selectivity,
                                    std::uint64_t seed,
                                    std::size_t sample_points) {
  const std::size_t n = data.rows();
  FASTED_CHECK_MSG(n >= 2, "calibration needs at least two points");
  FASTED_CHECK_MSG(target_selectivity > 0, "selectivity must be positive");
  const std::size_t m = std::min(sample_points, n);

  // Sample query rows without replacement (reservoir-free: shuffle-pick).
  Rng rng(seed);
  std::vector<std::size_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  for (std::size_t i = 0; i < m; ++i) {
    std::swap(ids[i], ids[i + rng.next_below(n - i)]);
  }

  // All distances sample -> dataset (excluding self).  The buffer is left
  // uninitialized: every element is written below, and the parallel fill
  // is its first touch, instead of a zero-fill on the calling thread.
  const std::size_t total = m * (n - 1);
  const auto d2 = std::make_unique_for_overwrite<double[]>(total);
  parallel_for(0, m, [&](std::size_t b, std::size_t e) {
    for (std::size_t q = b; q < e; ++q) {
      const float* p = data.row(ids[q]);
      std::size_t w = q * (n - 1);
      for (std::size_t j = 0; j < n; ++j) {
        if (j == ids[q]) continue;
        d2[w++] = dist2_f64(p, data.row(j), data.dims());
      }
    }
  });

  // Quantile such that the mean neighbor count is the target selectivity.
  const double frac =
      std::min(1.0, target_selectivity / static_cast<double>(n - 1));
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(total) - 1,
                       frac * static_cast<double>(total)));
  std::nth_element(d2.get(), d2.get() + k, d2.get() + total);
  const double eps = std::sqrt(d2[k]);

  // Achieved selectivity on the sample at that eps.
  std::size_t within = 0;
  for (std::size_t i = 0; i < total; ++i) {
    if (std::sqrt(d2[i]) <= eps) ++within;
  }
  CalibrationResult r;
  r.eps = static_cast<float>(eps);
  r.achieved_selectivity =
      static_cast<double>(within) / static_cast<double>(m);
  return r;
}

double exact_selectivity(const MatrixF32& data, float eps) {
  const std::size_t n = data.rows();
  const double eps2 = static_cast<double>(eps) * eps;
  std::vector<std::uint64_t> counts(n, 0);
  parallel_for(0, n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      std::uint64_t c = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (dist2_f64(data.row(i), data.row(j), data.dims()) <= eps2) ++c;
      }
      counts[i] = c;
    }
  });
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  return static_cast<double>(total) / static_cast<double>(n);
}

}  // namespace fasted::data
