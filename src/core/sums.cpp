#include "core/sums.hpp"

#include "common/fp16.hpp"
#include "common/parallel.hpp"
#include "common/rounding.hpp"

namespace fasted {

namespace {

// Below this many rows the norms run inline.  Measured on a 4-core Xeon
// with parked workers: 16 sift-like rows take 23 us inline against 32 us
// (p90 46 us) through a fork-join.
constexpr std::size_t kInlineNormRows = 64;

}  // namespace

std::vector<float> squared_norms_fp16_rz(const MatrixF16& data) {
  std::vector<float> s(data.rows());
  squared_norms_fp16_rz(data, 0, data.rows(), s.data());
  return s;
}

void squared_norms_fp16_rz(const MatrixF16& data, std::size_t begin,
                           std::size_t end, float* out) {
  const auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Fp16* p = data.row(i);
      float acc = 0.0f;
      for (std::size_t k = 0; k < data.dims(); ++k) {
        acc = add_rz(acc, Fp16::mul_exact(p[k], p[k]));
      }
      out[i - begin] = acc;
    }
  };
  if (end - begin < kInlineNormRows) {
    body(begin, end);
  } else {
    parallel_for(begin, end, body);
  }
}

std::vector<float> squared_norms_fp32(const MatrixF32& data) {
  std::vector<float> s(data.rows());
  parallel_for(0, data.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const float* p = data.row(i);
      float acc = 0.0f;
      for (std::size_t k = 0; k < data.dims(); ++k) acc += p[k] * p[k];
      s[i] = acc;
    }
  });
  return s;
}

std::vector<double> squared_norms_fp64(const MatrixF64& data) {
  std::vector<double> s(data.rows());
  parallel_for(0, data.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double* p = data.row(i);
      double acc = 0.0;
      for (std::size_t k = 0; k < data.dims(); ++k) acc += p[k] * p[k];
      s[i] = acc;
    }
  });
  return s;
}

}  // namespace fasted
