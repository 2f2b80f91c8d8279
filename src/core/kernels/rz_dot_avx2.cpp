// AVX2/FMA rz_dot variant: the double-domain RZ chain of the AVX-512F
// variant (rz_dot_avx512.cpp, which carries the argument that it equals
// add_rz on FP16-exact inputs), on two 4-double halves per query row.
//
// Each panel column is widened once into two ymm halves shared by every
// chain in flight; a chain step is fmadd_pd + and_pd (AVX has the double
// AND, so no integer casts are needed here).  A query row takes two ymm
// accumulators, so one pass runs at most kSubBlock = 4 rows (8 accumulators
// + 2 column halves + broadcast + mask fit the 16 ymm registers); a full
// kQueryBlock runs as 4-row sub-blocks, since 8 rows spill.  The one-row
// entry (dot_row) runs up to kSubBlock panels per pass for the same reason.
//
// This file is compiled with -mavx2 -mfma on x86-64 (see CMakeLists.txt);
// everywhere else it degrades to a nullptr stub and dispatch stays scalar.

#include "core/kernels/rz_dot.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

namespace fasted::kernels {
namespace {

inline constexpr std::size_t kSubBlock = 4;

// Truncates each double lane's significand to FP32 precision (toward zero).
inline __m256d truncate_to_f32(__m256d x) {
  const __m256d keep = _mm256_castsi256_pd(
      _mm256_set1_epi64x(~((std::int64_t{1} << 29) - 1)));
  return _mm256_and_pd(x, keep);
}

template <std::size_t R>
void chain_block(const float* q, std::size_t q_stride, const float* panel,
                 std::size_t dims, float* acc) {
  __m256d lo[R];
  __m256d hi[R];
  for (std::size_t r = 0; r < R; ++r) {
    lo[r] = _mm256_setzero_pd();
    hi[r] = _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < dims; ++k) {
    const float* c = panel + k * kPanelWidth;
    const __m256d col_lo = _mm256_cvtps_pd(_mm_loadu_ps(c));
    const __m256d col_hi = _mm256_cvtps_pd(_mm_loadu_ps(c + 4));
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d qk = _mm256_set1_pd(q[r * q_stride + k]);
      lo[r] = truncate_to_f32(_mm256_fmadd_pd(qk, col_lo, lo[r]));
      hi[r] = truncate_to_f32(_mm256_fmadd_pd(qk, col_hi, hi[r]));
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    _mm_storeu_ps(acc + r * kPanelWidth, _mm256_cvtpd_ps(lo[r]));
    _mm_storeu_ps(acc + r * kPanelWidth + 4, _mm256_cvtpd_ps(hi[r]));
  }
}

using BlockFn = void (*)(const float*, std::size_t, const float*, std::size_t,
                         float*);

template <std::size_t... I>
constexpr std::array<BlockFn, sizeof...(I)> make_blocks(
    std::index_sequence<I...>) {
  return {&chain_block<I + 1>...};
}

// kBlocks[n - 1] runs n chains in one pass over the panel, n <= kSubBlock.
constexpr auto kBlocks = make_blocks(std::make_index_sequence<kSubBlock>{});

void dot_panel_avx2(const float* q, std::size_t q_stride, std::size_t nq,
                    const float* panel, std::size_t dims, float* acc) {
  for (std::size_t i = 0; i < nq; i += kSubBlock) {
    const std::size_t n = std::min(kSubBlock, nq - i);
    kBlocks[n - 1](q + i * q_stride, q_stride, panel, dims,
                   acc + i * kPanelWidth);
  }
}

// One query row against P <= kSubBlock consecutive panels: two ymm chains
// per panel (its low and high lane halves) share each broadcast query
// element, so 8 accumulators are in flight at P = kSubBlock.
template <std::size_t P>
void row_block(const float* q, const float* panels, std::size_t dims,
               float* acc) {
  const std::size_t panel_floats = dims * kPanelWidth;
  __m256d lo[P];
  __m256d hi[P];
  for (std::size_t p = 0; p < P; ++p) {
    lo[p] = _mm256_setzero_pd();
    hi[p] = _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < dims; ++k) {
    const __m256d qk = _mm256_set1_pd(q[k]);
    const float* cols = panels + k * kPanelWidth;
    for (std::size_t p = 0; p < P; ++p) {
      const float* c = cols + p * panel_floats;
      const __m256d col_lo = _mm256_cvtps_pd(_mm_loadu_ps(c));
      const __m256d col_hi = _mm256_cvtps_pd(_mm_loadu_ps(c + 4));
      lo[p] = truncate_to_f32(_mm256_fmadd_pd(qk, col_lo, lo[p]));
      hi[p] = truncate_to_f32(_mm256_fmadd_pd(qk, col_hi, hi[p]));
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    _mm_storeu_ps(acc + p * kPanelWidth, _mm256_cvtpd_ps(lo[p]));
    _mm_storeu_ps(acc + p * kPanelWidth + 4, _mm256_cvtpd_ps(hi[p]));
  }
}

using RowFn = void (*)(const float*, const float*, std::size_t, float*);

template <std::size_t... I>
constexpr std::array<RowFn, sizeof...(I)> make_rows(
    std::index_sequence<I...>) {
  return {&row_block<I + 1>...};
}

// kRows[n - 1] runs one query row against n panels, n <= kSubBlock.
constexpr auto kRows = make_rows(std::make_index_sequence<kSubBlock>{});

void dot_row_avx2(const float* q, const float* panels, std::size_t npanels,
                  std::size_t dims, float* acc) {
  const std::size_t panel_floats = dims * kPanelWidth;
  for (std::size_t p = 0; p < npanels; p += kSubBlock) {
    const std::size_t n = std::min(kSubBlock, npanels - p);
    kRows[n - 1](q, panels + p * panel_floats, dims, acc + p * kPanelWidth);
  }
}

const RzDotKernel kAvx2{"avx2", &dot_panel_avx2, &dot_row_avx2};

}  // namespace

const RzDotKernel* rz_dot_avx2() {
  // The TU is compiled with -mavx2 -mfma, so the compiler is licensed to
  // emit FMA anywhere in it — require both features at runtime.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
             ? &kAvx2
             : nullptr;
}

}  // namespace fasted::kernels

#else  // !(__AVX2__ && __FMA__)

namespace fasted::kernels {
const RzDotKernel* rz_dot_avx2() { return nullptr; }
}  // namespace fasted::kernels

#endif
