// AVX-512F rz_dot variant: the RZ chain kept in the double domain.
//
// Each packed panel column is widened to 8 doubles once and shared by every
// query chain in flight; one chain step is then an fma and an AND:
//
//   acc = fma_pd(double(q[k]), col, acc) & ~(2^29 - 1)
//
// Why that is add_rz (common/rounding.hpp), bit for bit, on FP16-exact
// inputs:
//  * the product of two FP16-exact values has at most 22 significant bits,
//    so it is exact in double (and equal to the float product add_rz sees);
//  * the fma therefore returns RN_d(acc + p), the same double sum add_rz
//    forms before its single narrowing;
//  * every FP16-exact value is a multiple of 2^-24, so every product and
//    every truncated partial sum is a multiple of 2^-48, and a product
//    is at most 65504^2 < 2^32, so nonzero partial sums stay within
//    [2^-48, FLT_MAX) for any dims below 2^96.  In that range a double's
//    exponent is a normal float exponent, and clearing the low 29 of its
//    52 mantissa bits truncates the significand to FP32's 24 bits: exactly
//    RZ_f.  The final cvtpd_ps is then exact.
// Outside that range (inputs that are not FP16-exact, or a sum at or past
// FLT_MAX, where add_rz clamps) the mask chain is NOT add_rz; the kernel
// contract (rz_dot.hpp) only admits FP16-exact inputs.
//
// The chain latency is fma + and (~5 cycles) instead of cvt + add + cvt
// (~18), and kQueryBlock chains share every widened column (or, for one
// query row, up to kMultiPanel chains share every query element).  The AND
// goes through integer casts because _mm512_and_pd needs AVX512DQ and this
// file is built with -mavx512f only (see CMakeLists.txt); elsewhere it is a
// nullptr stub.  Bit-identity with the scalar chain is property-tested in
// tests/core/kernels_test.cpp.

#include "core/kernels/rz_dot.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

namespace fasted::kernels {
namespace {

// Truncates each double lane's significand to FP32 precision (toward zero).
inline __m512d truncate_to_f32(__m512d x) {
  const __m512i keep = _mm512_set1_epi64(~((std::int64_t{1} << 29) - 1));
  return _mm512_castsi512_pd(_mm512_and_epi64(_mm512_castpd_si512(x), keep));
}

// Query dimensions widened per pass (R rows of them: 4 KiB of L1 at R = 8).
inline constexpr std::size_t kChunk = 64;

// R query rows against one panel: R independent zmm chains share each
// widened column.  The query rows are widened to double a chunk at a time,
// so each step's broadcast folds into the fma as an embedded {1to8} memory
// operand instead of costing a convert and a shuffle per row and dimension
// (~1.4x at R = 8, d = 128 on a 4-core AVX-512 Xeon).
template <std::size_t R>
void chain_block(const float* q, std::size_t q_stride, const float* panel,
                 std::size_t dims, float* acc) {
  alignas(64) double qd[R][kChunk];
  __m512d a[R];
  for (std::size_t r = 0; r < R; ++r) a[r] = _mm512_setzero_pd();
  for (std::size_t k0 = 0; k0 < dims; k0 += kChunk) {
    const std::size_t n = std::min(kChunk, dims - k0);
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t k = 0; k < n; ++k) qd[r][k] = q[r * q_stride + k0 + k];
    }
    const float* cols = panel + k0 * kPanelWidth;
    for (std::size_t k = 0; k < n; ++k) {
      const __m512d col =
          _mm512_cvtps_pd(_mm256_loadu_ps(cols + k * kPanelWidth));
      for (std::size_t r = 0; r < R; ++r) {
        const __m512d qk = _mm512_set1_pd(qd[r][k]);
        a[r] = truncate_to_f32(_mm512_fmadd_pd(qk, col, a[r]));
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    _mm256_storeu_ps(acc + r * kPanelWidth, _mm512_cvtpd_ps(a[r]));
  }
}

using BlockFn = void (*)(const float*, std::size_t, const float*, std::size_t,
                         float*);

template <std::size_t... I>
constexpr std::array<BlockFn, sizeof...(I)> make_blocks(
    std::index_sequence<I...>) {
  return {&chain_block<I + 1>...};
}

// kBlocks[n - 1] runs n chains in one pass over the panel, n <= kQueryBlock.
constexpr auto kBlocks = make_blocks(std::make_index_sequence<kQueryBlock>{});

void dot_panel_avx512(const float* q, std::size_t q_stride, std::size_t nq,
                      const float* panel, std::size_t dims, float* acc) {
  kBlocks[nq - 1](q, q_stride, panel, dims, acc);
}

// One query row against P consecutive panels: P independent zmm chains, one
// per panel, share each broadcast query element (so the broadcast is paid
// once per dimension and needs no pre-widened copy).
template <std::size_t P>
void row_block(const float* q, const float* panels, std::size_t dims,
               float* acc) {
  const std::size_t panel_floats = dims * kPanelWidth;
  __m512d a[P];
  for (std::size_t p = 0; p < P; ++p) a[p] = _mm512_setzero_pd();
  for (std::size_t k = 0; k < dims; ++k) {
    const __m512d qk = _mm512_set1_pd(q[k]);
    const float* cols = panels + k * kPanelWidth;
    for (std::size_t p = 0; p < P; ++p) {
      const __m512d col =
          _mm512_cvtps_pd(_mm256_loadu_ps(cols + p * panel_floats));
      a[p] = truncate_to_f32(_mm512_fmadd_pd(qk, col, a[p]));
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    _mm256_storeu_ps(acc + p * kPanelWidth, _mm512_cvtpd_ps(a[p]));
  }
}

using RowFn = void (*)(const float*, const float*, std::size_t, float*);

template <std::size_t... I>
constexpr std::array<RowFn, sizeof...(I)> make_rows(
    std::index_sequence<I...>) {
  return {&row_block<I + 1>...};
}

// kRows[n - 1] runs one query row against n panels, n <= kMultiPanel.
constexpr auto kRows = make_rows(std::make_index_sequence<kMultiPanel>{});

void dot_row_avx512(const float* q, const float* panels, std::size_t npanels,
                    std::size_t dims, float* acc) {
  kRows[npanels - 1](q, panels, dims, acc);
}

const RzDotKernel kAvx512{"avx512", &dot_panel_avx512, &dot_row_avx512};

}  // namespace

const RzDotKernel* rz_dot_avx512() {
  return __builtin_cpu_supports("avx512f") ? &kAvx512 : nullptr;
}

}  // namespace fasted::kernels

#else  // !__AVX512F__

namespace fasted::kernels {
const RzDotKernel* rz_dot_avx512() { return nullptr; }
}  // namespace fasted::kernels

#endif
