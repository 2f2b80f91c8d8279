// The rz_dot kernel family: the one hot loop of the whole system.
//
// Every distance FaSTED produces — self-join, strip-batched join, resident
// query join, kNN straggler sweeps — reduces to the same primitive: the
// inner product of two FP16-exact rows accumulated in FP32 with
// round-toward-zero, term by term, in ascending dimension order (the
// tensor-core chain of common/rounding.hpp).  This header is the single
// home of that primitive.
//
// Numerical contract: on FP16-exact inputs every product is exact, and each
// step is add_rz(acc, p) = RZ_f(RN_d(acc + p)) — the double sum rounds to
// nearest (it is not exact in general), then a single truncation to FP32.
// Inputs that are not FP16-exact are outside the contract.
//
// Shape: one call evaluates a small dense block — up to kQueryBlock query
// rows against a packed panel of kPanelWidth corpus rows — because the RZ
// chain is a serial data dependency per pair and the only way to go faster
// is to run many independent chains at once.  A single query row (point
// queries, 1-row tiles) has only one chain per panel, so a second entry
// runs it against up to kMultiPanel consecutive panels instead, one chain
// per panel in flight.  The scalar reference keeps one chain per
// (query, corpus) cell.  The SIMD variants keep the chain in the double
// domain: each panel column is widened once and shared by every query
// chain, and a step is an fma followed by an AND that truncates the
// significand to 24 bits (rz_dot_avx512.cpp gives the argument that this is
// add_rz on FP16-exact inputs).  AVX-512F runs the kPanelWidth lanes of a
// chain as one zmm; AVX2/FMA as two ymm halves.  All variants are
// bit-identical to the sequential add_rz chain for every pair, through both
// entries — property-tested on randomized dims/strides/tails and
// adversarial values in tests/core/kernels_test.cpp.
//
// Corpus rows are packed column-interleaved (pack_panel) so the inner loop
// issues one contiguous load per dimension.  A prepared corpus packs its
// panels once, when it is built (PreparedDataset::panels()), and every join
// reads them in place: no query pays for a pack.  The layout costs one
// extra float copy of the prepared rows.

#pragma once

#include <cmath>
#include <cstddef>

#include "common/rounding.hpp"

namespace fasted::kernels {

// The epilogue combine (paper Step 3): dist^2 = -2*a + s_i + s_j in FP32,
// applied to every rz_dot accumulator.
inline float epilogue_dist2(float a, float si, float sj) {
  return std::fma(-2.0f, a, si + sj);
}

// The single-pair scalar chain — the semantic definition every panel kernel
// must reproduce lane-for-lane, and the reference the property tests use.
inline float rz_dot_pair(const float* a, const float* b, std::size_t dims) {
  float acc = 0.0f;
  for (std::size_t k = 0; k < dims; ++k) {
    // a/b hold FP16-exact values, so the float product is exact; the
    // accumulation rounds toward zero like the tensor core (add_rz).
    acc = add_rz(acc, a[k] * b[k]);
  }
  return acc;
}

// Corpus rows per packed panel (SIMD lanes of one chain group).
inline constexpr std::size_t kPanelWidth = 8;
// Max query rows evaluated per call (independent chain groups in flight,
// sharing every panel column load — enough to hide the fma + and latency
// of a single chain).
inline constexpr std::size_t kQueryBlock = 8;

// Computes acc[qi * kPanelWidth + r] = RZ-chain dot product of query row qi
// (rows `q`, `q + q_stride`, ... for `nq` rows, 1 <= nq <= kQueryBlock)
// with panel row r, over `dims` dimensions.  All kPanelWidth lanes are
// produced; lanes packed from fewer than kPanelWidth rows hold the dot
// against a zero row (exactly 0.0f).
using RzDotPanelFn = void (*)(const float* q, std::size_t q_stride,
                              std::size_t nq, const float* panel,
                              std::size_t dims, float* acc);

// Max consecutive panels one query row is evaluated against per call.
inline constexpr std::size_t kMultiPanel = 8;

// Computes acc[p * kPanelWidth + r] = RZ-chain dot product of the query row
// `q` with row r of panel p, for `npanels` consecutive packed panels
// (1 <= npanels <= kMultiPanel) starting at `panels`; panel p starts at
// panels + p * dims * kPanelWidth.  Lanes are as for RzDotPanelFn.
using RzDotRowFn = void (*)(const float* q, const float* panels,
                            std::size_t npanels, std::size_t dims,
                            float* acc);

struct RzDotKernel {
  const char* name;  // "scalar", "avx2", "avx512"
  RzDotPanelFn dot_panel;
  RzDotRowFn dot_row;  // the one-query-row shape
};

// Packs `nrows` (<= kPanelWidth) consecutive rows starting at `rows` with
// stride `row_stride` into the column-interleaved layout
// panel[k * kPanelWidth + r] = rows[r * row_stride + k]; lanes >= nrows are
// zero-filled.  `panel` must hold dims * kPanelWidth floats.
void pack_panel(const float* rows, std::size_t row_stride, std::size_t nrows,
                std::size_t dims, float* panel);

// The scalar reference (always available; the bit-exactness oracle).
const RzDotKernel& rz_dot_scalar();

// SIMD variants; nullptr when the build or the running CPU lacks support.
// Which variant actually runs is no longer decided here: the immutable
// KernelRegistry (core/kernels/kernel_context.hpp) enumerates these, and a
// per-domain KernelContext is threaded explicitly through the executor —
// there is no ambient process-global kernel and no mutable override.
const RzDotKernel* rz_dot_avx2();
const RzDotKernel* rz_dot_avx512();

}  // namespace fasted::kernels
