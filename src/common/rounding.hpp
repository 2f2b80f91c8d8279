// Round-toward-zero (RZ) FP32 arithmetic helpers.
//
// NVIDIA tensor cores accumulate FP16 products into FP32 with
// round-toward-zero (Fasi, Higham, Mikaitis, Pranesh: "Numerical behavior of
// NVIDIA tensor cores", PeerJ CS 2021).  The paper's Step 1 also rounds the
// precomputed squared norms toward zero "to match TC rounding".
//
// We implement RZ without touching the FPU rounding mode (which is fragile
// under compiler reordering): compute the result in double (rounded to
// nearest), then truncate that double to the nearest FP32 toward zero.
//
// The contract the whole pipeline reproduces is add_rz(a, b) =
// RZ_f(RN_d(a + b)) on FP16-exact inputs.  That is NOT IEEE RZ(a + b): the
// double sum of two floats can round when their exponents are far apart,
// and RZ of the rounded sum can differ from RZ of the exact sum.  Example:
// a = 2^26 (8192 * 8192), b = -2^-24 * 2^-8 = -2^-32.  The exact sum lies
// just below 2^26, so IEEE RZ gives 2^26 - 4; but RN_d(a + b) = 2^26 (b is
// below half an ulp of 2^26 in double), so add_rz returns 2^26.  Fasi et
// al. report that tensor cores align addends by truncating the shifted
// significand and normalize the sum toward zero, which drops a product that
// far below the accumulator's ulp as well: the contract models that
// truncated FP32 accumulator, not IEEE RZ.  On FP16-exact inputs it differs
// from IEEE RZ only in such sub-ulp cancellations.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace fasted {

// Largest-magnitude float f with |f| <= |x| and sign(f) == sign(x).
inline float round_toward_zero(double x) {
  float f = static_cast<float>(x);  // round-to-nearest
  const double fd = static_cast<double>(f);
  if (std::isinf(f) && !std::isinf(x)) {
    // RN overflowed to inf; RZ clamps at the largest finite float.
    return std::copysign(std::numeric_limits<float>::max(), f);
  }
  if (std::fabs(fd) > std::fabs(x)) {
    f = std::nextafterf(f, 0.0f);  // step back toward zero
  }
  return f;
}

// RZ_f(RN_d(a + b)) for FP32 addends: the double sum rounds to nearest
// (exact only when the exponents of a and b are close), then a single
// truncation to FP32 — the accumulation step of the contract above.
//
// Hot-path form of round_toward_zero: when the RN conversion overshoots the
// magnitude, stepping the float's bit pattern down by one moves it one ulp
// toward zero for either sign (this also turns an overflowed +-inf into
// +-FLT_MAX, which is the RZ overflow behaviour).  Bit-equivalence with
// round_toward_zero is property-tested in tests/common/rounding_test.cpp.
inline float add_rz(float a, float b) {
  const double s = static_cast<double>(a) + static_cast<double>(b);
  const float f = static_cast<float>(s);
  std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  bits -= static_cast<std::uint32_t>(std::fabs(static_cast<double>(f)) >
                                     std::fabs(s));
  return std::bit_cast<float>(bits);
}

// a * b in FP32 with RZ.  The double product of two floats is exact.
inline float mul_rz(float a, float b) {
  return round_toward_zero(static_cast<double>(a) * static_cast<double>(b));
}

// Fused multiply-add a*b + c in FP32 RZ with a single rounding, which is the
// tensor-core dot-product step semantics for one product term.
inline float fma_rz(float a, float b, float c) {
  return round_toward_zero(std::fma(static_cast<double>(a),
                                    static_cast<double>(b),
                                    static_cast<double>(c)));
}

}  // namespace fasted
