// Step 1 of the paper's Sec. 3.1: precompute s_i = sum_k p_{i,k}^2 for every
// point, on "CUDA cores", rounding toward zero to match the tensor-core
// accumulation [Fasi et al. 2021].  The squares are exact FP16 products
// (computed in FP32); the running FP32 sum rounds toward zero each step.

#pragma once

#include <vector>

#include "common/matrix.hpp"

namespace fasted {

// Squared norms of the FP16-quantized points, FP32 round-toward-zero.
std::vector<float> squared_norms_fp16_rz(const MatrixF16& data);

// Same for rows [begin, end) of `data`, written to out[0, end - begin).
// Small batches run on the calling thread: waking the pool costs more than
// the few rows an append or a query batch brings.
void squared_norms_fp16_rz(const MatrixF16& data, std::size_t begin,
                           std::size_t end, float* out);

// FP32 round-to-nearest squared norms of the raw (unquantized) points.
std::vector<float> squared_norms_fp32(const MatrixF32& data);

// FP64 squared norms (ground-truth path).
std::vector<double> squared_norms_fp64(const MatrixF64& data);

}  // namespace fasted
