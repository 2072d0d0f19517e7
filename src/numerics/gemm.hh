/**
 * @file
 * Reference and quantized GEMM emulation.
 *
 * gemmQuantized() reproduces the DeepGEMM execution model on the
 * numerical level: activations tile-quantized 1x128 along K, weights
 * block-quantized 128x128, products reduced on emulated tensor cores
 * (32-product aligned groups into an FP22 register) and periodically
 * promoted to FP32 CUDA-core accumulators with the dequantization
 * scales applied. The AccumMode knob switches between the ideal FP32
 * path, the DeepGEMM two-level path, and the unmitigated Hopper
 * FP22-only path the paper warns about.
 */

#pragma once

#include <cstddef>

#include "numerics/fp22.hh"
#include "numerics/matrix.hh"
#include "numerics/minifloat.hh"
#include "numerics/quantize.hh"

namespace dsv3::numerics {

struct GemmOptions
{
    const FloatFormat *fmt = &kE4M3; //!< element format for A and B
    bool fineGrained = true;         //!< 1x128 / 128x128 scaling
    AccumMode accum = AccumMode::FP22;
    std::size_t tileK = 128;         //!< quantization tile / promotion K
    std::size_t groupSize = 32;      //!< products per tensor-core group
};

/** Exact double-precision reference: C = A x B. */
Matrix gemmRef(const Matrix &a, const Matrix &b);

/** BF16 inputs, FP32 accumulation (the paper's accuracy baseline). */
Matrix gemmBf16(const Matrix &a, const Matrix &b);

/**
 * Quantized GEMM per GemmOptions. A is MxK (activations), B is KxN
 * (weights).
 *
 * Numerical pipeline per output element:
 *  - per K-tile: tensor-core emulation sums unscaled code products in
 *    aligned 32-groups into an FP22 register (AccumMode::FP22*),
 *  - promotion: FP22 value x scaleA(tile) x scaleB(block) added into a
 *    CUDA-core FP32 accumulator (AccumMode::FP22 and FP32);
 *  - AccumMode::FP22_NO_PROMOTION keeps one FP22 register across the
 *    whole K reduction (requires per-tensor granularity: fine-grained
 *    scales cannot be folded without promotion, which is exactly the
 *    dequantization-overhead point of Sec 3.1.1).
 */
Matrix gemmQuantized(const Matrix &a, const Matrix &b,
                     const GemmOptions &options);

// Scalar reference implementations: the original unblocked,
// single-threaded triple loops, kept verbatim (and stats/trace-free)
// as the oracles the blocked + parallel kernels above are golden-tested
// against. gemmRef/gemmBf16/gemmQuantized must return byte-identical
// matrices to these at every thread width.
Matrix gemmRefScalar(const Matrix &a, const Matrix &b);
Matrix gemmBf16Ref(const Matrix &a, const Matrix &b);
Matrix gemmQuantizedRef(const Matrix &a, const Matrix &b,
                        const GemmOptions &options);

} // namespace dsv3::numerics
