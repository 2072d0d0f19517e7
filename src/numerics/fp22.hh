/**
 * @file
 * Emulation of the Hopper tensor-core FP8 accumulation path.
 *
 * Per the paper (Sec 3.1.1): "After aligning 32 mantissa products by
 * right-shifting based on the maximum exponent, the Tensor Core only
 * maintains their highest 13 fraction bits for addition, and truncates
 * bits exceeding this range. Addition results are accumulated to FP22
 * registers (1 sign bit, 8 exponent bits, and 13 mantissa bits)."
 *
 * This module provides a bit-faithful software model of that path:
 *
 *  1. alignedGroupSum() takes one instruction group of exact FP8xFP8
 *     products, aligns them to the group's maximum exponent keeping
 *     13 fraction bits (truncating the rest toward zero), and sums
 *     them exactly, and
 *  2. Fp22Register folds the group sum into an FP22 (E8M13) register,
 *     truncating the result to FP22 on every fold.
 *
 * gemmQuantized() (numerics/gemm.hh) runs the whole reduction along K
 * with these two steps, through the dispatched fp22FoldLanes kernel,
 * and with AccumMode::FP22 also models DeepGEMM's mitigation: after
 * each K tile (GemmOptions::tileK, one quantization tile) the FP22
 * register is promoted into an FP32 accumulator on the CUDA cores,
 * multiplied by the tile/block dequantization scales.
 */

#pragma once

#include <span>

#include "numerics/minifloat.hh"

namespace dsv3::numerics {

/** How partial sums are kept while reducing along K. */
enum class AccumMode
{
    FP32,               //!< ideal: full FP32 accumulation (reference)
    FP22,               //!< Hopper path with per-tile FP32 promotion
    FP22_NO_PROMOTION,  //!< Hopper path, never promoted (worst case)
};

const char *accumModeName(AccumMode mode);

/**
 * Align-and-truncate sum of one tensor-core instruction group.
 *
 * Each product is truncated to 13 fraction bits relative to the group's
 * maximum exponent before the additions happen, mirroring the shared
 * exponent-alignment shifter.
 *
 * @param products exact products (computed in double)
 * @param fraction_bits retained fraction bits (13 on Hopper)
 */
double alignedGroupSum(std::span<const double> products,
                       int fraction_bits = 13);

/**
 * FP22 register emulation: every value stored in the register is
 * truncated to E8M13.
 */
class Fp22Register
{
  public:
    /** Add a (group-summed) value; result re-truncated to FP22. */
    void add(double value);

    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

} // namespace dsv3::numerics
