/**
 * @file
 * Fine-grained quantization, matching DeepSeek-V3's training recipe
 * (Sec 3.1): tile-wise 1x128 scaling for activations and block-wise
 * 128x128 scaling for weights, with per-tensor scaling available as the
 * coarse baseline. Scales are amax / maxFinite so the largest element
 * of each tile maps onto the format's largest magnitude.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "numerics/matrix.hh"
#include "numerics/minifloat.hh"

namespace dsv3::numerics {

/** Scaling granularity for quantization. */
enum class Granularity
{
    PER_TENSOR,   //!< one scale for the whole matrix
    TILE_1X128,   //!< one scale per (row, 128-column tile) - activations
    BLOCK_128X128 //!< one scale per 128x128 block - weights
};

const char *granularityName(Granularity g);

/**
 * Quantize @p m into @p fmt at the given granularity, as the raw
 * (unscaled) values the tensor cores multiply: element (r, c) goes to
 * out[r * ld + c] as quantize(fmt, m(r, c) / s), a NaN keeping its
 * payload, where s is its region's scale. Returns the scale grid,
 * regions in row-major order: one per (row, tile) for TILE_1X128, per
 * tile x tile block for BLOCK_128X128, one for PER_TENSOR. Tallies
 * numerics.quantize.{values,saturated,flushed_to_zero}.
 */
std::vector<double> packQuantized(const Matrix &m, const FloatFormat &fmt,
                                  Granularity granularity,
                                  std::size_t tile, double *out,
                                  std::size_t ld);

/**
 * Quantize then dequantize: packQuantized()'s values times their
 * region's scale, with the same tallies. Useful for measuring pure
 * quantization error.
 */
Matrix fakeQuantize(const Matrix &m, const FloatFormat &fmt,
                    Granularity granularity, std::size_t tile = 128);

} // namespace dsv3::numerics
