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
 * A quantized matrix: integer codes plus the scale grid needed to
 * dequantize them. Codes are stored widened to uint32 for simplicity.
 */
class QuantizedMatrix
{
  public:
    /** Quantize @p m into @p fmt at the given granularity. */
    QuantizedMatrix(const Matrix &m, const FloatFormat &fmt,
                    Granularity granularity, std::size_t tile = 128);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    const FloatFormat &format() const { return *fmt_; }
    Granularity granularity() const { return granularity_; }

    /** Unscaled decoded value (what the tensor core multiplies). */
    double rawValue(std::size_t r, std::size_t c) const;

    /** Dequantization scale applying to element (r, c). */
    double scale(std::size_t r, std::size_t c) const;

    /** Fully dequantized value: rawValue * scale. */
    double value(std::size_t r, std::size_t c) const
    {
        return rawValue(r, c) * scale(r, c);
    }

    /** Reconstruct the dense dequantized matrix. */
    Matrix dequantize() const;

    /** Decode all raw (unscaled) values into @p out (rows*cols). */
    void decodeRawInto(double *out) const;

    /** Bytes needed to store codes (excludes scales). */
    std::size_t codeBytes() const;

    /** Number of scale entries. */
    std::size_t scaleCount() const { return scales_.size(); }

    /** Stored codes, row-major, 64-byte aligned (golden tests / bulk
     *  decode). */
    const AlignedVector<std::uint32_t> &codes() const
    {
        return codes_;
    }

    /** Scale grid in scaleIndex() order (for golden tests). */
    const std::vector<double> &scaleGrid() const { return scales_; }

  private:
    std::size_t scaleIndex(std::size_t r, std::size_t c) const;

    const FloatFormat *fmt_;
    Granularity granularity_;
    std::size_t tile_;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t scaleCols_ = 0; // scale-grid width
    AlignedVector<std::uint32_t> codes_;
    std::vector<double> scales_;
};

/**
 * The raw values a QuantizedMatrix of @p m decodes to (rawValue(), a
 * NaN as decode()'s canonical quiet NaN), with no code plane: element
 * (r, c) goes to out[r * ld + c], and the return value is the
 * scaleGrid(). Each scale region is quantized right after its amax,
 * and the numerics.quantize.* tallies match the QuantizedMatrix's.
 */
std::vector<double> packQuantized(const Matrix &m, const FloatFormat &fmt,
                                  Granularity granularity,
                                  std::size_t tile, double *out,
                                  std::size_t ld);

/**
 * Convenience: quantize then dequantize, returning the lossy matrix.
 * Useful for measuring pure quantization error.
 */
Matrix fakeQuantize(const Matrix &m, const FloatFormat &fmt,
                    Granularity granularity, std::size_t tile = 128);

} // namespace dsv3::numerics
