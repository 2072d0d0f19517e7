/**
 * @file
 * The fine-grained quantizer written longhand on the reference codec:
 * the oracle packQuantized() and fakeQuantize() are held to, value for
 * value, scale for scale and tally for tally.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "numerics/matrix.hh"
#include "numerics/minifloat.hh"
#include "numerics/quantize.hh"
#include "obs/registry.hh"

namespace dsv3::numerics {

/** numerics.quantize.{values,saturated,flushed_to_zero} as read now. */
inline std::vector<std::uint64_t>
quantizeTallies()
{
    std::vector<std::uint64_t> v;
    for (const char *name :
         {"numerics.quantize.values", "numerics.quantize.saturated",
          "numerics.quantize.flushed_to_zero"})
        v.push_back(obs::Registry::global().counter(name).value());
    return v;
}

struct RefQuantized
{
    std::vector<double> raw;     //!< quantizeRef(fmt, x / s), row-major
    std::vector<double> scaleOf; //!< each element's scale s, row-major
    std::vector<double> scales;  //!< the scale grid, regions row-major
    /** What quantizeTallies() should move by: values, |x / s| >
     *  maxFinite, and nonzero x / s that quantize to +-0. */
    std::vector<std::uint64_t> tallies = {0, 0, 0};
};

/**
 * The original per-element two-pass algorithm: every region's amax by
 * std::max, its scale amax / maxFinite (1 when the amax is 0), then
 * each element quantized by its region's scale. Like the quantizeSpan
 * slot, it divides only by a scale other than 1, so a signalling NaN
 * then stays unquieted.
 */
inline RefQuantized
refQuantize(const Matrix &m, const FloatFormat &fmt, Granularity g,
            std::size_t tile)
{
    const std::size_t rows = m.rows(), cols = m.cols();
    const std::size_t tiles_x = (cols + tile - 1) / tile;
    const std::size_t tiles_y = (rows + tile - 1) / tile;
    std::size_t scale_cols = 1, nscales = 1;
    if (g == Granularity::TILE_1X128) {
        scale_cols = tiles_x;
        nscales = rows * tiles_x;
    } else if (g == Granularity::BLOCK_128X128) {
        scale_cols = tiles_x;
        nscales = tiles_y * tiles_x;
    }
    auto scale_index = [&](std::size_t r, std::size_t c) -> std::size_t {
        switch (g) {
          case Granularity::PER_TENSOR:
            return 0;
          case Granularity::TILE_1X128:
            return r * scale_cols + c / tile;
          case Granularity::BLOCK_128X128:
            return (r / tile) * scale_cols + c / tile;
        }
        return 0;
    };

    RefQuantized out;
    std::vector<double> amax(nscales, 0.0);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            std::size_t idx = scale_index(r, c);
            amax[idx] = std::max(amax[idx], std::fabs(m.at(r, c)));
        }
    out.scales.resize(nscales);
    for (std::size_t i = 0; i < nscales; ++i)
        out.scales[i] = amax[i] > 0.0 ? amax[i] / fmt.maxFinite() : 1.0;

    out.raw.resize(rows * cols);
    out.scaleOf.resize(rows * cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            const double s = out.scales[scale_index(r, c)];
            const double x = s == 1.0 ? m.at(r, c) : m.at(r, c) / s;
            const double q = quantizeRef(fmt, x);
            out.raw[r * cols + c] = q;
            out.scaleOf[r * cols + c] = s;
            out.tallies[1] += std::fabs(x) > fmt.maxFinite();
            out.tallies[2] += x != 0.0 && q == 0.0;
        }
    out.tallies[0] = rows * cols;
    return out;
}

} // namespace dsv3::numerics
