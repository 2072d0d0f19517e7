#include "numerics/quantize.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "numerics/dispatch.hh"
#include "numerics/kernels.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::numerics {

namespace {

struct QuantizeStats
{
    obs::Counter &values =
        obs::Registry::global().counter("numerics.quantize.values");
    obs::Counter &saturated = obs::Registry::global().counter(
        "numerics.quantize.saturated");
    obs::Counter &flushedToZero = obs::Registry::global().counter(
        "numerics.quantize.flushed_to_zero");
};

QuantizeStats &
quantizeStats()
{
    static QuantizeStats *stats = new QuantizeStats();
    return *stats;
}

} // namespace

const char *
granularityName(Granularity g)
{
    switch (g) {
      case Granularity::PER_TENSOR:
        return "per-tensor";
      case Granularity::TILE_1X128:
        return "tile 1x128";
      case Granularity::BLOCK_128X128:
        return "block 128x128";
    }
    return "?";
}

namespace {

/**
 * The one amax/scale rule. Walks @p m's scale regions in scale-grid
 * order (one row's tile run, a tile x tile block, or the whole
 * matrix), sets each region's scale to amax / maxFinite (1 when the
 * amax is 0: all zeros or NaN), and right after, while the region is
 * still in cache, calls emit(k, r, c_lo, c_hi, s, saturated, flushed)
 * on each of its row runs, with the tally pointers null when stats are
 * off. absMax ignores NaNs and max is order-free on the rest, so every
 * amax is bit-identical under every dispatch table. Returns the grid
 * and tallies numerics.quantize.*.
 */
template <class Emit>
std::vector<double>
quantizeRegions(const Matrix &m, const FloatFormat &fmt, Granularity g,
                std::size_t tile, Emit emit)
{
    DSV3_ASSERT(tile > 0, "quantization tile must be > 0");
    const std::size_t rows = m.rows(), cols = m.cols();
    const std::size_t band = g == Granularity::TILE_1X128 ? 1
        : g == Granularity::BLOCK_128X128 ? tile : rows;
    const std::size_t width = g == Granularity::PER_TENSOR ? cols : tile;
    std::vector<double> scales(
        g == Granularity::PER_TENSOR
            ? 1 : ((rows + band - 1) / band) * ((cols + tile - 1) / tile),
        1.0);

    const KernelTable &kt = kernels();
    const FormatKernels &k = formatKernels(fmt);
    const bool tally = obs::statsEnabled();
    std::uint64_t saturated = 0, flushed = 0;
    std::uint64_t *sat_p = tally ? &saturated : nullptr;
    std::uint64_t *flush_p = tally ? &flushed : nullptr;
    const double *data = m.data().data();
    std::size_t idx = 0;
    for (std::size_t r_lo = 0; r_lo < rows; r_lo += band) {
        const std::size_t r_hi = std::min(rows, r_lo + band);
        for (std::size_t c_lo = 0; c_lo < cols; c_lo += width, ++idx) {
            const std::size_t c_hi = std::min(cols, c_lo + width);
            double amax = 0.0;
            if (c_hi - c_lo == cols) // whole rows: one contiguous run
                amax = kt.absMax(data + r_lo * cols, (r_hi - r_lo) * cols,
                                 amax);
            else
                for (std::size_t r = r_lo; r < r_hi; ++r)
                    amax = kt.absMax(data + r * cols + c_lo, c_hi - c_lo,
                                     amax);
            const double s = amax > 0.0 ? amax / k.maxFinite : 1.0;
            scales[idx] = s;
            for (std::size_t r = r_lo; r < r_hi; ++r)
                emit(k, r, c_lo, c_hi, s, sat_p, flush_p);
        }
    }
    if (tally) {
        QuantizeStats &stats = quantizeStats();
        stats.values.inc((std::uint64_t)(rows * cols));
        stats.saturated.inc(saturated);
        stats.flushedToZero.inc(flushed);
    }
    return scales;
}

} // namespace

std::vector<double>
packQuantized(const Matrix &m, const FloatFormat &fmt,
              Granularity granularity, std::size_t tile, double *out,
              std::size_t ld)
{
    DSV3_TRACE_SPAN("numerics.quantize.pack", "rows", m.rows(), "cols",
                    m.cols(), "fmt", fmt.name);
    const KernelTable &kt = kernels();
    const double *data = m.data().data();
    const std::size_t cols = m.cols();
    return quantizeRegions(
        m, fmt, granularity, tile,
        [&](const FormatKernels &k, std::size_t r, std::size_t c_lo,
            std::size_t c_hi, double s, std::uint64_t *sat,
            std::uint64_t *flush) {
            kt.quantizeSpan(k, data + r * cols + c_lo, s,
                            out + r * ld + c_lo, c_hi - c_lo, true, sat,
                            flush);
        });
}

QuantizedMatrix::QuantizedMatrix(const Matrix &m, const FloatFormat &fmt,
                                 Granularity granularity, std::size_t tile)
    : fmt_(&fmt), granularity_(granularity), tile_(tile),
      rows_(m.rows()), cols_(m.cols())
{
    // Codes, a scale region at a time. Saturation (|x/s| beyond the
    // format's largest finite) and underflow-to-zero events are
    // tallied: amax scaling makes saturation rare by construction, so
    // a nonzero count flags a scale-selection bug or an adversarial
    // input distribution.
    DSV3_TRACE_SPAN("numerics.quantize.encode", "rows", rows_, "cols",
                    cols_, "fmt", fmt_->name);
    const KernelTable &kt = kernels();
    const double *data = m.data().data();
    codes_.resize(rows_ * cols_);
    scales_ = quantizeRegions(
        m, fmt, granularity, tile,
        [&](const FormatKernels &k, std::size_t r, std::size_t c_lo,
            std::size_t c_hi, double s, std::uint64_t *sat,
            std::uint64_t *flush) {
            kt.encodeScaledSpan(k, data + r * cols_ + c_lo, s,
                                codes_.data() + r * cols_ + c_lo,
                                c_hi - c_lo, sat, flush);
        });
    scaleCols_ = granularity_ == Granularity::PER_TENSOR
        ? 1 : (cols_ + tile_ - 1) / tile_;
}

std::size_t
QuantizedMatrix::scaleIndex(std::size_t r, std::size_t c) const
{
    switch (granularity_) {
      case Granularity::PER_TENSOR:
        return 0;
      case Granularity::TILE_1X128:
        return r * scaleCols_ + c / tile_;
      case Granularity::BLOCK_128X128:
        return (r / tile_) * scaleCols_ + c / tile_;
    }
    return 0;
}

double
QuantizedMatrix::rawValue(std::size_t r, std::size_t c) const
{
    return decode(*fmt_, codes_[r * cols_ + c]);
}

double
QuantizedMatrix::scale(std::size_t r, std::size_t c) const
{
    return scales_[scaleIndex(r, c)];
}

void
QuantizedMatrix::decodeRawInto(double *out) const
{
    decodeSpan(*fmt_, codes_, out);
}

Matrix
QuantizedMatrix::dequantize() const
{
    // Bulk-decode all codes (a LUT gather for <= 16-bit formats), then
    // apply scales run by run. rawValue * scale matches the
    // element-wise value() exactly.
    Matrix out(rows_, cols_);
    double *o = out.data().data();
    const KernelTable &kt = kernels();
    decodeSpan(*fmt_, codes_, o);
    for (std::size_t r = 0; r < rows_; ++r) {
        double *row = o + r * cols_;
        for (std::size_t c_lo = 0; c_lo < cols_; c_lo += tile_) {
            const std::size_t c_hi = std::min(cols_, c_lo + tile_);
            kt.scaleSpan(row + c_lo, scales_[scaleIndex(r, c_lo)],
                         c_hi - c_lo);
        }
    }
    return out;
}

std::size_t
QuantizedMatrix::codeBytes() const
{
    return codes_.size() * (std::size_t)((fmt_->totalBits() + 7) / 8);
}

Matrix
fakeQuantize(const Matrix &m, const FloatFormat &fmt,
             Granularity granularity, std::size_t tile)
{
    return QuantizedMatrix(m, fmt, granularity, tile).dequantize();
}

} // namespace dsv3::numerics
