#include "numerics/quantize.hh"

#include <algorithm>

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
 * The one quantizer. Walks @p m's scale regions in scale-grid order
 * (one row's tile run, a tile x tile block, or the whole matrix), sets
 * each region's scale s to amax / maxFinite (1 when the amax is 0: all
 * zeros or NaN), and right after, while the region is still in cache,
 * quantizes each of its row runs by s into out[r * ld + c] with the
 * quantizeSpan slot and calls then(run, n, s) on the n values written.
 * absMax ignores NaNs and max is order-free on the rest, so every amax
 * is bit-identical under every dispatch table. Returns the grid and
 * tallies numerics.quantize.*.
 */
template <class Then>
std::vector<double>
quantizeRegions(const Matrix &m, const FloatFormat &fmt, Granularity g,
                std::size_t tile, double *out, std::size_t ld, Then then)
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
            for (std::size_t r = r_lo; r < r_hi; ++r) {
                double *run = out + r * ld + c_lo;
                kt.quantizeSpan(k, data + r * cols + c_lo, s, run,
                                c_hi - c_lo, sat_p, flush_p);
                then(run, c_hi - c_lo, s);
            }
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
    return quantizeRegions(m, fmt, granularity, tile, out, ld,
                           [](double *, std::size_t, double) {});
}

Matrix
fakeQuantize(const Matrix &m, const FloatFormat &fmt,
             Granularity granularity, std::size_t tile)
{
    DSV3_TRACE_SPAN("numerics.quantize.fake", "rows", m.rows(), "cols",
                    m.cols(), "fmt", fmt.name);
    const KernelTable &kt = kernels();
    Matrix out(m.rows(), m.cols());
    quantizeRegions(m, fmt, granularity, tile, out.data().data(), m.cols(),
                    [&](double *run, std::size_t n, double s) {
                        kt.scaleSpan(run, s, n);
                    });
    return out;
}

} // namespace dsv3::numerics
