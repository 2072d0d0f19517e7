#include "numerics/gemm.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "numerics/dispatch.hh"
#include "numerics/fastmath.hh"
#include "numerics/kernels.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::numerics {

namespace {

struct GemmStats
{
    obs::Counter &calls =
        obs::Registry::global().counter("numerics.gemm.calls");
    obs::Counter &tiles =
        obs::Registry::global().counter("numerics.gemm.tiles");
    obs::Counter &elements =
        obs::Registry::global().counter("numerics.gemm.elements");
};

GemmStats &
gemmStats()
{
    static GemmStats *stats = new GemmStats();
    return *stats;
}

/** Output rows per parallelFor task. */
constexpr std::size_t kRowBlock = 8;
/**
 * Output columns per lane-kernel call: one cell per SIMD lane, and a
 * tileK x kColBlock panel of B (16 KiB at tileK 128) stays in L1
 * across the rows of a block.
 */
constexpr std::size_t kColBlock = 16;

/**
 * Row padding of the B operands gemmBf16 and gemmQuantized build, in
 * doubles (one cache line). At a power-of-two n the rows of a column
 * block otherwise fall into a few cache sets (n = 64 puts a 128 x 16
 * panel into 16 of a 64-set L1), and the panel leaves L1 between rows.
 */
constexpr std::size_t kLdbPad = 8;

/**
 * Reject options no GEMM can run, naming the option; returns the
 * granularities of A and B.
 */
std::pair<Granularity, Granularity>
checkOptions(const GemmOptions &options)
{
    DSV3_ASSERT(options.fmt != nullptr, "GemmOptions::fmt must be set");
    DSV3_ASSERT(options.tileK > 0, "GemmOptions::tileK must be > 0");
    if (options.accum == AccumMode::FP22_NO_PROMOTION) {
        DSV3_ASSERT(!options.fineGrained,
                    "FP22-only accumulation cannot fold fine-grained "
                    "scales (no promotion step exists)");
    }
    if (options.accum != AccumMode::FP32)
        DSV3_ASSERT(options.groupSize > 0,
                    "FP22 accumulation needs groupSize > 0");
    if (!options.fineGrained)
        return {Granularity::PER_TENSOR, Granularity::PER_TENSOR};
    return {Granularity::TILE_1X128, Granularity::BLOCK_128X128};
}

/**
 * gemmQuantizedRef's operand, quantized longhand on the reference
 * codec with no KernelTable entry: each scale region (band rows by
 * width columns) has the scale s = amax / maxFinite, or 1 when the
 * amax is 0, with the amax taken by std::max, and raw(r, c) is
 * quantizeRef(fmt, m(r, c) / s).
 */
struct RefOperand
{
    RefOperand(const Matrix &m, const FloatFormat &fmt, Granularity g,
               std::size_t tile)
        : band(g == Granularity::TILE_1X128 ? 1
               : g == Granularity::BLOCK_128X128 ? tile : SIZE_MAX),
          width(g == Granularity::PER_TENSOR ? SIZE_MAX : tile),
          raw(m.rows(), m.cols()), grid(m.rows() / band + 1,
                                        m.cols() / width + 1)
    {
        for (std::size_t r = 0; r < m.rows(); ++r) {
            for (std::size_t c = 0; c < m.cols(); ++c) {
                double &amax = grid.at(r / band, c / width);
                amax = std::max(amax, std::fabs(m.at(r, c)));
            }
        }
        for (double &s : grid.data())
            s = s > 0.0 ? s / fmt.maxFinite() : 1.0;
        for (std::size_t r = 0; r < m.rows(); ++r)
            for (std::size_t c = 0; c < m.cols(); ++c)
                raw.at(r, c) = quantizeRef(fmt, m.at(r, c) / scale(r, c));
    }

    double scale(std::size_t r, std::size_t c) const
    {
        return grid.at(r / band, c / width);
    }

    std::size_t band, width; //!< a scale region's rows and columns
    Matrix raw;
    Matrix grid; //!< the scale of region (r / band, c / width)
};

/**
 * Run fn(i_lo, i_hi, j_lo, j_hi) over kRowBlock x kColBlock blocks of
 * the m x n output: row blocks in parallel, column blocks in order.
 */
void
forBlocks(std::size_t m, std::size_t n,
          const std::function<void(std::size_t, std::size_t,
                                   std::size_t, std::size_t)> &fn)
{
    const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
    parallelFor(blocks, [&](std::size_t blk) {
        const std::size_t i_lo = blk * kRowBlock;
        const std::size_t i_hi = std::min(m, i_lo + kRowBlock);
        for (std::size_t j_lo = 0; j_lo < n; j_lo += kColBlock)
            fn(i_lo, i_hi, j_lo, std::min(n, j_lo + kColBlock));
    });
}

} // namespace

Matrix
gemmRef(const Matrix &a, const Matrix &b)
{
    DSV3_ASSERT(a.cols() == b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    Matrix c(m, n);
    // Each cell is gemmRefScalar's pinned 8-lane k reduction over all
    // of K; only the row partitioning changes, so the result is
    // byte-identical at any thread count and under any dispatch table.
    const double *ad = a.data().data();
    const double *bd = b.data().data();
    double *cd = c.data().data();
    const KernelTable &kt = kernels();
    forBlocks(m, n, [&](std::size_t i_lo, std::size_t i_hi,
                        std::size_t j_lo, std::size_t j_hi) {
        for (std::size_t i = i_lo; i < i_hi; ++i)
            kt.dotLanes(ad + i * k, bd + j_lo, n, k, j_hi - j_lo,
                        cd + i * n + j_lo);
    });
    return c;
}

Matrix
gemmBf16(const Matrix &a, const Matrix &b)
{
    DSV3_ASSERT(a.cols() == b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();

    // Pre-quantize operands to BF16 in bulk, B into padded rows (the
    // pad columns stay unwritten: no lane kernel reads them).
    const std::size_t ldb = n + kLdbPad;
    AlignedVector<double> aq(m * k), bq(k * ldb);
    quantizeSpan(kBF16, a.data(), aq.data());
    for (std::size_t kk = 0; kk < k; ++kk)
        quantizeSpan(kBF16, {b.data().data() + kk * n, n},
                     bq.data() + kk * ldb);

    Matrix c(m, n);
    double *cd = c.data().data();
    const KernelTable &kt = kernels();
    forBlocks(m, n, [&](std::size_t i_lo, std::size_t i_hi,
                        std::size_t j_lo, std::size_t j_hi) {
        float out[kColBlock];
        for (std::size_t i = i_lo; i < i_hi; ++i) {
            kt.dotLanesF32(aq.data() + i * k, bq.data() + j_lo, ldb, k,
                           j_hi - j_lo, out);
            for (std::size_t j = j_lo; j < j_hi; ++j)
                cd[i * n + j] = (double)out[j - j_lo];
        }
    });
    return c;
}

Matrix
gemmQuantized(const Matrix &a, const Matrix &b, const GemmOptions &options)
{
    DSV3_ASSERT(a.cols() == b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    DSV3_TRACE_SPAN("numerics.gemm.quantized", "m", m, "n", n, "k", k);
    const auto [ga, gb] = checkOptions(options);
    const std::size_t tile_k = options.tileK;
    const std::size_t group = options.groupSize;

    // Quantize the operands straight into the raw (unscaled) values
    // the tensor cores multiply, B into padded rows whose pad columns
    // no lane kernel reads. The lane kernels read B row-major: a row
    // of one column block is a lane vector.
    const std::size_t ldb = n + kLdbPad;
    AlignedVector<double> araw(m * k), braw(k * ldb);
    const std::vector<double> agrid =
        packQuantized(a, *options.fmt, ga, tile_k, araw.data(), k);
    const std::vector<double> bgrid =
        packQuantized(b, *options.fmt, gb, tile_k, braw.data(), ldb);

    // Expand the scale grids for the inner loops: ascale is (row x
    // tile), bscale is (tile x col) to match B's layout.
    const std::size_t num_tiles = (k + tile_k - 1) / tile_k;
    const std::size_t b_blocks = (n + tile_k - 1) / tile_k;
    AlignedVector<double> ascale(m * num_tiles);
    AlignedVector<double> bscale(num_tiles * n);
    for (std::size_t i = 0; i < m * num_tiles; ++i)
        ascale[i] = options.fineGrained ? agrid[i] : agrid[0];
    for (std::size_t t = 0; t < num_tiles; ++t)
        for (std::size_t j = 0; j < n; ++j)
            bscale[t * n + j] = options.fineGrained
                ? bgrid[t * b_blocks + j / tile_k] : bgrid[0];

    Matrix c(m, n);
    double *cd = c.data().data();

    // Block, then K tile, then row: each lane-kernel call covers one
    // row's cells of the column block over one tile. Every cell keeps
    // the scalar reference's exact operation order (tile-major, the
    // pinned 8-lane reduction inside the tile, products grouped per
    // `group` from the tile start for the tensor-core model, FP32
    // promotion per tile), so results are byte-identical to
    // gemmQuantizedRef at any thread count and under any dispatch
    // table.
    const KernelTable &kt = kernels();
    forBlocks(m, n, [&](std::size_t i_lo, std::size_t i_hi,
                        std::size_t j_lo, std::size_t j_hi) {
        const std::size_t cols = j_hi - j_lo;
        float fp32_accum[kRowBlock][kColBlock] = {};
        // FP22_NO_PROMOTION: one register per cell across all of K.
        double whole_k[kRowBlock][kColBlock] = {};
        for (std::size_t t = 0; t < num_tiles; ++t) {
            const std::size_t k_lo = t * tile_k;
            const std::size_t len = std::min(k, k_lo + tile_k) - k_lo;
            const double *bt = braw.data() + k_lo * ldb + j_lo;
            const double *bs = bscale.data() + t * n + j_lo;
            for (std::size_t i = i_lo; i < i_hi; ++i) {
                const double *arow = araw.data() + i * k + k_lo;
                const double as = ascale[i * num_tiles + t];
                float *acc = fp32_accum[i - i_lo];
                double tile[kColBlock] = {};
                switch (options.accum) {
                  case AccumMode::FP32:
                    kt.dotLanes(arow, bt, ldb, len, cols, tile);
                    break;
                  case AccumMode::FP22:
                    kt.fp22FoldLanes(arow, bt, ldb, len, group, cols,
                                     tile);
                    break;
                  case AccumMode::FP22_NO_PROMOTION:
                    // No promotion: the registers carry across tiles.
                    kt.fp22FoldLanes(arow, bt, ldb, len, group, cols,
                                     whole_k[i - i_lo]);
                    continue;
                }
                // Promotion: CUDA cores fold the dequant scales.
                for (std::size_t c = 0; c < cols; ++c)
                    acc[c] += (float)(tile[c] * (as * bs[c]));
            }
        }
        for (std::size_t i = i_lo; i < i_hi; ++i) {
            for (std::size_t j = j_lo; j < j_hi; ++j) {
                cd[i * n + j] =
                    options.accum == AccumMode::FP22_NO_PROMOTION
                    ? whole_k[i - i_lo][j - j_lo] * (agrid[0] * bgrid[0])
                    : (double)fp32_accum[i - i_lo][j - j_lo];
            }
        }
    });

    GemmStats &stats = gemmStats();
    stats.calls.inc();
    stats.tiles.inc((std::uint64_t)(m * n * num_tiles));
    stats.elements.inc((std::uint64_t)(m * n));
    return c;
}

// Scalar reference oracles (original implementations, stats/trace
// free). ---------------------------------------------------------------

Matrix
gemmRefScalar(const Matrix &a, const Matrix &b)
{
    DSV3_ASSERT(a.cols() == b.rows());
    std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    Matrix c(m, n);
    // The pinned strided dot -- deliberately not the dispatch table,
    // so this oracle is meaningful against any of its tables.
    const double *ad = a.data().data();
    const double *bd = b.data().data();
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            c.at(i, j) = fastmath::pinnedDot(ad + i * k, bd + j, k, n);
    return c;
}

Matrix
gemmBf16Ref(const Matrix &a, const Matrix &b)
{
    DSV3_ASSERT(a.cols() == b.rows());
    std::size_t m = a.rows(), k = a.cols(), n = b.cols();

    // Pre-quantize operands to BF16 once, via the reference codec.
    Matrix aq(m, k), bq(k, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t kk = 0; kk < k; ++kk)
            aq.at(i, kk) = quantizeRef(kBF16, a.at(i, kk));
    for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < n; ++j)
            bq.at(kk, j) = quantizeRef(kBF16, b.at(kk, j));

    Matrix c(m, n);
    const double *aqd = aq.data().data();
    const double *bqd = bq.data().data();
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            c.at(i, j) = (double)fastmath::pinnedDotF32(aqd + i * k,
                                                        bqd + j, k, n);
    return c;
}

Matrix
gemmQuantizedRef(const Matrix &a, const Matrix &b,
                 const GemmOptions &options)
{
    DSV3_ASSERT(a.cols() == b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    const auto [ga, gb] = checkOptions(options);
    const std::size_t tile_k = options.tileK;
    const std::size_t group = options.groupSize;

    const RefOperand aq(a, *options.fmt, ga, tile_k);
    const RefOperand bq(b, *options.fmt, gb, tile_k);
    const Matrix &araw = aq.raw;
    const Matrix &braw = bq.raw;

    Matrix c(m, n);
    std::vector<double> products;
    products.reserve(group);

    const std::size_t num_tiles = (k + tile_k - 1) / tile_k;
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float fp32_accum = 0.0f;
            Fp22Register whole_k; // FP22_NO_PROMOTION only

            for (std::size_t t = 0; t < num_tiles; ++t) {
                const std::size_t k_lo = t * tile_k;
                const std::size_t k_hi = std::min(k, k_lo + tile_k);
                const double combined_scale =
                    aq.scale(i, k_lo) * bq.scale(k_lo, j);

                switch (options.accum) {
                  case AccumMode::FP32: {
                    const double tile_sum = fastmath::pinnedDot(
                        araw.data().data() + i * k + k_lo,
                        braw.data().data() + k_lo * n + j,
                        k_hi - k_lo, n);
                    fp32_accum += (float)(tile_sum * combined_scale);
                    break;
                  }
                  case AccumMode::FP22: {
                    Fp22Register reg;
                    for (std::size_t kk = k_lo; kk < k_hi;) {
                        products.clear();
                        std::size_t lim = std::min(k_hi, kk + group);
                        for (; kk < lim; ++kk)
                            products.push_back(araw.at(i, kk) *
                                               braw.at(kk, j));
                        reg.add(alignedGroupSum(products));
                    }
                    // Promotion: CUDA cores fold in the dequant scales.
                    fp32_accum += (float)(reg.value() * combined_scale);
                    break;
                  }
                  case AccumMode::FP22_NO_PROMOTION: {
                    for (std::size_t kk = k_lo; kk < k_hi;) {
                        products.clear();
                        std::size_t lim = std::min(k_hi, kk + group);
                        for (; kk < lim; ++kk)
                            products.push_back(araw.at(i, kk) *
                                               braw.at(kk, j));
                        whole_k.add(alignedGroupSum(products));
                    }
                    break;
                  }
                }
            }

            if (options.accum == AccumMode::FP22_NO_PROMOTION) {
                double s = aq.scale(i, 0) * bq.scale(0, j);
                c.at(i, j) = whole_k.value() * s;
            } else {
                c.at(i, j) = (double)fp32_accum;
            }
        }
    }
    return c;
}

} // namespace dsv3::numerics
