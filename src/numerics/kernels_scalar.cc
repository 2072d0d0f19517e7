/**
 * @file
 * Scalar KernelTable: the oracle every SIMD table is fuzzed against.
 *
 * These entries are the pinned-order scalar implementations -- the
 * codec family routes through quantizeValue() and encodeFast()
 * (bit-identical to the minifloat.cc reference codec), the float
 * families through numerics/fastmath.hh. Everything here must stay
 * straightforward and readable; speed comes from the SIMD tables,
 * correctness arguments come from here.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "numerics/dispatch.hh"
#include "numerics/fastmath.hh"
#include "numerics/fp22.hh"
#include "numerics/kernels.hh"

namespace dsv3::numerics {
namespace {

void
quantizeSpanScalar(const FormatKernels &k, const double *in, double div,
                   double *out, std::size_t n, bool canonical_nan,
                   std::uint64_t *saturated, std::uint64_t *flushed)
{
    std::uint64_t sat = 0, flush = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = div == 1.0 ? in[i] : in[i] / div;
        const double q = quantizeValue(k, x);
        out[i] = canonical_nan && std::isnan(q)
            ? std::numeric_limits<double>::quiet_NaN() : q;
        sat += std::fabs(x) > k.maxFinite;
        flush += x != 0.0 && q == 0.0;
    }
    if (saturated) {
        *saturated += sat;
        *flushed += flush;
    }
}

void
decodeLutSpanScalar(const double *lut, const std::uint32_t *in,
                    double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = lut[in[i]];
}

void
encodeScaledSpanScalar(const FormatKernels &k, const double *in,
                       double s, std::uint32_t *out, std::size_t n,
                       std::uint64_t *saturated, std::uint64_t *flushed)
{
    const std::uint32_t mag_mask = (1u << k.signShift) - 1;
    std::uint64_t sat = 0, flush = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double scaled = in[i] / s;
        const std::uint32_t code = encodeFast(k, scaled);
        out[i] = code;
        if (std::fabs(scaled) > k.maxFinite)
            ++sat;
        else if (scaled != 0.0 && (code & mag_mask) == 0)
            ++flush;
    }
    if (saturated) {
        *saturated += sat;
        *flushed += flush;
    }
}

double
absMaxScalar(const double *in, std::size_t n, double init)
{
    double run = init;
    for (std::size_t i = 0; i < n; ++i)
        run = std::max(run, std::fabs(in[i]));
    return run;
}

void
scaleSpanScalar(double *inout, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        inout[i] *= s;
}

bool
logAbsStatsScalar(const double *in, double *logs, std::size_t n,
                  double *min_log, double *max_log)
{
    double lo = 0.0, hi = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = in[i];
        const double l = fastmath::logAbsPinned(x);
        logs[i] = l;
        if (x == 0.0 || !std::isfinite(x))
            continue;
        if (!any) {
            lo = hi = l;
            any = true;
        } else {
            lo = std::min(lo, l);
            hi = std::max(hi, l);
        }
    }
    *min_log = lo;
    *max_log = hi;
    return any;
}

void
magTableScalar(double min_log, double step, std::uint32_t k_max,
               double *mag)
{
    mag[0] = 0.0;
    for (std::uint32_t j = 1; j <= k_max; ++j)
        mag[j] =
            fastmath::expPinned(min_log + step * (double)(j - 1));
}

std::uint64_t
logfmtEncodeLogScalar(const double *values, const double *logs,
                      std::size_t n, double min_log, double step,
                      std::uint32_t k_max, std::uint32_t sign_bit,
                      std::uint32_t *codes)
{
    std::uint64_t below_range = 0;
    const double k_max_d = (double)k_max;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = values[i];
        if (x == 0.0 || !std::isfinite(x))
            continue; // code already 0
        const std::uint32_t sign = x < 0.0 ? sign_bit : 0u;
        const double k_real = (logs[i] - min_log) / step + 1.0;
        if (k_real < 1.0)
            ++below_range;
        const double r = fastmath::roundHalfUpPinned(k_real);
        const double cl = std::min(std::max(r, 1.0), k_max_d);
        codes[i] = sign | (std::uint32_t)cl;
    }
    return below_range;
}

std::uint64_t
logfmtEncodeLinearScalar(const double *values, const double *logs,
                         std::size_t n, double min_log, double step,
                         std::uint32_t k_max, std::uint32_t sign_bit,
                         const double *mag, std::uint32_t *codes)
{
    std::uint64_t below_range = 0;
    const double k_max_d = (double)k_max;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = values[i];
        if (x == 0.0 || !std::isfinite(x))
            continue; // code already 0
        const std::uint32_t sign = x < 0.0 ? sign_bit : 0u;
        const double k_real = (logs[i] - min_log) / step + 1.0;
        if (k_real < 1.0)
            ++below_range;
        // Candidate codes: floor and ceil of the index, clamped into
        // [1, k_max]; pick whichever decodes closer to |x|.
        const double fl = std::floor(k_real);
        const double lo_d = std::min(std::max(fl, 1.0), k_max_d);
        const std::uint32_t lo = (std::uint32_t)lo_d;
        const std::uint32_t hi = std::min(lo + 1, k_max);
        const double m = std::fabs(x);
        const double v_lo = mag[lo];
        const double v_hi = mag[hi];
        const std::uint32_t kk =
            std::fabs(m - v_lo) <= std::fabs(v_hi - m) ? lo : hi;
        codes[i] = sign | kk;
    }
    return below_range;
}

void
logfmtDecodeScalar(const std::uint32_t *codes, std::size_t n,
                   std::uint32_t sign_bit, const double *mag,
                   double *out)
{
    const std::uint32_t k_mask = sign_bit - 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t code = codes[i];
        const double m = mag[code & k_mask];
        out[i] = (code & sign_bit) ? -m : m;
    }
}

void
dotLanesScalar(const double *a, const double *b, std::size_t ldb,
               std::size_t n, std::size_t cols, double *out)
{
    for (std::size_t c = 0; c < cols; ++c)
        out[c] = fastmath::pinnedDot(a, b + c, n, ldb);
}

void
dotLanesF32Scalar(const double *a, const double *b, std::size_t ldb,
                  std::size_t n, std::size_t cols, float *out)
{
    for (std::size_t c = 0; c < cols; ++c)
        out[c] = fastmath::pinnedDotF32(a, b + c, n, ldb);
}

void
fp22FoldLanesScalar(const double *a, const double *b, std::size_t ldb,
                    std::size_t n, std::size_t group, std::size_t cols,
                    double *reg)
{
    static const FormatKernels &fp22 = formatKernels(kFP22);
    thread_local std::vector<double> products;
    products.resize(std::min(n, group));
    for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t k0 = 0; k0 < n; k0 += group) {
            const std::size_t cnt = std::min(group, n - k0);
            for (std::size_t i = 0; i < cnt; ++i)
                products[i] = a[k0 + i] * b[(k0 + i) * ldb + c];
            // Fp22Register::add: the sum re-truncated to E8M13.
            reg[c] = quantizeTruncateFast(
                fp22, reg[c] + alignedGroupSum({products.data(), cnt}));
        }
    }
}

constexpr KernelTable kScalarTable = [] {
    KernelTable t;
    t.isa = KernelIsa::SCALAR;
    t.quantizeSpan = quantizeSpanScalar;
    t.decodeLutSpan = decodeLutSpanScalar;
    t.encodeScaledSpan = encodeScaledSpanScalar;
    t.absMax = absMaxScalar;
    t.scaleSpan = scaleSpanScalar;
    t.logAbsStats = logAbsStatsScalar;
    t.magTable = magTableScalar;
    t.logfmtEncodeLog = logfmtEncodeLogScalar;
    t.logfmtEncodeLinear = logfmtEncodeLinearScalar;
    t.logfmtDecode = logfmtDecodeScalar;
    t.dotLanes = dotLanesScalar;
    t.dotLanesF32 = dotLanesF32Scalar;
    t.fp22FoldLanes = fp22FoldLanesScalar;
    return t;
}();

} // namespace

const KernelTable *
detail::scalarKernelTable()
{
    return &kScalarTable;
}

} // namespace dsv3::numerics
