/**
 * @file
 * Bit-exactness fuzz suite for the runtime-dispatched SIMD kernel
 * tables (numerics/dispatch.hh).
 *
 * Every available SIMD table (AVX2, AVX-512) is compared entry
 * by entry against the scalar oracle table over adversarial inputs:
 * every minifloat format, ragged tail lengths covering n mod width in
 * {0..width-1} for every lane width in use, denormals, NaNs (payload
 * included), +-inf, signed zeros, rounding-tie midpoints, and raw
 * random bit patterns. Results must match bit for bit -- including
 * NaN payloads, tally counters, and reduction results -- because the
 * dispatcher may pick any table and the repo's golden suites assume
 * byte-identical output under every DSV3_KERNEL_DISPATCH choice.
 *
 * Tables the host cannot run are explicitly GTEST_SKIPped, never
 * silently passed. The pure DSV3_KERNEL_DISPATCH resolution logic
 * (detail::chooseIsa) is unit-tested directly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "numerics/dispatch.hh"
#include "numerics/gemm.hh"
#include "numerics/logfmt.hh"
#include "numerics/kernels.hh"
#include "numerics/minifloat.hh"

namespace dsv3::numerics {
namespace {

const FloatFormat *const kAllFormats[] = {&kE4M3, &kE5M2, &kE5M6,
                                          &kBF16, &kFP16, &kFP22};

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t
dbits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/**
 * Adversarial doubles: IEEE specials, denormals, exact powers of two,
 * values around minifloat rounding ties, and raw random bit patterns
 * (which cover NaN payloads and extreme exponents on their own).
 */
std::vector<double>
fuzzInputs(Rng &rng, std::size_t n)
{
    static const double kSpecials[] = {
        0.0,
        -0.0,
        kInf,
        -kInf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(0x7ff800000000beefULL), // NaN payload
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::bit_cast<double>(0x000fffffffffffffULL), // max denormal
        std::numeric_limits<double>::min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        1.0,
        -1.0,
        0.5,
        448.0,    // E4M3 maxFinite
        -448.0,
        57344.0,  // E5M2 maxFinite
        0x1p-6,
        0x1p-9,   // around FP8 subnormal ranges
        3.0 * 0x1p-10,
        0x1.8p-9, // halfway patterns
        0x1.1p0,
    };
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.nextBounded(4)) {
          case 0:
            out.push_back(
                kSpecials[rng.nextBounded(std::size(kSpecials))]);
            break;
          case 1: // raw bits: any double, NaNs/denormals included
            out.push_back(std::bit_cast<double>(rng.nextU64()));
            break;
          case 2: { // moderate-exponent normals (codec hot range)
            const double mag = std::ldexp(
                1.0 + rng.nextDouble(),
                (int)rng.nextBounded(41) - 20);
            out.push_back(rng.bernoulli(0.5) ? -mag : mag);
            break;
          }
          default: { // near-tie values on a coarse grid
            const double q = std::ldexp(
                (double)rng.nextBounded(1 << 10),
                (int)rng.nextBounded(8) - 11);
            const double eps =
                std::ldexp(1.0, -(int)rng.nextBounded(30) - 20);
            out.push_back((rng.bernoulli(0.5) ? -q : q) *
                          (1.0 + eps));
            break;
          }
        }
    }
    return out;
}

/** Lengths covering every n mod width for widths up to 8, plus big. */
const std::size_t kLengths[] = {0, 1,  2,  3,  4,  5,  6,  7,
                                8, 9,  15, 16, 17, 31, 64, 257};

class DispatchTest : public ::testing::TestWithParam<KernelIsa>
{
  protected:
    const KernelTable &oracle()
    {
        return *kernelTable(KernelIsa::SCALAR);
    }
};

/**
 * Bind the table under test, or GTEST_SKIP (never silently pass) when
 * this host can't run it. Must expand in the test body: GTEST_SKIP
 * returns from the enclosing void TestBody.
 */
#define DSV3_REQUIRE_ISA_TABLE(t)                                    \
    const KernelTable *t = kernelTable(GetParam());                  \
    if (!t)                                                          \
        GTEST_SKIP() << isaName(GetParam())                          \
                     << " not available on this host"

/**
 * A format's rounding edges, both signs and each value's two double
 * neighbours: exact ties that round down and up, the mantissa carry
 * into the next binade, in the lowest, a middle and the top binade;
 * the largest value below 2^emin (it rounds up to 2^emin) and the
 * subnormal ties; the overflow midpoint (E4M3 464, E5M2 61440); and
 * DBL_MAX, double subnormals, +-0, +-inf and NaN payloads.
 */
std::vector<double>
roundingEdges(const FloatFormat &fmt)
{
    const double half = std::ldexp(1.0, -fmt.mbits - 1); // ULP(1) / 2
    const double sub = fmt.minSubnormal();
    const int emin = 1 - fmt.bias;
    const int emax = std::ilogb(fmt.maxFinite());
    std::vector<double> mags = {
        std::nextafter(fmt.minNormal(), 0.0),
        fmt.minNormal() - sub / 2,
        sub / 2,
        sub * 1.5,
        sub * 2.5,
        fmt.maxFinite(),
        fmt.maxFinite() + std::ldexp(1.0, emax - fmt.mbits - 1),
    };
    for (int e : {emin, emin + 1, 0, emax}) {
        mags.push_back(std::ldexp(1.0 + half, e));     // tie, rounds down
        mags.push_back(std::ldexp(1.0 + 3 * half, e)); // tie, rounds up
        mags.push_back(std::ldexp(2.0 - half, e));     // carries to 2^(e+1)
    }
    std::vector<double> out;
    for (double m : mags)
        for (double v : {std::nextafter(m, 0.0), m, std::nextafter(m, kInf)})
            out.insert(out.end(), {v, -v});
    const double specials[] = {
        0.0,
        -0.0,
        kInf,
        -kInf,
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(),
        -std::bit_cast<double>(0x000fffffffffffffULL),
        std::bit_cast<double>(0x0000000123456789ULL),
        std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(0xfff800000000beefULL), // -NaN, payload
        std::bit_cast<double>(0x7ff0000000000001ULL), // signalling
    };
    out.insert(out.end(), std::begin(specials), std::end(specials));
    return out;
}

/** Divisors: none, exact powers of two, and inexact ones. */
const double kDivisors[] = {1.0, 0.25, 1024.0, 3.7e-3, 1.9e4, 1e200};

/**
 * The inputs of one divisor: @p edges times @p div, so in / div lands
 * on each edge again where the product is exact, then @p fuzz.
 */
std::vector<double>
scaledInputs(const std::vector<double> &edges,
             const std::vector<double> &fuzz, double div)
{
    std::vector<double> in;
    for (double e : edges)
        in.push_back(std::isnan(e) ? e : e * div);
    in.insert(in.end(), fuzz.begin(), fuzz.end());
    return in;
}

TEST_P(DispatchTest, CodecSpansMatchScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0xc0dec);
    for (const FloatFormat *fmt : kAllFormats) {
        const FormatKernels &k = formatKernels(*fmt);
        SCOPED_TRACE(fmt->name);
        const std::vector<double> edges = roundingEdges(*fmt);
        for (double div : kDivisors) {
            const std::vector<double> all =
                scaledInputs(edges, fuzzInputs(rng, 300), div);
            for (std::size_t n : kLengths) {
                // Ragged lengths from both ends of the input set.
                for (const double *in :
                     {all.data(), all.data() + all.size() - n}) {
                    for (bool tally : {false, true}) {
                        std::vector<double> q_s(n + 1, -7.0),
                            q_v(n + 1, -7.0);
                        std::uint64_t sat_s = 3, flush_s = 5;
                        std::uint64_t sat_v = 3, flush_v = 5;
                        oracle().quantizeSpan(k, in, div, q_s.data(), n,
                                              tally ? &sat_s : nullptr,
                                              tally ? &flush_s : nullptr);
                        t->quantizeSpan(k, in, div, q_v.data(), n,
                                        tally ? &sat_v : nullptr,
                                        tally ? &flush_v : nullptr);
                        for (std::size_t i = 0; i < n; ++i)
                            ASSERT_EQ(dbits(q_v[i]), dbits(q_s[i]))
                                << "quantize n=" << n << " i=" << i
                                << " div=" << div << " in=" << in[i];
                        ASSERT_EQ(q_v[n], -7.0) << "wrote past n=" << n;
                        ASSERT_EQ(sat_v, sat_s) << "n=" << n;
                        ASSERT_EQ(flush_v, flush_s) << "n=" << n;
                    }
                }
            }
        }
    }
}

/**
 * The scalar table's quantizeSpan -- quantizeValue() on the double's
 * bits -- is the reference codec: quantizeRef(in / div) with NaN
 * payloads kept, and the tallies counted longhand. The fuzz above
 * holds every SIMD table to it.
 */
TEST(QuantizeSpan, ScalarTableMatchesReferenceCodec)
{
    const KernelTable &scalar = *kernelTable(KernelIsa::SCALAR);
    Rng rng(0x9a1e);
    for (const FloatFormat *fmt : kAllFormats) {
        const FormatKernels &k = formatKernels(*fmt);
        SCOPED_TRACE(fmt->name);
        const std::vector<double> edges = roundingEdges(*fmt);
        for (double div : kDivisors) {
            const std::vector<double> in =
                scaledInputs(edges, fuzzInputs(rng, 20000), div);
            const std::size_t n = in.size();
            std::vector<double> q(n);
            std::uint64_t sat = 0, flush = 0;
            scalar.quantizeSpan(k, in.data(), div, q.data(), n, &sat,
                                &flush);
            std::uint64_t want_sat = 0, want_flush = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const double x = div == 1.0 ? in[i] : in[i] / div;
                const double want = quantizeRef(*fmt, x);
                ASSERT_EQ(dbits(q[i]), dbits(want))
                    << "i=" << i << " div=" << div << " in=" << in[i];
                want_sat += std::fabs(x) > fmt->maxFinite();
                want_flush += x != 0.0 && want == 0.0;
            }
            EXPECT_EQ(sat, want_sat) << "div=" << div;
            EXPECT_EQ(flush, want_flush) << "div=" << div;
        }
    }
}

TEST_P(DispatchTest, AbsMaxAndScaleSpanMatchScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0xab5);
    const double inits[] = {0.0, 1.5, 1e300, 1e-300};
    for (std::size_t n : kLengths) {
        const std::vector<double> in = fuzzInputs(rng, n);
        for (double init : inits) {
            ASSERT_EQ(dbits(t->absMax(in.data(), n, init)),
                      dbits(oracle().absMax(in.data(), n, init)))
                << "absMax n=" << n << " init=" << init;
        }
        // [n] is a guard element neither table may write.
        std::vector<double> a = in, b = in;
        a.push_back(-7.0);
        b.push_back(-7.0);
        const double s = rng.uniform(-3.0, 3.0);
        oracle().scaleSpan(a.data(), s, n);
        t->scaleSpan(b.data(), s, n);
        for (std::size_t i = 0; i <= n; ++i)
            ASSERT_EQ(dbits(b[i]), dbits(a[i]))
                << "scaleSpan n=" << n << " i=" << i;
        ASSERT_EQ(b[n], -7.0) << "scaleSpan wrote past n=" << n;
    }
}

TEST_P(DispatchTest, LogFamilyMatchesScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0x109f37);
    for (std::size_t n : kLengths) {
        const std::vector<double> in = fuzzInputs(rng, n);
        std::vector<double> logs_s(n + 1, -7.0), logs_v(n + 1, -7.0);
        double min_s = -1, max_s = -1, min_v = -1, max_v = -1;
        const bool any_s = oracle().logAbsStats(
            in.data(), logs_s.data(), n, &min_s, &max_s);
        const bool any_v = t->logAbsStats(in.data(), logs_v.data(), n,
                                          &min_v, &max_v);
        ASSERT_EQ(any_v, any_s) << "n=" << n;
        ASSERT_EQ(dbits(min_v), dbits(min_s)) << "n=" << n;
        ASSERT_EQ(dbits(max_v), dbits(max_s)) << "n=" << n;
        for (std::size_t i = 0; i <= n; ++i)
            ASSERT_EQ(dbits(logs_v[i]), dbits(logs_s[i]))
                << "logs n=" << n << " i=" << i
                << " in=" << (i < n ? in[i] : 0.0);
        if (!any_s || n == 0)
            continue;

        for (int bits : {4, 8, 10}) {
            const std::uint32_t sign_bit = 1u << (bits - 1);
            const std::uint32_t k_max = sign_bit - 1;
            const double step =
                k_max > 1 ? (max_s - min_s) / (double)(k_max - 1)
                          : 0.0;
            if (step == 0.0)
                continue; // degenerate tiles stay on the scalar path
            std::vector<double> mag_s(k_max + 1, -7.0);
            std::vector<double> mag_v(k_max + 1, -7.0);
            oracle().magTable(min_s, step, k_max, mag_s.data());
            t->magTable(min_s, step, k_max, mag_v.data());
            for (std::size_t j = 0; j <= k_max; ++j)
                ASSERT_EQ(dbits(mag_v[j]), dbits(mag_s[j]))
                    << "mag bits=" << bits << " j=" << j;

            // Codes start zeroed; [n] is a guard neither table may
            // write.
            constexpr std::uint32_t kGuard = 0xabababab;
            std::vector<std::uint32_t> c_s(n + 1, 0), c_v(n + 1, 0);
            c_s[n] = c_v[n] = kGuard;
            const std::uint64_t b_s = oracle().logfmtEncodeLog(
                in.data(), logs_s.data(), n, min_s, step, k_max,
                sign_bit, c_s.data());
            const std::uint64_t b_v = t->logfmtEncodeLog(
                in.data(), logs_s.data(), n, min_s, step, k_max,
                sign_bit, c_v.data());
            ASSERT_EQ(b_v, b_s) << "bits=" << bits << " n=" << n;
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(c_v[i], c_s[i])
                    << "encodeLog bits=" << bits << " i=" << i;
            ASSERT_EQ(c_v[n], kGuard) << "encodeLog wrote past n=" << n;

            std::fill(c_s.begin(), c_s.end() - 1, 0u);
            std::fill(c_v.begin(), c_v.end() - 1, 0u);
            const std::uint64_t lb_s = oracle().logfmtEncodeLinear(
                in.data(), logs_s.data(), n, min_s, step, k_max,
                sign_bit, mag_s.data(), c_s.data());
            const std::uint64_t lb_v = t->logfmtEncodeLinear(
                in.data(), logs_s.data(), n, min_s, step, k_max,
                sign_bit, mag_s.data(), c_v.data());
            ASSERT_EQ(lb_v, lb_s) << "bits=" << bits << " n=" << n;
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(c_v[i], c_s[i])
                    << "encodeLinear bits=" << bits << " i=" << i;
            ASSERT_EQ(c_v[n], kGuard)
                << "encodeLinear wrote past n=" << n;

            std::vector<std::uint32_t> codes(n);
            for (auto &c : codes)
                c = (std::uint32_t)rng.nextBounded(k_max + 1) |
                    (rng.bernoulli(0.5) ? sign_bit : 0u);
            std::vector<double> d_s(n + 1, -7.0), d_v(n + 1, -7.0);
            oracle().logfmtDecode(codes.data(), n, sign_bit,
                                  mag_s.data(), d_s.data());
            t->logfmtDecode(codes.data(), n, sign_bit, mag_s.data(),
                            d_v.data());
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(dbits(d_v[i]), dbits(d_s[i]))
                    << "decode bits=" << bits << " i=" << i;
        }
    }
}

/** Bit-compare per-cell lane-kernel results @p got against @p want. */
template <class T>
void
expectLanesEqual(const std::vector<T> &got, const std::vector<T> &want,
                 const std::string &what)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
        if constexpr (sizeof(T) == 8) {
            ASSERT_EQ(dbits(got[c]), dbits(want[c])) << what << " c=" << c;
        } else {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(got[c]),
                      std::bit_cast<std::uint32_t>(want[c]))
                << what << " c=" << c;
        }
    }
}

/**
 * fp22FoldLanes of table @p t against scalar over one A row and a
 * row-major B panel with leading dimension @p ldb, from register
 * values @p reg; a guard register past @p cols must survive.
 */
void
expectFp22FoldMatches(const KernelTable &t, const KernelTable &scalar,
                      const std::vector<double> &a,
                      const std::vector<double> &b, std::size_t ldb,
                      std::size_t cols, std::size_t group,
                      const std::vector<double> &reg,
                      const std::string &what)
{
    std::vector<double> got = reg, want = reg;
    got.push_back(-7.0);
    want.push_back(-7.0);
    t.fp22FoldLanes(a.data(), b.data(), ldb, a.size(), group, cols,
                    got.data());
    scalar.fp22FoldLanes(a.data(), b.data(), ldb, a.size(), group, cols,
                         want.data());
    expectLanesEqual(got, want,
                     what + " group=" + std::to_string(group));
    ASSERT_EQ(got[cols], -7.0) << what << " wrote past cols";
}

TEST_P(DispatchTest, GemmFamilyMatchesScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0x93e);
    const FormatKernels &fp22 = formatKernels(kFP22);
    // K lengths off multiples of 8 and of every group size, plus
    // exact multiples.
    const std::size_t lengths[] = {0, 1, 5, 8, 13, 31, 32, 33, 97, 130};
    const std::size_t groups[] = {1, 7, 32, 48, 64, 96};
    for (std::size_t cols = 1; cols <= 17; ++cols) {
        // B is read in place from a wider matrix.
        const std::size_t ldb = cols + 3;
        for (std::size_t n : lengths) {
            const std::string what = "cols=" + std::to_string(cols) +
                                     " n=" + std::to_string(n);
            // Finite operands: the dots feed FP32/BF16 accumulation.
            // Each B column gets its own binade spread so FP22 groups
            // see varied max exponents.
            std::vector<double> a(n), b(n * ldb);
            for (double &x : a)
                x = rng.normal();
            for (std::size_t j = 0; j < ldb; ++j) {
                const int e = (int)rng.nextBounded(41) - 20;
                for (std::size_t k = 0; k < n; ++k)
                    b[k * ldb + j] = std::ldexp(rng.normal(), e);
            }

            // [cols] is a guard cell neither table may write.
            std::vector<double> d_v(cols + 1, -7.0);
            std::vector<double> d_s(cols + 1, -7.0);
            t->dotLanes(a.data(), b.data(), ldb, n, cols, d_v.data());
            oracle().dotLanes(a.data(), b.data(), ldb, n, cols,
                              d_s.data());
            expectLanesEqual(d_v, d_s, "dotLanes " + what);
            ASSERT_EQ(d_v[cols], -7.0) << "dotLanes wrote past " << what;

            std::vector<float> f_v(cols + 1, -7.0f);
            std::vector<float> f_s(cols + 1, -7.0f);
            t->dotLanesF32(a.data(), b.data(), ldb, n, cols, f_v.data());
            oracle().dotLanesF32(a.data(), b.data(), ldb, n, cols,
                                 f_s.data());
            expectLanesEqual(f_v, f_s, "dotLanesF32 " + what);
            ASSERT_EQ(f_v[cols], -7.0f)
                << "dotLanesF32 wrote past " << what;

            // Registers start at zero (a fresh tile) or at a carried
            // FP22 value (the no-promotion arm).
            std::vector<double> reg(cols, 0.0);
            if (n % 2)
                for (double &r : reg)
                    r = quantizeTruncateFast(fp22,
                                             rng.normal() * 64.0);
            for (std::size_t g : groups)
                expectFp22FoldMatches(*t, oracle(), a, b, ldb, cols, g,
                                      reg, "fp22FoldLanes " + what);
        }
    }
}

/**
 * Every lane the SIMD FP22 fold cannot take on its fast path -- a
 * group too large for its exact integer sum or with a subnormal
 * quantum, or a register value that is not zero or E8M13-normal --
 * must run the scalar sequence. Each column below forces one such
 * case next to ordinary lanes; the asserts on the products and on
 * the scalar results show each case reached the regime it names.
 */
TEST_P(DispatchTest, Fp22FoldFallbackLanesMatchScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0xf22);
    enum Col : std::size_t
    {
        ZERO,          // all products +0 (max magnitude bits 0)
        NEG_ZERO,      // all products -0
        NAN_PROD,      // one NaN product
        INF_PROD,      // one +Inf product
        INF_MINUS_INF, // +Inf and -Inf in one group: the sum is NaN
        SUB_QUANTUM,   // max product < 2^-1010: quantum subnormal
        OUT_OF_GATE,   // products >= 2^983: past the exact-sum range
        SATURATE,      // fast group sums; the register overflows
        BELOW_FP22,    // fast group sums; the register stays < 2^-126
        kCases,
    };
    const std::size_t cols = kCases + 3; // ordinary lanes after them
    for (std::size_t n : {std::size_t{64}, std::size_t{77}}) {
        // Positive A keeps each case's products one-signed.
        std::vector<double> a(n), b(n * cols);
        for (double &x : a)
            x = std::fabs(rng.normal()) + 0.5;
        for (double &x : b)
            x = rng.normal();
        for (std::size_t k = 0; k < n; ++k) {
            double *row = b.data() + k * cols;
            const double u = std::fabs(rng.normal()) + 1.0;
            row[ZERO] = 0.0;
            row[NEG_ZERO] = -0.0;
            row[SUB_QUANTUM] = std::ldexp(rng.normal(), -1016);
            row[OUT_OF_GATE] = std::ldexp(u, 990);
            row[SATURATE] = std::ldexp(u, 126);
            row[BELOW_FP22] = std::ldexp(u, -140);
            ASSERT_LT(std::fabs(a[k] * row[SUB_QUANTUM]), 0x1p-1010);
            ASSERT_GE(a[k] * row[OUT_OF_GATE], 0x1p983);
        }
        b[3 * cols + NAN_PROD] = std::numeric_limits<double>::quiet_NaN();
        b[5 * cols + INF_PROD] = kInf;
        b[1 * cols + INF_MINUS_INF] = kInf;
        b[2 * cols + INF_MINUS_INF] = -kInf;

        for (std::size_t g : {std::size_t{7}, std::size_t{32},
                              std::size_t{96}}) {
            const std::vector<double> zero(cols, 0.0);
            expectFp22FoldMatches(*t, oracle(), a, b, cols, cols, g,
                                  zero, "n=" + std::to_string(n));
            std::vector<double> want(cols, 0.0);
            oracle().fp22FoldLanes(a.data(), b.data(), cols, n, g, cols,
                                   want.data());
            EXPECT_EQ(dbits(want[ZERO]), dbits(0.0));
            EXPECT_EQ(dbits(want[NEG_ZERO]), dbits(0.0));
            EXPECT_TRUE(std::isnan(want[NAN_PROD]));
            EXPECT_EQ(want[INF_PROD], kInf);
            EXPECT_TRUE(std::isnan(want[INF_MINUS_INF]));
            EXPECT_EQ(want[OUT_OF_GATE], kFP22.maxFinite());
            EXPECT_EQ(want[SATURATE], kFP22.maxFinite());
            EXPECT_GT(want[BELOW_FP22], 0.0);
            EXPECT_LT(want[BELOW_FP22], 0x1p-126);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, DispatchTest,
    ::testing::Values(KernelIsa::AVX2, KernelIsa::AVX512),
    [](const ::testing::TestParamInfo<KernelIsa> &info) {
        return std::string(isaName(info.param));
    });

// ---------------------------------------------------------------
// DSV3_KERNEL_DISPATCH resolution logic (pure, unit-tested)
// ---------------------------------------------------------------

unsigned
maskOf(std::initializer_list<KernelIsa> isas)
{
    unsigned m = 0;
    for (KernelIsa isa : isas)
        m |= 1u << (int)isa;
    return m;
}

TEST(DispatchChoice, UnsetPicksBestAvailable)
{
    using detail::chooseIsa;
    EXPECT_EQ(chooseIsa(nullptr, maskOf({KernelIsa::AVX2,
                                         KernelIsa::AVX512}))
                  .isa,
              KernelIsa::AVX512);
    EXPECT_EQ(chooseIsa("", maskOf({KernelIsa::AVX2})).isa,
              KernelIsa::AVX2);
    EXPECT_EQ(chooseIsa(nullptr, maskOf({KernelIsa::AVX512})).isa,
              KernelIsa::AVX512);
    EXPECT_EQ(chooseIsa(nullptr, 0).isa, KernelIsa::SCALAR);
    EXPECT_FALSE(chooseIsa(nullptr, 0).forced);
}

TEST(DispatchChoice, ForcedIsaIsHonoredCaseInsensitively)
{
    using detail::chooseIsa;
    const unsigned mask =
        maskOf({KernelIsa::AVX2, KernelIsa::AVX512});
    const detail::DispatchChoice c = chooseIsa("avx2", mask);
    EXPECT_EQ(c.isa, KernelIsa::AVX2);
    EXPECT_TRUE(c.forced);
    EXPECT_FALSE(c.unsupported);
    EXPECT_FALSE(c.unknown);
    EXPECT_EQ(chooseIsa("AVX512", mask).isa, KernelIsa::AVX512);
    EXPECT_EQ(chooseIsa("Scalar", mask).isa, KernelIsa::SCALAR);
    EXPECT_TRUE(chooseIsa("Scalar", mask).forced);
}

TEST(DispatchChoice, UnsupportedIsaFallsBackToBestAvailable)
{
    using detail::chooseIsa;
    const detail::DispatchChoice c =
        detail::chooseIsa("avx512", maskOf({KernelIsa::AVX2}));
    EXPECT_EQ(c.isa, KernelIsa::AVX2);
    EXPECT_FALSE(c.forced);
    EXPECT_TRUE(c.unsupported);
    EXPECT_FALSE(c.unknown);
}

TEST(DispatchChoice, UnknownNameFallsBackToBestAvailable)
{
    using detail::chooseIsa;
    const detail::DispatchChoice c =
        detail::chooseIsa("sse9", maskOf({KernelIsa::AVX2}));
    EXPECT_EQ(c.isa, KernelIsa::AVX2);
    EXPECT_FALSE(c.forced);
    EXPECT_FALSE(c.unsupported);
    EXPECT_TRUE(c.unknown);
    // No NEON tier: the name takes the unknown-value path.
    EXPECT_TRUE(chooseIsa("neon", maskOf({KernelIsa::AVX2})).unknown);
}

TEST(Dispatch, ScalarTableAlwaysAvailableAndComplete)
{
    const KernelTable *s = kernelTable(KernelIsa::SCALAR);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->isa, KernelIsa::SCALAR);
    EXPECT_NE(s->quantizeSpan, nullptr);
    EXPECT_NE(s->fp22FoldLanes, nullptr);
}

TEST(Dispatch, ActiveTableIsAvailableAndGapFilled)
{
    const KernelTable &kt = kernels();
    EXPECT_EQ(kt.isa, activeIsa());
    EXPECT_NE(kernelTable(activeIsa()), nullptr);
    // Every available table fills every entry itself.
    for (KernelIsa isa :
         {KernelIsa::SCALAR, KernelIsa::AVX2, KernelIsa::AVX512}) {
        const KernelTable *t = kernelTable(isa);
        if (!t)
            continue;
        EXPECT_NE(t->quantizeSpan, nullptr) << isaName(isa);
        EXPECT_NE(t->absMax, nullptr) << isaName(isa);
        EXPECT_NE(t->scaleSpan, nullptr) << isaName(isa);
        EXPECT_NE(t->logAbsStats, nullptr) << isaName(isa);
        EXPECT_NE(t->magTable, nullptr) << isaName(isa);
        EXPECT_NE(t->logfmtEncodeLog, nullptr) << isaName(isa);
        EXPECT_NE(t->logfmtEncodeLinear, nullptr) << isaName(isa);
        EXPECT_NE(t->logfmtDecode, nullptr) << isaName(isa);
        EXPECT_NE(t->dotLanes, nullptr) << isaName(isa);
        EXPECT_NE(t->dotLanesF32, nullptr) << isaName(isa);
        EXPECT_NE(t->fp22FoldLanes, nullptr) << isaName(isa);
    }
}

/**
 * End-to-end: the full quantized-GEMM and LogFMT pipelines produce
 * byte-identical results under every available dispatch table, at
 * thread widths 1, 2, and the hardware default. This is the
 * product-level version of the per-entry fuzz above -- it exercises
 * the real call sites (quantize passes, packed panels, magnitude
 * cache, FP22 group sums) rather than the kernel entries in
 * isolation.
 */
TEST(Dispatch, PipelinesBitIdenticalAcrossTablesAndWidths)
{
    struct WidthGuard
    {
        explicit WidthGuard(std::size_t w) { setParallelForWidth(w); }
        ~WidthGuard() { setParallelForWidth(0); }
    };

    Rng rng(77);
    Matrix a(33, 160), b(160, 21);
    a.fillActivationLike(rng, 1.0, 0.02, 50.0);
    b.fillNormal(rng);
    std::vector<double> tile(300);
    for (auto &x : tile)
        x = rng.normal();
    tile[7] = 0.0;
    tile[13] = -0.0;

    GemmOptions opt;
    opt.fmt = &kE4M3;
    opt.tileK = 64;

    for (AccumMode mode : {AccumMode::FP32, AccumMode::FP22}) {
        opt.accum = mode;
        opt.fineGrained = true;
        Matrix want_q = gemmQuantizedRef(a, b, opt);
        Matrix want_bf16 = gemmBf16Ref(a, b);
        LogFmtCodec codec(8, LogFmtRounding::LINEAR_SPACE);
        const std::vector<double> want_rt = codec.roundTrip(tile);

        for (KernelIsa isa :
             {KernelIsa::SCALAR, KernelIsa::AVX2, KernelIsa::AVX512}) {
            const KernelTable *t = kernelTable(isa);
            if (!t)
                continue; // per-entry suites GTEST_SKIP loudly
            ScopedKernelOverride o(*t);
            for (std::size_t w : {std::size_t{1}, std::size_t{2},
                                  std::size_t{0}}) {
                WidthGuard guard(w);
                SCOPED_TRACE(std::string(isaName(isa)) + " w=" +
                             std::to_string(w));
                Matrix got = gemmQuantized(a, b, opt);
                ASSERT_EQ(got.rows(), want_q.rows());
                for (std::size_t r = 0; r < got.rows(); ++r)
                    for (std::size_t c = 0; c < got.cols(); ++c)
                        ASSERT_EQ(dbits(got.at(r, c)),
                                  dbits(want_q.at(r, c)))
                            << "gemmQuantized (" << r << "," << c
                            << ")";
                Matrix gotb = gemmBf16(a, b);
                for (std::size_t r = 0; r < gotb.rows(); ++r)
                    for (std::size_t c = 0; c < gotb.cols(); ++c)
                        ASSERT_EQ(dbits(gotb.at(r, c)),
                                  dbits(want_bf16.at(r, c)))
                            << "gemmBf16 (" << r << "," << c << ")";
                const std::vector<double> rt = codec.roundTrip(tile);
                for (std::size_t i = 0; i < rt.size(); ++i)
                    ASSERT_EQ(dbits(rt[i]), dbits(want_rt[i]))
                        << "roundTrip i=" << i;
            }
        }
    }
}

TEST(Dispatch, ScopedOverrideSwapsActiveTable)
{
    const KernelIsa before = activeIsa();
    {
        ScopedKernelOverride o(*kernelTable(KernelIsa::SCALAR));
        EXPECT_EQ(activeIsa(), KernelIsa::SCALAR);
        EXPECT_EQ(kernels().isa, KernelIsa::SCALAR);
    }
    EXPECT_EQ(activeIsa(), before);
}

} // namespace
} // namespace dsv3::numerics
