/**
 * @file
 * Tests for the minifloat codec: format constants match the FP8/BF16
 * specs, every code round-trips, quantization is idempotent and
 * correctly rounded, and saturation/overflow behave per format.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/rng.hh"
#include "numerics/minifloat.hh"

namespace dsv3::numerics {

/**
 * Print a format parameter by name, not by address, so the test names
 * that gtest lists (and ctest registers) are the same on every run.
 * Found by argument-dependent lookup, hence outside the anonymous
 * namespace.
 */
static void PrintTo(const FloatFormat *fmt, std::ostream *os)
{
    *os << fmt->name;
}

namespace {

TEST(FloatFormat, E4M3Constants)
{
    EXPECT_EQ(kE4M3.totalBits(), 8);
    EXPECT_DOUBLE_EQ(kE4M3.maxFinite(), 448.0);
    EXPECT_DOUBLE_EQ(kE4M3.minNormal(), 1.0 / 64.0);      // 2^-6
    EXPECT_DOUBLE_EQ(kE4M3.minSubnormal(), 1.0 / 512.0);  // 2^-9
}

TEST(FloatFormat, E5M2Constants)
{
    EXPECT_EQ(kE5M2.totalBits(), 8);
    EXPECT_DOUBLE_EQ(kE5M2.maxFinite(), 57344.0);
    EXPECT_DOUBLE_EQ(kE5M2.minNormal(), std::ldexp(1.0, -14));
    EXPECT_DOUBLE_EQ(kE5M2.minSubnormal(), std::ldexp(1.0, -16));
}

TEST(FloatFormat, Bf16MatchesFloatRange)
{
    EXPECT_EQ(kBF16.totalBits(), 16);
    // BF16 max = 0x7F7F = 3.3895e38.
    EXPECT_NEAR(kBF16.maxFinite(), 3.3895313892515355e38, 1e24);
}

TEST(FloatFormat, Fp22IsE8M13)
{
    EXPECT_EQ(kFP22.totalBits(), 22);
    EXPECT_EQ(kFP22.ebits, 8);
    EXPECT_EQ(kFP22.mbits, 13);
}

TEST(Minifloat, DecodeEncodeRoundTripsEveryE4M3Code)
{
    std::set<double> values;
    for (std::uint32_t code = 0; code < kE4M3.codeCount(); ++code) {
        double v = decode(kE4M3, code);
        if (std::isnan(v))
            continue;
        values.insert(v);
        std::uint32_t back = encode(kE4M3, v);
        EXPECT_DOUBLE_EQ(decode(kE4M3, back), v) << "code " << code;
    }
    // E4M3: 256 codes - 2 NaN = 254, minus one duplicate (+-0) = 253.
    EXPECT_EQ(values.size(), 253u);
}

TEST(Minifloat, DecodeEncodeRoundTripsEveryE5M2Code)
{
    for (std::uint32_t code = 0; code < kE5M2.codeCount(); ++code) {
        double v = decode(kE5M2, code);
        if (std::isnan(v))
            continue;
        std::uint32_t back = encode(kE5M2, v);
        EXPECT_DOUBLE_EQ(decode(kE5M2, back), v) << "code " << code;
    }
}

TEST(Minifloat, QuantizeIsIdempotent)
{
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        double x = rng.normal(0.0, 10.0);
        double q = quantize(kE4M3, x);
        EXPECT_DOUBLE_EQ(quantize(kE4M3, q), q);
    }
}

TEST(Minifloat, QuantizeRoundsToNearest)
{
    // 1.0 and its E4M3 neighbor 1.125: midpoint 1.0625 ties to even
    // mantissa (1.0); anything above goes up.
    EXPECT_DOUBLE_EQ(quantize(kE4M3, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(quantize(kE4M3, 1.0624), 1.0);
    EXPECT_DOUBLE_EQ(quantize(kE4M3, 1.0625), 1.0); // tie -> even
    EXPECT_DOUBLE_EQ(quantize(kE4M3, 1.07), 1.125);
    // 1.125 to 1.25 midpoint 1.1875 ties to even (1.25, mantissa 010).
    EXPECT_DOUBLE_EQ(quantize(kE4M3, 1.1875), 1.25);
}

TEST(Minifloat, QuantizeErrorBoundedByHalfUlp)
{
    Rng rng(6);
    for (int i = 0; i < 5000; ++i) {
        double x = rng.uniform(-400.0, 400.0);
        double q = quantize(kE4M3, x);
        int e;
        std::frexp(std::fabs(x), &e);
        double ulp = std::ldexp(1.0, std::max(e - 1, -6) - kE4M3.mbits);
        EXPECT_LE(std::fabs(q - x), ulp * 0.5 + 1e-15)
            << "x=" << x << " q=" << q;
    }
}

TEST(Minifloat, FiniteOnlySaturates)
{
    EXPECT_DOUBLE_EQ(quantize(kE4M3, 1e6), 448.0);
    EXPECT_DOUBLE_EQ(quantize(kE4M3, -1e6), -448.0);
    EXPECT_DOUBLE_EQ(
        quantize(kE4M3, std::numeric_limits<double>::infinity()),
        448.0);
}

TEST(Minifloat, IeeeOverflowsToInfinity)
{
    EXPECT_TRUE(std::isinf(quantize(kE5M2, 1e9)));
    EXPECT_TRUE(std::isinf(quantize(kE5M2, -1e9)));
    EXPECT_DOUBLE_EQ(quantize(kE5M2, 57344.0), 57344.0);
}

TEST(Minifloat, SubnormalsRepresentable)
{
    double sub = kE4M3.minSubnormal();
    EXPECT_DOUBLE_EQ(quantize(kE4M3, sub), sub);
    EXPECT_DOUBLE_EQ(quantize(kE4M3, 3.0 * sub), 3.0 * sub);
    // Below half the smallest subnormal rounds to zero.
    EXPECT_DOUBLE_EQ(quantize(kE4M3, sub * 0.49), 0.0);
}

TEST(Minifloat, SignPreserved)
{
    Rng rng(8);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.normal(0.0, 100.0);
        double q = quantize(kE5M2, x);
        if (q != 0.0) {
            EXPECT_EQ(std::signbit(q), std::signbit(x));
        }
    }
}

TEST(Minifloat, NanHandling)
{
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isnan(quantize(kE4M3, nan)));
    EXPECT_TRUE(isNan(kE4M3, encode(kE4M3, nan)));
    EXPECT_TRUE(isNan(kE5M2, encode(kE5M2, nan)));
}

TEST(Minifloat, InfEncoding)
{
    double inf = std::numeric_limits<double>::infinity();
    std::uint32_t code = encode(kE5M2, inf);
    EXPECT_TRUE(isInf(kE5M2, code));
    EXPECT_DOUBLE_EQ(decode(kE5M2, code), inf);
}

TEST(Minifloat, QuantizeTruncateNeverIncreasesMagnitude)
{
    Rng rng(9);
    for (int i = 0; i < 5000; ++i) {
        double x = rng.normal(0.0, 50.0);
        double q = quantizeTruncate(kFP22, x);
        EXPECT_LE(std::fabs(q), std::fabs(x) + 1e-300);
        if (q != 0.0) {
            EXPECT_EQ(std::signbit(q), std::signbit(x));
        }
    }
}

TEST(Minifloat, TruncateVsNearest)
{
    // 1 + 0.6*ulp: nearest rounds up, truncate rounds down.
    double ulp = ulpOfOne(kE4M3);
    double x = 1.0 + 0.6 * ulp;
    EXPECT_DOUBLE_EQ(quantize(kE4M3, x), 1.0 + ulp);
    EXPECT_DOUBLE_EQ(quantizeTruncate(kE4M3, x), 1.0);
}

TEST(Minifloat, UlpOfOne)
{
    EXPECT_DOUBLE_EQ(ulpOfOne(kE4M3), 0.125);
    EXPECT_DOUBLE_EQ(ulpOfOne(kE5M2), 0.25);
    EXPECT_DOUBLE_EQ(ulpOfOne(kFP22), std::ldexp(1.0, -13));
}

/** Round-trip property across all supported formats. */
class MinifloatFormatTest
    : public ::testing::TestWithParam<const FloatFormat *>
{};

TEST_P(MinifloatFormatTest, QuantizeWithinFormatBounds)
{
    const FloatFormat &fmt = *GetParam();
    Rng rng(77);
    for (int i = 0; i < 3000; ++i) {
        double x = rng.normal(0.0, fmt.maxFinite() / 8.0);
        double q = quantize(fmt, x);
        EXPECT_LE(std::fabs(q), fmt.maxFinite());
    }
}

TEST_P(MinifloatFormatTest, EncodeDecodeConsistent)
{
    const FloatFormat &fmt = *GetParam();
    Rng rng(78);
    for (int i = 0; i < 3000; ++i) {
        double x = rng.normal(0.0, 1.0);
        double q = quantize(fmt, x);
        EXPECT_DOUBLE_EQ(decode(fmt, encode(fmt, x)), q);
    }
}

TEST_P(MinifloatFormatTest, MonotoneOnSamples)
{
    const FloatFormat &fmt = *GetParam();
    // Quantization must be monotone: x <= y => q(x) <= q(y).
    double prev = quantize(fmt, -fmt.maxFinite() * 2.0);
    for (double x = -fmt.maxFinite() * 2.0; x < fmt.maxFinite() * 2.0;
         x += fmt.maxFinite() / 64.0) {
        double q = quantize(fmt, x);
        EXPECT_GE(q, prev) << "x=" << x;
        prev = q;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, MinifloatFormatTest,
    ::testing::Values(&kE4M3, &kE5M2, &kE5M6, &kBF16, &kFP16, &kFP22),
    [](const ::testing::TestParamInfo<const FloatFormat *> &info) {
        return info.param->name;
    });

} // namespace
} // namespace dsv3::numerics
