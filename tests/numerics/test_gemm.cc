/**
 * @file
 * Tests for the reference and quantized GEMM pipelines.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "numerics/error.hh"
#include "numerics/gemm.hh"
#include "obs/registry.hh"

namespace dsv3::numerics {
namespace {

Matrix
randomMatrix(std::size_t r, std::size_t c, std::uint64_t seed,
             double stddev = 1.0)
{
    Rng rng(seed);
    Matrix m(r, c);
    m.fillNormal(rng, 0.0, stddev);
    return m;
}

TEST(GemmRef, IdentityPreserves)
{
    Matrix a = randomMatrix(5, 5, 1);
    Matrix eye(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        eye.at(i, i) = 1.0;
    Matrix c = gemmRef(a, eye);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_DOUBLE_EQ(c.at(i, j), a.at(i, j));
}

TEST(GemmRef, KnownSmallProduct)
{
    Matrix a(2, 3), b(3, 2);
    double av[] = {1, 2, 3, 4, 5, 6};
    double bv[] = {7, 8, 9, 10, 11, 12};
    a.data().assign(av, av + 6);
    b.data().assign(bv, bv + 6);
    Matrix c = gemmRef(a, b);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(GemmBf16, CloseToReference)
{
    Matrix a = randomMatrix(16, 256, 2);
    Matrix b = randomMatrix(256, 16, 3, 0.05);
    double err = relL2Error(gemmBf16(a, b), gemmRef(a, b));
    EXPECT_GT(err, 0.0);
    EXPECT_LT(err, 0.01); // BF16 has ~2-3 decimal digits
}

TEST(GemmQuantized, FineGrainedFp22TracksIdealClosely)
{
    Matrix a = randomMatrix(8, 512, 4);
    Matrix b = randomMatrix(512, 8, 5, 0.05);
    GemmOptions ideal;
    ideal.accum = AccumMode::FP32;
    GemmOptions hopper;
    hopper.accum = AccumMode::FP22;
    double acc_err = relL2Error(gemmQuantized(a, b, hopper),
                                gemmQuantized(a, b, ideal));
    EXPECT_LT(acc_err, 1e-3);
}

TEST(GemmQuantized, ErrorSmallerThanNaiveHopper)
{
    Matrix a = randomMatrix(8, 8192, 6);
    Matrix b = randomMatrix(8192, 8, 7, 0.05);
    Matrix ref = gemmRef(a, b);

    GemmOptions deepgemm; // fine-grained + FP22 + promotion
    GemmOptions naive;
    naive.fineGrained = false;
    naive.accum = AccumMode::FP22_NO_PROMOTION;

    // Isolate accumulation: compare against FP32 accumulation of the
    // same quantization choice.
    GemmOptions fine_fp32 = deepgemm;
    fine_fp32.accum = AccumMode::FP32;
    GemmOptions coarse_fp32 = naive;
    coarse_fp32.accum = AccumMode::FP32;

    double deepgemm_acc_err =
        relL2Error(gemmQuantized(a, b, deepgemm),
                   gemmQuantized(a, b, fine_fp32));
    double naive_acc_err =
        relL2Error(gemmQuantized(a, b, naive),
                   gemmQuantized(a, b, coarse_fp32));
    EXPECT_LT(deepgemm_acc_err * 5.0, naive_acc_err);
}

TEST(GemmQuantized, Fp8QuantizationErrorInExpectedBand)
{
    Matrix a = randomMatrix(16, 1024, 8);
    Matrix b = randomMatrix(1024, 16, 9, 0.05);
    GemmOptions opt;
    double err = relL2Error(gemmQuantized(a, b, opt), gemmRef(a, b));
    // E4M3 carries ~2 significant digits; a length-1024 dot product
    // averages the elementwise noise down into the low percents.
    EXPECT_GT(err, 1e-4);
    EXPECT_LT(err, 0.1);
}

TEST(GemmQuantized, NonMultipleKHandled)
{
    Matrix a = randomMatrix(4, 200, 10);
    Matrix b = randomMatrix(200, 4, 11, 0.05);
    GemmOptions opt;
    Matrix c = gemmQuantized(a, b, opt);
    double err = relL2Error(c, gemmRef(a, b));
    EXPECT_LT(err, 0.1);
}

TEST(GemmQuantized, FineGrainedScalesContainOutliers)
{
    Rng rng(12);
    Matrix a(8, 512);
    a.fillActivationLike(rng, 1.0, 0.02, 200.0);
    Matrix b = randomMatrix(512, 8, 13, 0.05);
    Matrix ref = gemmRef(a, b);

    GemmOptions fine;
    GemmOptions coarse;
    coarse.fineGrained = false;
    double fine_err = relL2Error(gemmQuantized(a, b, fine), ref);
    double coarse_err = relL2Error(gemmQuantized(a, b, coarse), ref);
    EXPECT_LT(fine_err, coarse_err);
}

TEST(GemmQuantized, EmptyKGivesZeros)
{
    const Matrix a(3, 0), b(0, 5);
    for (AccumMode mode : {AccumMode::FP32, AccumMode::FP22,
                           AccumMode::FP22_NO_PROMOTION}) {
        GemmOptions opt;
        opt.accum = mode;
        opt.fineGrained = mode != AccumMode::FP22_NO_PROMOTION;
        const Matrix c = gemmQuantized(a, b, opt);
        ASSERT_EQ(c.rows(), 3u);
        ASSERT_EQ(c.cols(), 5u);
        for (double x : c.data())
            EXPECT_EQ(x, 0.0) << accumModeName(mode);
        EXPECT_EQ(gemmQuantizedRef(a, b, opt).data(), c.data());
    }
}

TEST(GemmQuantized, WiderFormatCloserToRef)
{
    Matrix a = randomMatrix(8, 256, 14);
    Matrix b = randomMatrix(256, 8, 15, 0.05);
    Matrix ref = gemmRef(a, b);
    GemmOptions fp8;
    GemmOptions e5m6;
    e5m6.fmt = &kE5M6;
    EXPECT_LT(relL2Error(gemmQuantized(a, b, e5m6), ref),
              relL2Error(gemmQuantized(a, b, fp8), ref));
}

TEST(GemmQuantizedDeath, NoPromotionRejectsFineGrained)
{
    Matrix a = randomMatrix(2, 128, 16);
    Matrix b = randomMatrix(128, 2, 17);
    GemmOptions opt;
    opt.fineGrained = true;
    opt.accum = AccumMode::FP22_NO_PROMOTION;
    EXPECT_DEATH((void)gemmQuantized(a, b, opt), "fine-grained");
}

TEST(GemmQuantizedDeath, Fp22RejectsEmptyGroups)
{
    Matrix a = randomMatrix(2, 64, 18);
    Matrix b = randomMatrix(64, 2, 19);
    GemmOptions opt;
    opt.groupSize = 0;
    for (AccumMode mode :
         {AccumMode::FP22, AccumMode::FP22_NO_PROMOTION}) {
        opt.accum = mode;
        opt.fineGrained = mode == AccumMode::FP22;
        EXPECT_DEATH((void)gemmQuantized(a, b, opt), "groupSize");
        EXPECT_DEATH((void)gemmQuantizedRef(a, b, opt), "groupSize");
    }
}

TEST(GemmQuantizedDeath, RejectsZeroTileK)
{
    Matrix a = randomMatrix(2, 64, 20);
    Matrix b = randomMatrix(64, 2, 21);
    GemmOptions opt;
    opt.tileK = 0;
    EXPECT_DEATH((void)gemmQuantized(a, b, opt), "GemmOptions::tileK");
    EXPECT_DEATH((void)gemmQuantizedRef(a, b, opt), "GemmOptions::tileK");
}

TEST(GemmQuantizedDeath, RejectsNullFormat)
{
    Matrix a = randomMatrix(2, 64, 22);
    Matrix b = randomMatrix(64, 2, 23);
    GemmOptions opt;
    opt.fmt = nullptr;
    EXPECT_DEATH((void)gemmQuantized(a, b, opt), "GemmOptions::fmt");
    EXPECT_DEATH((void)gemmQuantizedRef(a, b, opt), "GemmOptions::fmt");
}

std::uint64_t
dbits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** numerics.quantize.{values,saturated,flushed_to_zero} as read now. */
std::vector<std::uint64_t>
quantizeTallies()
{
    std::vector<std::uint64_t> v;
    for (const char *name :
         {"numerics.quantize.values", "numerics.quantize.saturated",
          "numerics.quantize.flushed_to_zero"})
        v.push_back(obs::Registry::global().counter(name).value());
    return v;
}

std::vector<std::uint64_t>
minus(std::vector<std::uint64_t> a, const std::vector<std::uint64_t> &b)
{
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] -= b[i];
    return a;
}

/**
 * A ragged operand with every value the packing path treats apart:
 * +-0, double subnormals, a region of nothing but subnormals (its
 * scale underflows), and, unless @p finite is set, NaN and an infinity
 * whose region flushes every other element to zero. The heavy-tailed
 * body saturates a few elements after scaling (amax / (amax / max)
 * can round past max).
 */
Matrix
edgeOperand(std::size_t rows, std::size_t cols, std::uint64_t seed,
            bool finite)
{
    EXPECT_GE(rows, 3u);
    EXPECT_GE(cols, 4u);
    Rng rng(seed);
    Matrix m(rows, cols);
    m.fillActivationLike(rng, 1.0, 0.05, 300.0);
    const double sub = std::numeric_limits<double>::denorm_min();
    m.at(0, 0) = 0.0;
    m.at(0, 1) = -0.0;
    m.at(0, 2) = 37 * sub;
    m.at(rows - 1, cols - 1) = -1e-310;
    for (std::size_t c = 0; c < cols; ++c)
        m.at(rows / 2, c) = (double)(c % 5) * sub;
    if (!finite) {
        m.at(0, 3) = std::numeric_limits<double>::quiet_NaN();
        m.at(rows - 1, 1) = std::bit_cast<double>(0xfff000000000abcdULL);
        m.at(rows - 1, cols - 2) = -std::numeric_limits<double>::infinity();
    }
    return m;
}

/**
 * The packing path against QuantizedMatrix: raw values (NaN lanes
 * included) and scales bit for bit, the same numerics.quantize.*
 * tallies, and, on finite inputs, gemmQuantized bit-equal to
 * gemmQuantizedRef.
 */
TEST(GemmQuantized, PackingMatchesQuantizedMatrix)
{
    ASSERT_TRUE(obs::statsEnabled());
    const struct
    {
        std::size_t m, k, n;
    } shapes[] = {{5, 300, 13}, {3, 131, 7}, {9, 257, 130}};
    std::uint64_t seed = 100;
    for (const FloatFormat *fmt : {&kE4M3, &kE5M2}) {
        // The operands reach both tallies (a per-tensor scale of +inf
        // divides everything to exact zeros, which are no flushes).
        std::uint64_t saturated = 0, flushed = 0;
        for (Granularity g :
             {Granularity::TILE_1X128, Granularity::BLOCK_128X128,
              Granularity::PER_TENSOR}) {
            for (const auto &sh : shapes) {
                const std::string what = std::string(fmt->name) + " " +
                    granularityName(g) + " " + std::to_string(sh.k) +
                    "x" + std::to_string(sh.n);
                const Matrix b = edgeOperand(sh.k, sh.n, ++seed, false);
                const std::size_t ld = sh.n + 3;
                std::vector<double> packed(sh.k * ld, -7.0);
                const auto t0 = quantizeTallies();
                const std::vector<double> scales =
                    packQuantized(b, *fmt, g, 128, packed.data(), ld);
                const auto t1 = quantizeTallies();
                const QuantizedMatrix q(b, *fmt, g, 128);
                const auto t2 = quantizeTallies();
                EXPECT_EQ(minus(t1, t0), minus(t2, t1)) << what;
                saturated += t1[1] - t0[1];
                flushed += t1[2] - t0[2];

                std::vector<double> raw(sh.k * sh.n);
                q.decodeRawInto(raw.data());
                for (std::size_t r = 0; r < sh.k; ++r) {
                    for (std::size_t c = 0; c < sh.n; ++c)
                        ASSERT_EQ(dbits(packed[r * ld + c]),
                                  dbits(raw[r * sh.n + c]))
                            << what << " (" << r << "," << c << ")";
                    for (std::size_t c = sh.n; c < ld; ++c)
                        ASSERT_EQ(packed[r * ld + c], -7.0) << what;
                }
                ASSERT_EQ(scales.size(), q.scaleGrid().size()) << what;
                for (std::size_t i = 0; i < scales.size(); ++i)
                    ASSERT_EQ(dbits(scales[i]), dbits(q.scaleGrid()[i]))
                        << what << " scale " << i;
            }
        }
        EXPECT_GT(saturated, 0u) << fmt->name;
        EXPECT_GT(flushed, 0u) << fmt->name;

        for (const auto &sh : shapes) {
            for (bool fine : {true, false}) {
                GemmOptions opt;
                opt.fmt = fmt;
                opt.fineGrained = fine;
                opt.accum = fine ? AccumMode::FP22
                                 : AccumMode::FP22_NO_PROMOTION;
                const std::string what = std::string(fmt->name) +
                    (fine ? " fine " : " per-tensor ") +
                    std::to_string(sh.m) + "x" + std::to_string(sh.k) +
                    "x" + std::to_string(sh.n);
                for (bool finite : {false, true}) {
                    const Matrix a = edgeOperand(sh.m, sh.k, ++seed, finite);
                    const Matrix b = edgeOperand(sh.k, sh.n, ++seed, finite);
                    const auto t0 = quantizeTallies();
                    const Matrix got = gemmQuantized(a, b, opt);
                    const auto t1 = quantizeTallies();
                    const Granularity ga = fine ? Granularity::TILE_1X128
                                                : Granularity::PER_TENSOR;
                    const Granularity gb = fine
                        ? Granularity::BLOCK_128X128
                        : Granularity::PER_TENSOR;
                    (void)QuantizedMatrix(a, *fmt, ga, opt.tileK);
                    (void)QuantizedMatrix(b, *fmt, gb, opt.tileK);
                    const auto t2 = quantizeTallies();
                    EXPECT_EQ(minus(t1, t0), minus(t2, t1)) << what;
                    if (!finite)
                        continue;
                    const Matrix want = gemmQuantizedRef(a, b, opt);
                    for (std::size_t r = 0; r < sh.m; ++r)
                        for (std::size_t c = 0; c < sh.n; ++c)
                            ASSERT_EQ(dbits(got.at(r, c)),
                                      dbits(want.at(r, c)))
                                << what << " (" << r << "," << c << ")";
                }
            }
        }
    }
}

} // namespace
} // namespace dsv3::numerics
