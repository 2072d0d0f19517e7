/**
 * @file
 * Tests for the reference and quantized GEMM pipelines.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "numerics/error.hh"
#include "numerics/gemm.hh"

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

} // namespace
} // namespace dsv3::numerics
