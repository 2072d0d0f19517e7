/**
 * @file
 * Tests for fine-grained tile/block quantization.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "numerics/error.hh"
#include "numerics/quantize.hh"

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

/** packQuantized()'s scale grid of @p m, in E4M3 at 128-wide tiles. */
std::vector<double>
scaleGrid(const Matrix &m, Granularity g)
{
    std::vector<double> raw(m.rows() * m.cols());
    return packQuantized(m, kE4M3, g, 128, raw.data(), m.cols());
}

TEST(Quantize, ScaleCountPerGranularity)
{
    Matrix m = randomMatrix(256, 512, 1);
    EXPECT_EQ(scaleGrid(m, Granularity::PER_TENSOR).size(), 1u);
    // 512/128 tiles per row
    EXPECT_EQ(scaleGrid(m, Granularity::TILE_1X128).size(), 256u * 4u);
    // 256/128 x 512/128
    EXPECT_EQ(scaleGrid(m, Granularity::BLOCK_128X128).size(), 2u * 4u);
}

TEST(Quantize, DequantizedShapeMatches)
{
    Matrix m = randomMatrix(10, 300, 2);
    Matrix deq =
        fakeQuantize(m, kE4M3, Granularity::TILE_1X128);
    EXPECT_EQ(deq.rows(), 10u);
    EXPECT_EQ(deq.cols(), 300u);
}

TEST(Quantize, TileAmaxMapsToMaxCode)
{
    // The largest |element| of each tile must be reproduced exactly
    // (it maps to the format's maxFinite).
    Matrix m = randomMatrix(4, 256, 3);
    const Matrix deq = fakeQuantize(m, kE4M3, Granularity::TILE_1X128);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t tile = 0; tile < 2; ++tile) {
            double amax = 0.0;
            std::size_t arg = 0;
            for (std::size_t c = tile * 128; c < (tile + 1) * 128;
                 ++c) {
                if (std::fabs(m.at(r, c)) > amax) {
                    amax = std::fabs(m.at(r, c));
                    arg = c;
                }
            }
            EXPECT_NEAR(std::fabs(deq.at(r, arg)), amax,
                        amax * 1e-12);
        }
    }
}

TEST(Quantize, FineGrainedBeatsPerTensorWithOutliers)
{
    Rng rng(4);
    Matrix m(64, 512);
    m.fillActivationLike(rng, 1.0, 0.01, 100.0);
    Matrix fine = fakeQuantize(m, kE4M3, Granularity::TILE_1X128);
    Matrix coarse = fakeQuantize(m, kE4M3, Granularity::PER_TENSOR);
    // Compare on RMSE: outliers inflate the per-tensor scale and wipe
    // out small values everywhere; tiles contain the damage.
    EXPECT_LT(rmse(fine.data(), m.data()),
              rmse(coarse.data(), m.data()));
}

TEST(Quantize, UniformDataNearlyEqualAcrossGranularities)
{
    // Without outliers the granularities should be close.
    Matrix m = randomMatrix(32, 256, 5);
    Matrix fine = fakeQuantize(m, kE4M3, Granularity::TILE_1X128);
    Matrix coarse = fakeQuantize(m, kE4M3, Granularity::PER_TENSOR);
    double fine_err = relL2Error(fine, m);
    double coarse_err = relL2Error(coarse, m);
    EXPECT_LT(fine_err, coarse_err * 1.05);
    EXPECT_GT(fine_err, coarse_err * 0.3);
}

TEST(Quantize, RelativeErrorBoundedByFormatUlp)
{
    Matrix m = randomMatrix(16, 256, 6);
    Matrix deq = fakeQuantize(m, kE4M3, Granularity::TILE_1X128);
    // Tile-scaled E4M3: relative error <= ~ulp (subnormal tails of a
    // tile can be worse; normal-range values obey half-ulp).
    double err = maxRelError(deq.data(), m.data(), 1e-3);
    EXPECT_LT(err, 0.20);
}

TEST(Quantize, ZeroMatrixSurvives)
{
    Matrix m(8, 128, 0.0);
    Matrix deq = fakeQuantize(m, kE4M3, Granularity::TILE_1X128);
    for (double v : deq.data())
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Quantize, NonMultipleTileWidth)
{
    // 200 columns = one full tile + a 72-wide remainder tile.
    Matrix m = randomMatrix(4, 200, 7);
    EXPECT_EQ(scaleGrid(m, Granularity::TILE_1X128).size(), 4u * 2u);
    Matrix deq = fakeQuantize(m, kE4M3, Granularity::TILE_1X128);
    EXPECT_LT(relL2Error(deq, m), 0.05);
}

TEST(Quantize, BlockScaleSharedWithinBlock)
{
    Matrix m = randomMatrix(256, 256, 9);
    std::vector<double> raw(256 * 256);
    const std::vector<double> grid = packQuantized(
        m, kE4M3, Granularity::BLOCK_128X128, 128, raw.data(), 256);
    const Matrix deq = fakeQuantize(m, kE4M3, Granularity::BLOCK_128X128);
    ASSERT_EQ(grid.size(), 4u);
    // Each element dequantizes by its own block's one scale.
    const struct
    {
        std::size_t r, c, block;
    } cells[] = {{0, 0, 0}, {127, 127, 0}, {0, 128, 1}, {100, 255, 1},
                 {128, 0, 2}, {255, 127, 2}, {128, 128, 3}, {255, 255, 3}};
    for (const auto &cell : cells)
        EXPECT_EQ(deq.at(cell.r, cell.c),
                  raw[cell.r * 256 + cell.c] * grid[cell.block])
            << cell.r << "," << cell.c;
    // Different blocks, (almost surely) different scales.
    EXPECT_NE(grid[0], grid[3]);
}

TEST(Quantize, GranularityNames)
{
    EXPECT_STREQ(granularityName(Granularity::PER_TENSOR),
                 "per-tensor");
    EXPECT_STREQ(granularityName(Granularity::TILE_1X128),
                 "tile 1x128");
    EXPECT_STREQ(granularityName(Granularity::BLOCK_128X128),
                 "block 128x128");
}

/** Property sweep: round-trip error shrinks with wider formats. */
class QuantizeFormatOrderTest
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(QuantizeFormatOrderTest, WiderFormatsAreMoreAccurate)
{
    Matrix m = randomMatrix(8, 256, 100 + GetParam());
    double e4m3 =
        relL2Error(fakeQuantize(m, kE4M3, Granularity::TILE_1X128), m);
    double e5m6 =
        relL2Error(fakeQuantize(m, kE5M6, Granularity::TILE_1X128), m);
    double bf16 =
        relL2Error(fakeQuantize(m, kBF16, Granularity::TILE_1X128), m);
    EXPECT_LT(e5m6, e4m3);
    EXPECT_LT(bf16, e5m6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizeFormatOrderTest,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace dsv3::numerics
