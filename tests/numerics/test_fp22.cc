/**
 * @file
 * Tests for the Hopper FP22 accumulation-path emulation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "numerics/fp22.hh"

namespace dsv3::numerics {
namespace {

TEST(AlignedGroupSum, ExactForSmallAlignedValues)
{
    // Values sharing an exponent and few mantissa bits sum exactly.
    std::vector<double> products = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(alignedGroupSum(products), 10.0);
}

TEST(AlignedGroupSum, EmptyAndZeros)
{
    EXPECT_DOUBLE_EQ(alignedGroupSum({}), 0.0);
    std::vector<double> zeros = {0.0, 0.0};
    EXPECT_DOUBLE_EQ(alignedGroupSum(zeros), 0.0);
}

TEST(AlignedGroupSum, SmallAddendTruncatedAgainstLargeMax)
{
    // With a max product of ~2^13 scale, an addend below one retained
    // fraction quantum vanishes entirely.
    std::vector<double> products = {8192.0, 0.4};
    // quantum = 2^(14-13) = 2; 0.4 truncates to 0.
    EXPECT_DOUBLE_EQ(alignedGroupSum(products, 13), 8192.0);
}

TEST(AlignedGroupSum, TruncationIsTowardZero)
{
    // Negative small values also truncate toward zero (not -inf).
    std::vector<double> products = {8192.0, -0.4};
    EXPECT_DOUBLE_EQ(alignedGroupSum(products, 13), 8192.0);
}

TEST(AlignedGroupSum, MoreFractionBitsKeepMore)
{
    std::vector<double> products = {8192.0, 0.4};
    // With 16 fraction bits the quantum is 0.25: 0.4 -> 0.25.
    EXPECT_DOUBLE_EQ(alignedGroupSum(products, 16), 8192.25);
}

TEST(AlignedGroupSum, ErrorBoundedByGroupQuantum)
{
    Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> products(32);
        double exact = 0.0;
        double max_mag = 0.0;
        for (auto &p : products) {
            p = rng.normal();
            exact += p;
            max_mag = std::max(max_mag, std::fabs(p));
        }
        double approx = alignedGroupSum(products);
        int e;
        std::frexp(max_mag, &e);
        double quantum = std::ldexp(1.0, e - 13);
        // Each of the 32 addends truncates by < quantum.
        EXPECT_LE(std::fabs(approx - exact), 32.0 * quantum);
    }
}

TEST(Fp22Register, StoresTruncatedValues)
{
    Fp22Register reg;
    reg.add(1.0);
    EXPECT_DOUBLE_EQ(reg.value(), 1.0);
    // Adding a tiny value is lost to FP22 truncation.
    reg.add(1e-8);
    EXPECT_DOUBLE_EQ(reg.value(), 1.0);
}

TEST(Fp22Register, ResetClears)
{
    Fp22Register reg;
    reg.add(5.0);
    reg.reset();
    EXPECT_DOUBLE_EQ(reg.value(), 0.0);
}

TEST(AccumMode, ModeNames)
{
    EXPECT_STREQ(accumModeName(AccumMode::FP32), "FP32");
    EXPECT_STREQ(accumModeName(AccumMode::FP22), "FP22+promote");
}

} // namespace
} // namespace dsv3::numerics
