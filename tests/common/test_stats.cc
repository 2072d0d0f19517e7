/**
 * @file
 * Tests for RunningStat, percentile, selectPercentiles, Histogram and
 * fairness metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"

namespace dsv3 {
namespace {

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, SingleValue)
{
    RunningStat s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownSequence)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
    // Sample variance with n-1 denominator: 32 / 7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, MatchesTwoPassComputation)
{
    std::vector<double> xs;
    RunningStat s;
    for (int i = 0; i < 1000; ++i) {
        double x = std::sin((double)i) * 100.0;
        xs.push_back(x);
        s.add(x);
    }
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= (double)xs.size();
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= (double)(xs.size() - 1);
    EXPECT_NEAR(s.mean(), mean, 1e-9);
    EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(Percentile, Endpoints)
{
    std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
}

TEST(Percentile, Median)
{
    std::vector<double> odd = {1.0, 5.0, 9.0};
    EXPECT_DOUBLE_EQ(percentile(odd, 50.0), 5.0);
    std::vector<double> even = {1.0, 3.0, 5.0, 9.0};
    EXPECT_DOUBLE_EQ(percentile(even, 50.0), 4.0);
}

TEST(Percentile, SingleElement)
{
    std::vector<double> v = {42.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 42.0);
}

/** selectPercentiles() over a copy of @p values must equal
 *  percentile() over a sorted copy bit for bit, at every p in @p ps. */
void
expectSelectionMatchesSort(const std::vector<double> &values,
                           const std::vector<double> &ps)
{
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> scratch = values;
    std::vector<double> got(ps.size());
    selectPercentiles(scratch, ps, got.data());
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const double want = percentile(sorted, ps[i]);
        EXPECT_EQ(std::memcmp(&got[i], &want, sizeof want), 0)
            << "n=" << values.size() << " p=" << ps[i] << ": got "
            << got[i] << ", sort gives " << want;
    }
    // Only reordered, never changed.
    std::sort(scratch.begin(), scratch.end());
    EXPECT_EQ(scratch, sorted);
}

TEST(SelectPercentiles, SmallAndDegenerateColumns)
{
    const std::vector<double> all_ps = {0.0,  1.0,  25.0, 50.0, 50.0,
                                        75.0, 95.0, 99.0, 99.9, 100.0};
    expectSelectionMatchesSort({42.0}, all_ps);             // n = 1
    expectSelectionMatchesSort({3.0, -1.0}, all_ps);        // n = 2
    expectSelectionMatchesSort({9.0, 1.0, 5.0}, all_ps);    // odd n
    expectSelectionMatchesSort({9.0, 1.0, 5.0, 3.0}, all_ps); // even n
    expectSelectionMatchesSort(std::vector<double>(101, 0.0), all_ps);
    expectSelectionMatchesSort(std::vector<double>(100, 0.1), all_ps);
    expectSelectionMatchesSort({2.0, 2.0, 1.0, 2.0, 2.0, 3.0, 2.0},
                               all_ps);
}

TEST(SelectPercentiles, RandomTiedAndConstantInputsMatchSort)
{
    Rng rng(0x5e1ec7ull);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t n =
            1 + rng.nextBounded(trial < 1000 ? 16 : 600);
        std::vector<double> v(n);
        const int shape = trial % 4;
        for (double &x : v) {
            if (shape == 0) // continuous
                x = rng.uniform(-1e3, 1e3);
            else if (shape == 1) // heavy ties
                x = (double)rng.nextBounded(4) * 0.25;
            else if (shape == 2) // skewed: mostly zero, rare large
                x = rng.bernoulli(0.97) ? 0.0 : rng.exponential(0.01);
            else // constant
                x = 0.7;
        }
        // Ascending percentile lists, repeats included.
        std::vector<double> ps = {50.0, 95.0, 99.0};
        if (trial % 2) {
            ps.clear();
            double p = 0.0;
            while (p <= 100.0) {
                ps.push_back(p);
                p += rng.uniform(0.0, 40.0);
            }
        }
        expectSelectionMatchesSort(v, ps);
    }
}

TEST(Histogram, BinningAndOutOfRangeTracking)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-5.0);  // underflow, not bin 0
    h.add(25.0);  // overflow, not bin 9
    h.add(5.0);   // bin 5
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.count(5), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_DOUBLE_EQ(h.fraction(5), 0.2);
}

TEST(Histogram, TailBinsNotSkewedByOutliers)
{
    // Regression: out-of-range samples used to clamp into the edge
    // bins, inflating the tail fractions they are meant to measure.
    Histogram h(0.0, 1.0, 4);
    h.add(0.99); // genuine tail sample, bin 3
    for (int i = 0; i < 9; ++i)
        h.add(2.0); // outliers
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.overflow(), 9u);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.1);
}

TEST(Histogram, UpperEdgeIsExclusive)
{
    Histogram h(0.0, 10.0, 10);
    h.add(10.0); // == hi: outside the half-open range
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(9), 0u);
    h.add(0.0); // == lo: inside
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(Histogram, BinEdges)
{
    Histogram h(10.0, 20.0, 5);
    EXPECT_DOUBLE_EQ(h.binLo(0), 10.0);
    EXPECT_DOUBLE_EQ(h.binLo(4), 18.0);
}

TEST(Fairness, JainPerfectBalance)
{
    EXPECT_DOUBLE_EQ(jainFairness({3.0, 3.0, 3.0}), 1.0);
}

TEST(Fairness, JainWorstCase)
{
    // All load on one of n entities -> 1/n.
    EXPECT_NEAR(jainFairness({4.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(Fairness, JainEmptyAndZero)
{
    EXPECT_DOUBLE_EQ(jainFairness({}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairness({0.0, 0.0}), 1.0);
}

TEST(Fairness, MaxOverMean)
{
    EXPECT_DOUBLE_EQ(maxOverMean({1.0, 1.0, 4.0}), 2.0);
    EXPECT_DOUBLE_EQ(maxOverMean({2.0, 2.0}), 1.0);
}

} // namespace
} // namespace dsv3
