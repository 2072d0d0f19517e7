/**
 * @file
 * Small statistics toolkit: streaming moments, order statistics, and a
 * fixed-bin histogram. Used by routing/load-balance analyses and by the
 * benchmark harness to summarize sweeps.
 */

#pragma once

#include <cstddef>
#include <vector>

namespace dsv3 {

/**
 * Streaming mean/variance/min/max using Welford's algorithm.
 */
class RunningStat
{
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Sample variance (n-1 denominator); 0 when fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Percentile of a sample set using linear interpolation between closest
 * ranks (the "exclusive" definition used by numpy's default).
 *
 * @param sorted_values values in ascending order
 * @param p percentile in [0, 100]
 */
double percentile(const std::vector<double> &sorted_values, double p);

/**
 * percentile() without the sort: the same interpolation, over the one
 * or two order statistics it needs, found by selection
 * (std::nth_element). out[i] equals percentile(sorted copy of values,
 * ps[i]) bit for bit, in O(n) expected time. @p ps must be ascending;
 * each selection after the first partitions only what lies above the
 * previous rank. Reorders @p values.
 *
 * @param values the sample, in any order (non-empty)
 * @param ps percentiles in [0, 100], ascending
 * @param out receives ps.size() values
 */
void selectPercentiles(std::vector<double> &values,
                       const std::vector<double> &ps, double *out);

/**
 * Fixed-width histogram over [lo, hi). Samples outside the range are
 * counted separately as underflow/overflow rather than silently
 * clamped into the edge bins (clamping skewed tail fractions).
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::size_t binCount() const { return counts_.size(); }
    std::size_t count(std::size_t bin) const { return counts_.at(bin); }
    /** All samples ever added, including out-of-range ones. */
    std::size_t total() const { return total_; }
    /** Samples below lo / at-or-above hi. */
    std::size_t underflow() const { return underflow_; }
    std::size_t overflow() const { return overflow_; }
    /** Lower edge of a bin. */
    double binLo(std::size_t bin) const;
    /** Fraction of all samples in a bin; 0 when empty. */
    double fraction(std::size_t bin) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
    std::size_t underflow_ = 0;
    std::size_t overflow_ = 0;
};

/** Jain's fairness index: 1.0 = perfectly balanced. */
double jainFairness(const std::vector<double> &loads);

/** max(loads) / mean(loads); 1.0 = perfectly balanced. */
double maxOverMean(const std::vector<double> &loads);

} // namespace dsv3
