#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dsv3 {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    if (n_ == 1) {
        mean_ = x;
        min_ = x;
        max_ = x;
        m2_ = 0.0;
        return;
    }
    double delta = x - mean_;
    mean_ += delta / (double)n_;
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / (double)(n_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

namespace {

/** The closest ranks percentile @p p of @p n values interpolates
 *  between, and the weight of the upper one. */
struct Ranks
{
    std::size_t lo;
    std::size_t hi;
    double frac;
};

Ranks
ranksOf(std::size_t n, double p)
{
    DSV3_ASSERT(n > 0);
    DSV3_ASSERT(p >= 0.0 && p <= 100.0);
    double rank = p / 100.0 * (double)(n - 1);
    auto lo = (std::size_t)std::floor(rank);
    auto hi = (std::size_t)std::ceil(rank);
    return {lo, hi, rank - (double)lo};
}

double
interpolate(double lo, double hi, double frac)
{
    return lo * (1.0 - frac) + hi * frac;
}

} // namespace

double
percentile(const std::vector<double> &sorted_values, double p)
{
    const Ranks r = ranksOf(sorted_values.size(), p);
    if (sorted_values.size() == 1)
        return sorted_values.front();
    return interpolate(sorted_values[r.lo], sorted_values[r.hi], r.frac);
}

void
selectPercentiles(std::vector<double> &values,
                  const std::vector<double> &ps, double *out)
{
    const std::size_t n = values.size();
    const auto first = values.begin();
    // Invariant: values[0, from) are all <= values[from, n), so an
    // order statistic at rank >= from can be selected in the tail.
    std::size_t from = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const Ranks r = ranksOf(n, ps[i]);
        DSV3_ASSERT(i == 0 || ps[i] >= ps[i - 1],
                    "selectPercentiles: ps must be ascending");
        if (n == 1) {
            out[i] = values.front();
            continue;
        }
        if (r.lo >= from) {
            std::nth_element(first + from, first + r.lo, values.end());
            from = r.lo + 1;
        }
        // The next order statistic is the least value above rank lo.
        const double hi = r.hi == r.lo
            ? values[r.lo]
            : *std::min_element(first + r.lo + 1, values.end());
        out[i] = interpolate(values[r.lo], hi, r.frac);
    }
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    DSV3_ASSERT(hi > lo);
    DSV3_ASSERT(bins > 0);
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    double span = hi_ - lo_;
    auto bin = (std::size_t)((x - lo_) / span * (double)counts_.size());
    // In-range samples can still land one past the end through
    // floating-point rounding at x just below hi.
    bin = std::min(bin, counts_.size() - 1);
    ++counts_[bin];
}

double
Histogram::binLo(std::size_t bin) const
{
    return lo_ + (hi_ - lo_) * (double)bin / (double)counts_.size();
}

double
Histogram::fraction(std::size_t bin) const
{
    if (total_ == 0)
        return 0.0;
    return (double)counts_.at(bin) / (double)total_;
}

double
jainFairness(const std::vector<double> &loads)
{
    if (loads.empty())
        return 1.0;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double x : loads) {
        sum += x;
        sum_sq += x * x;
    }
    if (sum_sq == 0.0)
        return 1.0;
    return sum * sum / ((double)loads.size() * sum_sq);
}

double
maxOverMean(const std::vector<double> &loads)
{
    if (loads.empty())
        return 1.0;
    double sum = 0.0;
    double mx = loads.front();
    for (double x : loads) {
        sum += x;
        mx = std::max(mx, x);
    }
    double mean = sum / (double)loads.size();
    if (mean == 0.0)
        return 1.0;
    return mx / mean;
}

} // namespace dsv3
