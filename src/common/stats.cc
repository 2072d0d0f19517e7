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

P2Quantile::P2Quantile(double p) : p_(p)
{
    DSV3_ASSERT(p > 0.0 && p < 1.0);
    for (int i = 0; i < 5; ++i) {
        heights_[i] = 0.0;
        positions_[i] = (double)(i + 1);
    }
    desired_[0] = 1.0;
    desired_[1] = 1.0 + 2.0 * p;
    desired_[2] = 1.0 + 4.0 * p;
    desired_[3] = 3.0 + 2.0 * p;
    desired_[4] = 5.0;
    increment_[0] = 0.0;
    increment_[1] = p / 2.0;
    increment_[2] = p;
    increment_[3] = (1.0 + p) / 2.0;
    increment_[4] = 1.0;
}

void
P2Quantile::add(double x)
{
    if (n_ < 5) {
        heights_[n_++] = x;
        if (n_ == 5)
            std::sort(heights_, heights_ + 5);
        return;
    }
    ++n_;

    // Locate the cell containing x, stretching the extremes.
    int k;
    if (x < heights_[0]) {
        heights_[0] = x;
        k = 0;
    } else if (x >= heights_[4]) {
        heights_[4] = std::max(heights_[4], x);
        k = 3;
    } else {
        k = 3;
        for (int i = 1; i < 4; ++i) {
            if (x < heights_[i]) {
                k = i - 1;
                break;
            }
        }
    }

    for (int i = k + 1; i < 5; ++i)
        positions_[i] += 1.0;
    for (int i = 0; i < 5; ++i)
        desired_[i] += increment_[i];

    // Nudge the three interior markers toward their desired ranks.
    for (int i = 1; i < 4; ++i) {
        double d = desired_[i] - positions_[i];
        if ((d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0) ||
            (d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0)) {
            double s = d < 0.0 ? -1.0 : 1.0;
            // Piecewise-parabolic (P^2) height prediction.
            double hp =
                heights_[i] +
                s / (positions_[i + 1] - positions_[i - 1]) *
                    ((positions_[i] - positions_[i - 1] + s) *
                         (heights_[i + 1] - heights_[i]) /
                         (positions_[i + 1] - positions_[i]) +
                     (positions_[i + 1] - positions_[i] - s) *
                         (heights_[i] - heights_[i - 1]) /
                         (positions_[i] - positions_[i - 1]));
            if (heights_[i - 1] < hp && hp < heights_[i + 1]) {
                heights_[i] = hp;
            } else {
                // Linear fallback when the parabola overshoots.
                int j = i + (int)s;
                heights_[i] += s * (heights_[j] - heights_[i]) /
                               (positions_[j] - positions_[i]);
            }
            positions_[i] += s;
        }
    }
}

double
P2Quantile::value() const
{
    if (n_ == 0)
        return 0.0;
    if (n_ < 5) {
        // Exact order statistic over the retained prefix.
        std::vector<double> sorted(heights_, heights_ + n_);
        std::sort(sorted.begin(), sorted.end());
        return percentile(sorted, p_ * 100.0);
    }
    return heights_[2];
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
