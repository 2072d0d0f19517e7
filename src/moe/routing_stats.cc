#include "moe/routing_stats.hh"

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/registry.hh"

namespace dsv3::moe {

namespace {

/** Per-token M = distinct nodes touched; integral values in [0, 16). */
obs::Distribution &
nodesTouchedDist()
{
    static obs::Distribution *dist =
        &obs::Registry::global().distribution(
            "moe.routing.nodes_touched", 0.0, 16.0, 16);
    return *dist;
}

} // namespace

RoutingStats::RoutingStats(const ExpertPlacement &placement)
    : placement_(placement),
      nodesTouchedHist_(placement.nodes() + 1, 0),
      expertLoad_(placement.experts(), 0.0)
{
}

void
RoutingStats::add(std::span<const std::uint32_t> experts,
                  std::size_t top_k)
{
    DSV3_ASSERT(top_k > 0 && experts.size() % top_k == 0);
    std::vector<std::uint32_t> gpus(top_k), nodes(top_k);
    for (std::size_t t = 0; t < experts.size(); t += top_k) {
        auto token = experts.subspan(t, top_k);
        for (std::uint32_t e : token) {
            DSV3_ASSERT(e < placement_.experts());
            expertLoad_[e] += 1.0;
        }
        std::size_t m = placement_.footprint(token, gpus, nodes)[1];
        DSV3_ASSERT(m < nodesTouchedHist_.size());
        ++tokens_;
        ++nodesTouchedHist_[m];
        sumNodesTouched_ += (double)m;
        nodesTouchedDist().add((double)m);
    }
}

double
RoutingStats::meanNodesTouched() const
{
    return tokens_ ? sumNodesTouched_ / (double)tokens_ : 0.0;
}

std::size_t
RoutingStats::maxNodesTouched() const
{
    for (std::size_t m = nodesTouchedHist_.size(); m-- > 0;)
        if (nodesTouchedHist_[m] > 0)
            return m;
    return 0;
}

double
RoutingStats::nodesTouchedFraction(std::size_t m) const
{
    if (tokens_ == 0 || m >= nodesTouchedHist_.size())
        return 0.0;
    return (double)nodesTouchedHist_[m] / (double)tokens_;
}

double
RoutingStats::ibDedupFactor(std::size_t top_k) const
{
    DSV3_ASSERT(top_k > 0);
    return meanNodesTouched() / (double)top_k;
}

std::vector<double>
RoutingStats::gpuLoad() const
{
    std::vector<double> load(placement_.totalGpus(), 0.0);
    for (std::size_t e = 0; e < expertLoad_.size(); ++e)
        load[placement_.gpu((std::uint32_t)e)] += expertLoad_[e];
    return load;
}

double
RoutingStats::expertImbalance() const
{
    return maxOverMean(expertLoad_);
}

} // namespace dsv3::moe
