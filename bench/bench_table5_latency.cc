/**
 * @file
 * Reproduces paper Table 5 (IB/RoCE/NVLink end-to-end latency) and
 * times path enumeration and the latency evaluation.
 */

#include "bench_util.hh"

#include "core/report.hh"
#include "net/cluster.hh"

namespace {

void
printTables()
{
    dsv3::bench::printTable(dsv3::core::reproduceTable5());
}

void
BM_EndToEndLatency(benchmark::State &state)
{
    dsv3::net::LinkSpec nic{50e9, 0.15e-6};
    auto c = dsv3::net::buildSingleRail(64, 32, 16, nic, nic, 0.3e-6,
                                        2.2e-6);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dsv3::net::endToEndLatency(c, 0, 63, 64.0));
}
BENCHMARK(BM_EndToEndLatency);

void
BM_ShortestPathsCrossLeaf(benchmark::State &state)
{
    dsv3::net::LinkSpec nic{50e9, 0.15e-6};
    auto c = dsv3::net::buildSingleRail(64, 32, 16, nic, nic, 0.3e-6,
                                        2.2e-6);
    // Reuse one buffer, as the route cache's fill does.
    dsv3::net::PathBuffer paths;
    for (auto _ : state) {
        dsv3::net::shortestPaths(c.graph, c.gpus[0], c.gpus[63], paths,
                                 512, nullptr);
        benchmark::DoNotOptimize(paths.edges.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ShortestPathsCrossLeaf);

} // namespace

DSV3_BENCH_MAIN(printTables)
