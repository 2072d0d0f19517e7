/**
 * @file
 * Reproduces the Sec 4.3 node-limited routing analysis (group-limit
 * sweep -> E[M] and IB time) and times the gate.
 */

#include "bench_util.hh"

#include "core/report.hh"
#include "moe/gate.hh"
#include "moe/token_gen.hh"

namespace {

void
printTables()
{
    dsv3::bench::printTable(dsv3::core::reproduceNodeLimited());
}

void
BM_GateRoute(benchmark::State &state)
{
    dsv3::moe::GateConfig cfg;
    cfg.experts = 256;
    cfg.topK = 8;
    cfg.groups = 8;
    cfg.topKGroups = (std::size_t)state.range(0);
    dsv3::moe::TopKGate gate(cfg);
    dsv3::moe::TokenScoreGenerator gen(256, 0.3, 3);
    std::vector<double> logits(256);
    gen.next(logits);
    for (auto _ : state)
        benchmark::DoNotOptimize(gate.route(logits));
}
BENCHMARK(BM_GateRoute)->Arg(8)->Arg(4)->Arg(1);

/** Token synthesis plus selection, per token, on the batched path. */
void
BM_RouteStream(benchmark::State &state)
{
    dsv3::moe::GateConfig cfg;
    cfg.experts = 256;
    cfg.topK = 8;
    cfg.groups = 8;
    cfg.topKGroups = 4;
    dsv3::moe::TopKGate gate(cfg);
    dsv3::moe::TokenScoreGenerator gen(256, 0.3, 3);
    std::vector<std::uint32_t> experts(64 * cfg.topK);
    for (auto _ : state) {
        gate.routeStream(gen, experts);
        benchmark::DoNotOptimize(experts.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed((std::int64_t)state.iterations() * 64);
}
BENCHMARK(BM_RouteStream);

} // namespace

DSV3_BENCH_MAIN(printTables)
