/**
 * @file
 * Event-driven serving-fleet simulation (Sec 2.3): validates the
 * discrete-event simulator against the analytic epSpeedLimit() and
 * mtpAnalytic() models in the closed-loop no-contention limit, then
 * reports latency/goodput percentiles under live traffic and TPS
 * surfaces over batch x context for H800 and GB200 fleets.
 */

#include "bench_util.hh"
#include "sweep_driver.hh"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "ep/speed_limit.hh"
#include "inference/mtp.hh"
#include "inference/serving/kv_pager.hh"
#include "inference/serving/simulator.hh"
#include "inference/serving/traffic.hh"
#include "model/config.hh"
#include "model/hardware.hh"
#include "model/kv_cache.hh"
#include "obs/timeline.hh"

namespace {

using namespace dsv3;
using namespace dsv3::inference::serving;

/**
 * Comm-bound closed-loop fleet: the memory/compute rooflines vanish,
 * so simulated TPOT must land on the Sec 2.3.2 analytic floor.
 */
ServingFleetConfig
noContentionFleet(double comm_bw)
{
    ServingFleetConfig fleet;
    fleet.modelConfig = model::deepSeekV3();
    fleet.memBytesPerSec = 1e30;
    fleet.computeFlopsPerSec = 0.0;
    fleet.comm.bandwidthBytesPerSec = comm_bw;
    fleet.maxBatchPerEngine = 64;
    fleet.prefillServers = 64;
    fleet.prefillTokensPerSecPerServer = 1e9;
    fleet.kvHandoffSeconds = 0.0;
    return fleet;
}

TrafficConfig
closedLoop(std::size_t requests, std::size_t gen)
{
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::CLOSED_LOOP;
    traffic.requests = requests;
    traffic.closedLoopConcurrency = 64;
    traffic.promptTokensMin = traffic.promptTokensMax = 128;
    traffic.genTokensMin = traffic.genTokensMax = gen;
    return traffic;
}

/** Simulated closed-loop TPOT vs the analytic EP speed limit. */
Table
speedLimitValidation()
{
    Table t("Serving sim vs Sec 2.3.2 speed limit (closed loop, "
            "no contention)");
    t.setHeader({"Interconnect", "Analytic TPOT", "Simulated TPOT",
                 "Analytic tok/s", "Simulated tok/s", "Rel err"});

    struct Fabric
    {
        const char *name;
        double bw;
    };
    const Fabric fabrics[] = {{"CX7 IB 400G (50 GB/s)", 50e9},
                              {"GB200 NVL72 (900 GB/s)", 900e9}};

    bench::SweepDriver<ServingMetrics> grid(2, 1);
    grid.run([&](std::size_t row, std::size_t) {
        return simulateServing(noContentionFleet(fabrics[row].bw),
                               closedLoop(128, 128), 42);
    });
    for (std::size_t row = 0; row < 2; ++row) {
        ep::SpeedLimitParams p;
        p.bandwidthBytesPerSec = fabrics[row].bw;
        ep::SpeedLimit analytic = ep::epSpeedLimit(p);
        const ServingMetrics &m = grid.at(row, 0);
        double sim_tps = 1.0 / m.tpot.mean;
        double rel =
            std::abs(m.tpot.mean - analytic.tpotSeconds) /
            analytic.tpotSeconds;
        t.addRow({fabrics[row].name,
                  formatTime(analytic.tpotSeconds),
                  formatTime(m.tpot.mean),
                  Table::fmt(analytic.tokensPerSecond, 1),
                  Table::fmt(sim_tps, 1),
                  Table::fmtPercent(rel, 3)});
    }
    return t;
}

/** Sampled MTP acceptance chain vs the Sec 2.3.3 closed form. */
Table
mtpValidation()
{
    Table t("Serving sim vs Sec 2.3.3 MTP speedup (sampled "
            "acceptance chain)");
    t.setHeader({"Acceptance", "Analytic speedup", "Simulated",
                 "Rel err"});

    const double accepts[] = {0.70, 0.80, 0.85, 0.90};
    ServingMetrics base =
        simulateServing(noContentionFleet(50e9), closedLoop(256, 256),
                        42);
    bench::SweepDriver<ServingMetrics> grid(4, 1);
    grid.run([&](std::size_t row, std::size_t) {
        ServingFleetConfig fleet = noContentionFleet(50e9);
        fleet.mtpEnabled = true;
        fleet.mtp.acceptanceRate = accepts[row];
        return simulateServing(fleet, closedLoop(256, 256), 42);
    });
    for (std::size_t row = 0; row < 4; ++row) {
        inference::MtpConfig cfg;
        cfg.acceptanceRate = accepts[row];
        double analytic = inference::mtpAnalytic(cfg).speedup;
        double sim = grid.at(row, 0).tokensPerSecond /
                     base.tokensPerSecond;
        t.addRow({Table::fmtPercent(accepts[row], 0),
                  Table::fmt(analytic, 3) + "x",
                  Table::fmt(sim, 3) + "x",
                  Table::fmtPercent(std::abs(sim - analytic) /
                                        analytic,
                                    3)});
    }
    return t;
}

/** Realistic H800-priced decode fleet for the traffic studies. */
ServingFleetConfig
h800Fleet()
{
    model::NodeSpec node = model::h800Node();
    ServingFleetConfig fleet;
    fleet.modelConfig = model::deepSeekV3();
    fleet.memBytesPerSec = node.gpu.hbmBytesPerSec;
    fleet.comm.bandwidthBytesPerSec = node.nicEffGBs * 1e9;
    fleet.maxBatchPerEngine = 64;
    fleet.kvBudgetBytesPerEngine = 0.3 * node.gpu.hbmCapacityBytes;
    fleet.prefillServers = 4;
    fleet.prefillTokensPerSecPerServer = 12000.0;
    fleet.sloTtftSeconds = 2.0;
    fleet.sloTpotSeconds = 1.0;
    return fleet;
}

/** TTFT/TPOT/goodput percentiles under the three arrival processes. */
Table
trafficPercentiles()
{
    Table t("Latency/goodput percentiles, DeepSeek-V3 on one H800 "
            "decode engine (4 req/s, 200 requests)");
    t.setHeader({"Traffic", "TTFT p50", "TTFT p99", "TPOT p50",
                 "TPOT p99", "Goodput p50", "SLO tok/s",
                 "Preempt"});

    const ArrivalProcess procs[] = {ArrivalProcess::POISSON,
                                    ArrivalProcess::DIURNAL,
                                    ArrivalProcess::BURSTY};
    bench::SweepDriver<ServingMetrics> grid(3, 1);
    grid.run([&](std::size_t row, std::size_t) {
        TrafficConfig traffic;
        traffic.process = procs[row];
        traffic.requests = 200;
        traffic.requestsPerSecond = 4.0;
        return simulateServing(h800Fleet(), traffic, 7);
    });
    for (std::size_t row = 0; row < 3; ++row) {
        const ServingMetrics &m = grid.at(row, 0);
        t.addRow({arrivalProcessName(procs[row]),
                  formatTime(m.ttft.p50), formatTime(m.ttft.p99),
                  formatTime(m.tpot.p50), formatTime(m.tpot.p99),
                  Table::fmt(m.goodput.p50, 0) + " tok/s",
                  Table::fmt(m.sloGoodputTokensPerSecond, 0),
                  Table::fmtInt(m.preemptions)});
    }
    return t;
}

/** The Sec 2.3.1 deployment comparison, now event-driven. */
Table
deploymentComparison()
{
    Table t("Sec 2.3.1 deployments under live Poisson traffic");
    t.setHeader({"Deployment", "TTFT p50", "TTFT p99", "TPOT p50",
                 "TPOT p99", "Tokens/s"});

    const Deployment deps[] = {Deployment::COLOCATED,
                               Deployment::DISAGGREGATED};
    bench::SweepDriver<ServingMetrics> grid(2, 1);
    grid.run([&](std::size_t row, std::size_t) {
        ServingFleetConfig fleet = h800Fleet();
        fleet.deployment = deps[row];
        fleet.prefillServers = 1;
        TrafficConfig traffic;
        traffic.process = ArrivalProcess::POISSON;
        traffic.requests = 200;
        traffic.requestsPerSecond = 2.0;
        traffic.promptTokensMin = 2048;
        traffic.promptTokensMax = 8192;
        return simulateServing(fleet, traffic, 5);
    });
    for (std::size_t row = 0; row < 2; ++row) {
        const ServingMetrics &m = grid.at(row, 0);
        t.addRow({deploymentName(deps[row]), formatTime(m.ttft.p50),
                  formatTime(m.ttft.p99), formatTime(m.tpot.p50),
                  formatTime(m.tpot.p99),
                  Table::fmt(m.tokensPerSecond, 1)});
    }
    return t;
}

/** Closed-loop decode TPS over batch x context for one device. */
Table
tpsSurface(const char *name, const model::NodeSpec &node,
           double comm_bw)
{
    const std::size_t batches[] = {16, 32, 64, 128};
    const std::size_t contexts[] = {1024, 4096, 16384};

    Table t(std::string("Decode tokens/s vs batch x context, ") +
            name);
    t.setHeader({"Batch", "ctx 1K", "ctx 4K", "ctx 16K"});

    bench::SweepDriver<double> grid(4, 3);
    grid.run([&](std::size_t row, std::size_t col) {
        ServingFleetConfig fleet;
        fleet.modelConfig = model::deepSeekV3();
        fleet.memBytesPerSec = node.gpu.hbmBytesPerSec;
        fleet.comm.bandwidthBytesPerSec = comm_bw;
        fleet.maxBatchPerEngine = batches[row];
        fleet.prefillServers = 16;
        fleet.prefillTokensPerSecPerServer = 1e8;
        fleet.kvHandoffSeconds = 0.0;
        TrafficConfig traffic;
        traffic.process = ArrivalProcess::CLOSED_LOOP;
        traffic.requests = 2 * batches[row];
        traffic.closedLoopConcurrency = batches[row];
        traffic.promptTokensMin = traffic.promptTokensMax =
            contexts[col];
        traffic.genTokensMin = traffic.genTokensMax = 64;
        return simulateServing(fleet, traffic, 11).tokensPerSecond;
    });
    for (std::size_t row = 0; row < 4; ++row)
        t.addRow({Table::fmtInt(batches[row]),
                  Table::fmt(grid.at(row, 0), 1),
                  Table::fmt(grid.at(row, 1), 1),
                  Table::fmt(grid.at(row, 2), 1)});
    return t;
}

/**
 * Dedicated serial observability run: the H800 Poisson scenario of
 * trafficPercentiles() re-run with the flight recorder attached (its
 * gauges become the --json report's "timeseries" section) and, when
 * --timeline=<path> was given, with a sim-time timeline written to
 * that path. Run serially on purpose — the recorder/timeline hooks
 * must not be shared across sweep threads — so both exports and the
 * printed table are byte-identical across reruns and thread widths.
 */
Table
timeInStateAttribution()
{
    ServingFleetConfig fleet = h800Fleet();
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::POISSON;
    traffic.requests = 200;
    traffic.requestsPerSecond = 4.0;

    obs::Timeline timeline(obs::Timeline::configFromEnv());
    fleet.recorder = &bench::flightRecorder();
    fleet.recorderIntervalSeconds = 0.25;
    if (!bench::timelinePath().empty())
        fleet.timeline = &timeline;

    ServingMetrics m = simulateServing(fleet, traffic, 7);

    if (!bench::timelinePath().empty()) {
        timeline.writeChromeJson(bench::timelinePath());
        std::fprintf(stderr, "wrote sim timeline: %s (%zu events)\n",
                     bench::timelinePath().c_str(),
                     timeline.eventCount());
    }

    Table t("Time-in-state attribution, H800 Poisson (completed "
            "requests)");
    t.setHeader({"State", "Total", "Share", "p50/req", "p95/req",
                 "p99/req"});
    for (std::size_t s = 0; s < kNumRequestStates; ++s) {
        // Fault-only states (failover, retry backoff) are exactly 0
        // on this chaos-free run; show them only when exercised so
        // the table stays byte-identical to the pre-chaos baseline.
        if (s >= kNumCoreRequestStates && m.stateSeconds[s] == 0.0)
            continue;
        const PercentileSummary &ps = m.statePerRequest[s];
        const double share = m.totalLatencySeconds > 0.0
            ? m.stateSeconds[s] / m.totalLatencySeconds : 0.0;
        t.addRow({requestStateName((RequestState)s),
                  formatTime(m.stateSeconds[s]),
                  Table::fmtPercent(share, 1), formatTime(ps.p50),
                  formatTime(ps.p95), formatTime(ps.p99)});
    }
    t.addRow({"total latency", formatTime(m.totalLatencySeconds),
              "100%", "", "", ""});
    t.addRow({"verdict", bottleneckName(m.bottleneck), "", "", "",
              ""});
    return t;
}

/**
 * Million-request stress row (DSV3_STRESS=1): the ROADMAP's
 * "millions of users" scale claim as a measured table row — one
 * closed-loop run over the largest fleet in this bench (64 comm-bound
 * engines x batch 64), reporting requests retired per second of
 * wall clock. The wall-derived cells depend on the host, so the
 * table is transient: printed straight to stdout, never recorded
 * into --json reports, and never compared by report_diff. Off by
 * default so the default bench invocation stays cheap enough for the
 * wall-time trend harness.
 */
void
maybeStressLine()
{
    const char *env = std::getenv("DSV3_STRESS");
    if (env == nullptr || env[0] == '0')
        return;
    if (bench::tablesQuiet())
        return; // not part of the --repeat timed table build
    ServingFleetConfig fleet = noContentionFleet(50e9);
    fleet.decodeEngines = 64;
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::CLOSED_LOOP;
    traffic.requests = 1000000;
    traffic.closedLoopConcurrency = 64 * 64;
    traffic.promptTokensMin = traffic.promptTokensMax = 128;
    traffic.genTokensMin = traffic.genTokensMax = 16;

    using clock = std::chrono::steady_clock;
    const clock::time_point t0 = clock::now();
    const ServingMetrics m = simulateServing(fleet, traffic, 97);
    const double wall =
        std::chrono::duration<double>(clock::now() - t0).count();

    Table t("Million-request stress, closed loop over 64 comm-bound "
            "engines x batch 64 (wall-derived cells are "
            "host-dependent; transient, not in recorded reports)");
    t.setHeader({"Requests", "Decode tokens", "Decode steps",
                 "Sim seconds", "Wall seconds", "Req/s of wall",
                 "Tok/s of wall"});
    t.addRow({Table::fmtInt(m.requestsCompleted),
              Table::fmtInt(m.decodeTokens),
              Table::fmtInt(m.decodeSteps),
              Table::fmt(m.simSeconds, 1), Table::fmt(wall, 3),
              Table::fmt((double)m.requestsCompleted / wall, 0),
              Table::fmt((double)m.decodeTokens / wall, 0)});
    // Deliberately not bench::printTable(): stdout only.
    std::fputs(t.render().c_str(), stdout);
    std::fputs("\n", stdout);
}

void
printTables()
{
    bench::printTable(speedLimitValidation());
    bench::printTable(mtpValidation());
    bench::printTable(trafficPercentiles());
    bench::printTable(deploymentComparison());
    bench::printTable(tpsSurface("H800 + CX7 IB", model::h800Node(),
                                 50e9));
    bench::printTable(tpsSurface("GB200 NVL72",
                                 model::gb200Nvl72Node(), 900e9));
    bench::printTable(timeInStateAttribution());
    maybeStressLine();
}

// Microbenchmarks -------------------------------------------------------

void
BM_SimulateClosedLoop(benchmark::State &state)
{
    ServingFleetConfig fleet = noContentionFleet(50e9);
    TrafficConfig traffic = closedLoop((std::size_t)state.range(0),
                                       128);
    for (auto _ : state)
        benchmark::DoNotOptimize(simulateServing(fleet, traffic, 1));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateClosedLoop)->Arg(64)->Arg(256);

void
BM_GenerateTrace(benchmark::State &state)
{
    TrafficConfig cfg;
    cfg.process = (ArrivalProcess)state.range(0);
    cfg.requests = 4096;
    for (auto _ : state) {
        Rng rng(3);
        benchmark::DoNotOptimize(generateTrace(cfg, rng));
    }
    state.SetItemsProcessed(state.iterations() * cfg.requests);
}
BENCHMARK(BM_GenerateTrace)
    ->Arg((int)ArrivalProcess::POISSON)
    ->Arg((int)ArrivalProcess::BURSTY);

void
BM_KvPagerChurn(benchmark::State &state)
{
    KvPagerConfig cfg;
    cfg.budgetBytes = 64.0 * 1024 * 1024 * 1024;
    cfg.bytesPerToken =
        model::kvCacheBytesPerToken(model::deepSeekV3());
    std::vector<std::uint32_t> held(256, 0);
    for (auto _ : state) {
        KvPager pager(cfg);
        std::size_t resident = 0;
        for (std::size_t s = 0; s < 256; ++s)
            if (!pager.tryAllocate(held[s], 4096))
                break;
            else
                ++resident;
        for (std::size_t s = 0; s < resident; ++s)
            pager.tryGrow(held[s], 4352);
        for (std::size_t s = 0; s < resident; ++s)
            pager.release(held[s]);
        benchmark::DoNotOptimize(pager.usedBlocks());
    }
    state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_KvPagerChurn);

} // namespace

DSV3_BENCH_MAIN(printTables)
