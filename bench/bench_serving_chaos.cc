/**
 * @file
 * Chaos serving (Sec 6 robustness applied to inference): Monte-Carlo
 * availability of a decode fleet under Poisson engine failures vs the
 * analytic MTBF/(MTBF+MTTR) bound, degraded-mode SLOs as the fault
 * rate rises, the three-way split of non-completion outcomes
 * (reject vs preempt vs shed vs failed), and time-in-state
 * attribution of a faulted run including the chaos-only FAILOVER and
 * RETRY_BACKOFF states.
 *
 * Fault schedules and retry jitter are seed-deterministic, so every
 * cell is byte-identical across reruns and thread widths and the
 * whole report diffs cleanly against BENCH_serving_chaos.json.
 */

#include "bench_util.hh"
#include "sweep_driver.hh"

#include <algorithm>
#include <cmath>

#include "common/units.hh"
#include "fault/schedule.hh"
#include "inference/serving/chaos.hh"
#include "inference/serving/simulator.hh"
#include "inference/serving/traffic.hh"
#include "model/config.hh"
#include "model/kv_cache.hh"
#include "obs/timeline.hh"

namespace {

using namespace dsv3;
using namespace dsv3::inference::serving;

/** Comm-bound fleet (decode floor = Sec 2.3.2 all-to-all): chaos
 *  effects stand out against a deterministic healthy baseline. */
ServingFleetConfig
chaosFleet(std::size_t engines)
{
    ServingFleetConfig fleet;
    fleet.modelConfig = model::deepSeekV3();
    fleet.memBytesPerSec = 1e30;
    fleet.computeFlopsPerSec = 0.0;
    fleet.maxBatchPerEngine = 64;
    fleet.decodeEngines = engines;
    fleet.prefillServers = 64;
    fleet.prefillTokensPerSecPerServer = 1e9;
    fleet.kvHandoffSeconds = 0.0;
    fleet.sloTtftSeconds = 2.0;
    fleet.sloTpotSeconds = 0.05;
    return fleet;
}

TrafficConfig
poissonTraffic(std::size_t requests, double rate, std::size_t gen)
{
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::POISSON;
    traffic.requests = requests;
    traffic.requestsPerSecond = rate;
    traffic.promptTokensMin = traffic.promptTokensMax = 128;
    traffic.genTokensMin = traffic.genTokensMax = gen;
    return traffic;
}

fault::FaultSchedule
generatedSchedule(std::size_t engines, double fail_per_hour,
                  double repair_sec, double degrade_per_hour,
                  double horizon_sec, std::uint64_t seed)
{
    fault::FaultRates rates;
    rates.rankFailPerHour = fail_per_hour;
    rates.rankRepairSec = repair_sec;
    rates.linkDegradePerHour = degrade_per_hour;
    rates.degradeFactor = 0.6;
    rates.linkRepairSec = repair_sec;
    return fault::FaultSchedule::generate(servingFaultDomain(engines),
                                          rates, horizon_sec, seed);
}

/**
 * Fleet availability under Poisson engine crashes, Monte-Carlo over
 * schedule seeds, against the analytic per-engine steady-state bound
 * A = MTBF/(MTBF+MTTR). Rows outside the valid regime (too few
 * expected failures or a span dominated by the all-up transient) are
 * marked and exempt from the 5% gate of
 * ServingChaosAvailability.SimulatedMatchesAnalyticInRegime.
 */
Table
availabilityVsFaultRate()
{
    constexpr std::size_t kEngines = 4, kSeeds = 12;
    constexpr double kRepairSec = 20.0;
    const double mtbf_sec[] = {60.0, 120.0, 240.0, 480.0};

    Table t("Fleet availability vs engine fault rate (4 engines, "
            "MTTR 20 s, 12-seed Monte-Carlo vs MTBF/(MTBF+MTTR))");
    t.setHeader({"Engine MTBF", "Fails/engine-hr", "Analytic avail",
                 "Simulated avail", "Rel err", "Valid regime",
                 "Deaths/run"});

    bench::SweepDriver<ServingMetrics> grid(4, kSeeds);
    grid.run([&](std::size_t row, std::size_t col) {
        const double fail_per_hour = 3600.0 / mtbf_sec[row];
        ServingFleetConfig fleet = chaosFleet(kEngines);
        fleet.chaos.schedule = generatedSchedule(
            kEngines, fail_per_hour, kRepairSec, 0.0, 3600.0,
            101 * (row + 1) + col);
        return simulateServing(fleet, poissonTraffic(800, 1.0, 32),
                               101 * (row + 1) + col);
    });

    for (std::size_t row = 0; row < 4; ++row) {
        const double fail_per_hour = 3600.0 / mtbf_sec[row];
        double sum = 0.0, deaths = 0.0, span = 1e300;
        for (std::size_t col = 0; col < kSeeds; ++col) {
            const ServingMetrics &m = grid.at(row, col);
            sum += m.availability;
            deaths += (double)m.engineDeaths;
            span = std::min(span, m.simSeconds);
        }
        const double measured = sum / (double)kSeeds;
        const double analytic =
            analyticEngineAvailability(fail_per_hour, kRepairSec);
        const bool in_regime = availabilityValidRegime(
            kEngines, span, fail_per_hour, kRepairSec);
        t.addRow({formatTime(mtbf_sec[row]),
                  Table::fmt(fail_per_hour, 1),
                  Table::fmtPercent(analytic, 2),
                  Table::fmtPercent(measured, 2),
                  Table::fmtPercent(
                      std::abs(measured - analytic) / analytic, 2),
                  in_regime ? "yes" : "transient",
                  Table::fmt(deaths / (double)kSeeds, 1)});
    }
    return t;
}

/** SLOs as the fleet degrades: crashes plus degraded NIC uplinks. */
Table
degradedModeSlo()
{
    constexpr std::size_t kEngines = 4;
    const double mtbf_sec[] = {0.0, 240.0, 120.0, 60.0};

    Table t("Degraded-mode SLOs vs fault rate (4 engines, MTTR 20 s, "
            "crashes + NIC degrades, Poisson 16 req/s x 2K tokens)");
    t.setHeader({"Engine MTBF", "Avail", "Tok/s", "SLO tok/s",
                 "TTFT p99", "TPOT p99", "Completed", "Failed",
                 "Retries", "Failovers"});

    bench::SweepDriver<ServingMetrics> grid(4, 1);
    grid.run([&](std::size_t row, std::size_t) {
        ServingFleetConfig fleet = chaosFleet(kEngines);
        if (mtbf_sec[row] > 0.0) {
            const double per_hour = 3600.0 / mtbf_sec[row];
            fleet.chaos.schedule = generatedSchedule(
                kEngines, per_hour, 20.0, per_hour, 3600.0, 7);
        }
        return simulateServing(fleet,
                               poissonTraffic(1600, 16.0, 2048), 19);
    });

    for (std::size_t row = 0; row < 4; ++row) {
        const ServingMetrics &m = grid.at(row, 0);
        t.addRow({mtbf_sec[row] > 0.0 ? formatTime(mtbf_sec[row])
                                      : std::string("no faults"),
                  Table::fmtPercent(m.availability, 2),
                  Table::fmt(m.tokensPerSecond, 1),
                  Table::fmt(m.sloGoodputTokensPerSecond, 1),
                  formatTime(m.ttft.p99), formatTime(m.tpot.p99),
                  Table::fmtInt(m.requestsCompleted),
                  Table::fmtInt(m.requestsFailed),
                  Table::fmtInt(m.retries),
                  Table::fmtInt(m.failovers)});
    }
    return t;
}

/**
 * The three-way split of non-completion outcomes: fitsEver rejection
 * (the context can never hold the KV), OOM preemption (it ran, lost
 * its blocks, and recomputed), admission-control shedding, and
 * retry-budget exhaustion are deliberately distinct counters.
 */
Table
outcomeSeparation()
{
    Table t("Terminal-outcome separation: reject vs preempt vs shed "
            "vs failed");
    t.setHeader({"Scenario", "Completed", "Rejected", "Preempted",
                 "Shed", "Failed", "Stranded"});

    const char *names[] = {"healthy closed loop", "KV pressure",
                           "overload + shed cap",
                           "flapping engine (budget 1)"};
    bench::SweepDriver<ServingMetrics> grid(4, 1);
    grid.run([&](std::size_t row, std::size_t) {
        const double per_tok = model::kvCacheBytesPerToken(
            model::deepSeekV3());
        TrafficConfig closed;
        closed.process = ArrivalProcess::CLOSED_LOOP;
        closed.requests = 64;
        closed.closedLoopConcurrency = 16;
        closed.promptTokensMin = closed.promptTokensMax = 128;
        closed.genTokensMin = closed.genTokensMax = 256;
        switch (row) {
          case 0:
            return simulateServing(chaosFleet(1), closed, 7);
          case 1: {
            ServingFleetConfig kv = chaosFleet(1);
            kv.kvBudgetBytesPerEngine = per_tok * 6.0 * 384.0;
            kv.kvBlockTokens = 32;
            kv.maxBatchPerEngine = 16;
            return simulateServing(kv, closed, 7);
          }
          case 2: {
            ServingFleetConfig cap = chaosFleet(1);
            cap.chaos.shedMaxOutstanding = 8;
            return simulateServing(
                cap, poissonTraffic(200, 500.0, 64), 41);
          }
          default: {
            ServingFleetConfig flap = chaosFleet(1);
            std::vector<fault::FaultEvent> events;
            for (int cycle = 0; cycle < 3; ++cycle) {
                fault::FaultEvent down;
                down.time = 2.0 + 3.0 * cycle;
                down.kind = fault::FaultKind::RANK_DOWN;
                down.rank = 0;
                fault::FaultEvent up = down;
                up.time = down.time + 1.0;
                up.kind = fault::FaultKind::RANK_UP;
                events.push_back(down);
                events.push_back(up);
            }
            flap.chaos.schedule =
                fault::FaultSchedule(std::move(events));
            flap.chaos.retryBudget = 1;
            flap.chaos.backoffBaseSeconds = 0.1;
            flap.chaos.backoffMaxSeconds = 0.5;
            TrafficConfig longgen = closed;
            longgen.genTokensMin = longgen.genTokensMax = 1024;
            return simulateServing(flap, longgen, 31);
          }
        }
    });
    for (std::size_t row = 0; row < 4; ++row) {
        const ServingMetrics &m = grid.at(row, 0);
        t.addRow({names[row], Table::fmtInt(m.requestsCompleted),
                  Table::fmtInt(m.requestsRejected),
                  Table::fmtInt(m.preemptions),
                  Table::fmtInt(m.requestsShed),
                  Table::fmtInt(m.requestsFailed),
                  Table::fmtInt(m.requestsStranded)});
    }
    return t;
}

/**
 * Serial observability run under chaos: one engine dies and recovers,
 * the other's uplink degrades. The flight recorder (with its
 * chaos-only live-engine channel) lands in the --json report's
 * timeseries; --timeline=<path> writes the sim-time Chrome trace with
 * the failover/retry markers. All eight request states print,
 * including the chaos-only FAILOVER and RETRY_BACKOFF.
 */
Table
chaosAttribution()
{
    ServingFleetConfig fleet = chaosFleet(2);
    std::vector<fault::FaultEvent> events;
    fault::FaultEvent down;
    down.time = 2.0;
    down.kind = fault::FaultKind::RANK_DOWN;
    down.rank = 0;
    fault::FaultEvent up = down;
    up.time = 6.0;
    up.kind = fault::FaultKind::RANK_UP;
    fault::FaultEvent degrade;
    degrade.time = 3.0;
    degrade.kind = fault::FaultKind::LINK_DEGRADED;
    degrade.nodeA = 1;
    degrade.nodeB = 3;
    degrade.factor = 0.7;
    events.push_back(down);
    events.push_back(up);
    events.push_back(degrade);
    fleet.chaos.schedule = fault::FaultSchedule(std::move(events));

    TrafficConfig traffic;
    traffic.process = ArrivalProcess::CLOSED_LOOP;
    traffic.requests = 96;
    traffic.closedLoopConcurrency = 32;
    traffic.promptTokensMin = traffic.promptTokensMax = 128;
    traffic.genTokensMin = traffic.genTokensMax = 512;

    obs::Timeline timeline(obs::Timeline::configFromEnv());
    fleet.recorder = &bench::flightRecorder();
    fleet.recorderIntervalSeconds = 0.1;
    if (!bench::timelinePath().empty())
        fleet.timeline = &timeline;

    ServingMetrics m = simulateServing(fleet, traffic, 53);

    if (!bench::timelinePath().empty()) {
        timeline.writeChromeJson(bench::timelinePath());
        std::fprintf(stderr,
                     "wrote chaos sim timeline: %s (%zu events)\n",
                     bench::timelinePath().c_str(),
                     timeline.eventCount());
    }

    Table t("Time-in-state attribution under chaos (engine death + "
            "recovery + degraded uplink)");
    t.setHeader({"State", "Total", "Share", "p50/req", "p95/req",
                 "p99/req"});
    for (std::size_t s = 0; s < kNumRequestStates; ++s) {
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
    t.addRow({"availability", Table::fmtPercent(m.availability, 2),
              "", "min live", Table::fmtInt(m.minLiveEngines), ""});
    t.addRow({"verdict", bottleneckName(m.bottleneck), "", "", "",
              ""});
    return t;
}

void
printTables()
{
    bench::printTable(availabilityVsFaultRate());
    bench::printTable(degradedModeSlo());
    bench::printTable(outcomeSeparation());
    bench::printTable(chaosAttribution());
}

// Microbenchmarks -------------------------------------------------------

void
BM_SimulateChaosClosedLoop(benchmark::State &state)
{
    ServingFleetConfig fleet = chaosFleet(4);
    fleet.chaos.schedule =
        generatedSchedule(4, 30.0, 20.0, 30.0, 600.0, 5);
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::CLOSED_LOOP;
    traffic.requests = (std::size_t)state.range(0);
    traffic.closedLoopConcurrency = 64;
    traffic.genTokensMin = traffic.genTokensMax = 128;
    for (auto _ : state)
        benchmark::DoNotOptimize(simulateServing(fleet, traffic, 1));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
// The 1024-request arg exists to show the event-loop scaling the
// event-heap + per-engine-slot core buys; it runs only when the
// microbenchmarks do (the golden table runs filter them out).
BENCHMARK(BM_SimulateChaosClosedLoop)->Arg(64)->Arg(256)->Arg(1024);

void
BM_GenerateFaultSchedule(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            generatedSchedule((std::size_t)state.range(0), 30.0, 20.0,
                              30.0, 3600.0, 11));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateFaultSchedule)->Arg(4)->Arg(64);

} // namespace

DSV3_BENCH_MAIN(printTables)
