/**
 * @file
 * Tests for fault-tolerant serving: config validation, the no-fault
 * byte-identity guarantee, engine-death failover and retry budgets,
 * shed/reject/preempt outcome separation, degraded-link slowdown,
 * availability accounting against explicit and generated schedules,
 * and byte-identical chaos runs across thread widths.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sweep.hh"
#include "common/thread_pool.hh"
#include "fault/schedule.hh"
#include "inference/serving/chaos.hh"
#include "inference/serving/simulator.hh"
#include "inference/serving/traffic.hh"
#include "model/config.hh"
#include "model/kv_cache.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"

namespace dsv3::inference::serving {
namespace {

// Shared scenario helpers ------------------------------------------------

/** Name -> value of every counter and gauge in the global registry. */
std::map<std::string, double>
statValues()
{
    obs::JsonValue doc;
    std::string err;
    EXPECT_TRUE(obs::parseJson(obs::Registry::global().snapshotJson(),
                               &doc, &err))
        << err;
    std::map<std::string, double> out;
    for (const auto &[name, stat] : doc.object())
        if (const obs::JsonValue *value = stat.find("value"))
            out[name] = value->number();
    return out;
}

/** Comm-bound fleet (see test_serving.cc): the all-to-all floor is
 *  the only per-step cost, so chaos effects stand out cleanly. */
ServingFleetConfig
chaosFleet(std::size_t engines)
{
    ServingFleetConfig fleet;
    fleet.modelConfig = model::deepSeekV3();
    fleet.memBytesPerSec = 1e30;
    fleet.computeFlopsPerSec = 0.0;
    fleet.schedule = Schedule::DUAL_MICROBATCH;
    fleet.deployment = Deployment::DISAGGREGATED;
    fleet.decodeEngines = engines;
    fleet.maxBatchPerEngine = 64;
    fleet.prefillServers = 64;
    fleet.prefillTokensPerSecPerServer = 1e9;
    fleet.kvHandoffSeconds = 0.0;
    return fleet;
}

TrafficConfig
closedLoop(std::size_t requests, std::size_t gen,
           std::size_t concurrency = 64)
{
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::CLOSED_LOOP;
    traffic.requests = requests;
    traffic.closedLoopConcurrency = concurrency;
    traffic.promptTokensMin = traffic.promptTokensMax = 128;
    traffic.genTokensMin = traffic.genTokensMax = gen;
    return traffic;
}

fault::FaultSchedule
explicitSchedule(std::vector<fault::FaultEvent> events)
{
    return fault::FaultSchedule(std::move(events));
}

fault::FaultEvent
rankEvent(double t, fault::FaultKind kind, std::size_t rank)
{
    fault::FaultEvent ev;
    ev.time = t;
    ev.kind = kind;
    ev.rank = rank;
    return ev;
}

/** LINK_DEGRADED on engine @p eng's uplink (servingFaultDomain maps
 *  link r to endpoints r -> engines + r). factor 1.0 repairs. */
fault::FaultEvent
linkEvent(double t, std::size_t eng, std::size_t engines,
          double factor)
{
    fault::FaultEvent ev;
    ev.time = t;
    ev.kind = fault::FaultKind::LINK_DEGRADED;
    ev.nodeA = (net::NodeId)eng;
    ev.nodeB = (net::NodeId)(engines + eng);
    ev.factor = factor;
    return ev;
}

/** Every deterministic scalar a chaos run produces. */
std::vector<double>
chaosFingerprint(const ServingMetrics &m)
{
    std::vector<double> out = {
        (double)m.requestsCompleted, (double)m.requestsRejected,
        (double)m.requestsShed,      (double)m.requestsFailed,
        (double)m.requestsStranded,  (double)m.retries,
        (double)m.failovers,         (double)m.engineDeaths,
        (double)m.preemptions,       (double)m.decodeSteps,
        (double)m.decodeTokens,      m.engineDowntimeSeconds,
        m.availability,              (double)m.minLiveEngines,
        m.simSeconds,                m.ttft.mean,
        m.ttft.p99,                  m.tpot.mean,
        m.tpot.p99,                  m.tokensPerSecond,
        m.sloGoodputTokensPerSecond, m.totalLatencySeconds};
    for (std::size_t s = 0; s < kNumRequestStates; ++s)
        out.push_back(m.stateSeconds[s]);
    return out;
}

// Config validation (satellite: reject nonsense configs) -----------------

using ChaosValidationDeathTest = ::testing::Test;

TEST(ChaosValidationDeathTest, ZeroEnginesRejected)
{
    ServingFleetConfig fleet = chaosFleet(0);
    EXPECT_DEATH(simulateServing(fleet, closedLoop(4, 8), 1),
                 "decodeEngines must be >= 1");
}

TEST(ChaosValidationDeathTest, ZeroKvBlockTokensRejected)
{
    ServingFleetConfig fleet = chaosFleet(1);
    fleet.kvBlockTokens = 0;
    EXPECT_DEATH(simulateServing(fleet, closedLoop(4, 8), 1),
                 "kvBlockTokens must be >= 1");
}

TEST(ChaosValidationDeathTest, NegativeKvBudgetRejected)
{
    ServingFleetConfig fleet = chaosFleet(1);
    fleet.kvBudgetBytesPerEngine = -1.0;
    EXPECT_DEATH(simulateServing(fleet, closedLoop(4, 8), 1),
                 "kvBudgetBytesPerEngine");
}

TEST(ChaosValidationDeathTest, NonPositiveOpenLoopRateRejected)
{
    ServingFleetConfig fleet = chaosFleet(1);
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::POISSON;
    traffic.requests = 4;
    traffic.requestsPerSecond = -2.0;
    EXPECT_DEATH(simulateServing(fleet, traffic, 1),
                 "requestsPerSecond must be > 0");
}

TEST(ChaosValidationDeathTest, ZeroRequestsRejected)
{
    ServingFleetConfig fleet = chaosFleet(1);
    TrafficConfig traffic;
    traffic.requests = 0;
    EXPECT_DEATH(simulateServing(fleet, traffic, 1),
                 "requests must be >= 1");
}

TEST(ChaosValidationDeathTest, BadBackoffMultiplierRejected)
{
    ServingFleetConfig fleet = chaosFleet(2);
    fleet.chaos.schedule = explicitSchedule(
        {rankEvent(1.0, fault::FaultKind::RANK_DOWN, 0)});
    fleet.chaos.backoffMultiplier = 0.5;
    EXPECT_DEATH(simulateServing(fleet, closedLoop(4, 8), 1),
                 "backoffMultiplier");
}

TEST(ChaosValidationDeathTest, BadProbeIntervalRejected)
{
    ServingFleetConfig fleet = chaosFleet(2);
    fleet.chaos.schedule = explicitSchedule(
        {rankEvent(1.0, fault::FaultKind::RANK_DOWN, 0)});
    fleet.chaos.probeIntervalSeconds = 0.0;
    EXPECT_DEATH(simulateServing(fleet, closedLoop(4, 8), 1),
                 "probeIntervalSeconds");
}

TEST(ChaosValidation, ChaosKnobsUncheckedWhenChaosOff)
{
    // An invalid probe interval is irrelevant -- and must not trip an
    // assert -- while the schedule is empty and the shed cap is off.
    ServingFleetConfig fleet = chaosFleet(1);
    fleet.chaos.probeIntervalSeconds = 0.0;
    ServingMetrics m = simulateServing(fleet, closedLoop(8, 16), 1);
    EXPECT_EQ(m.requestsCompleted, 8u);
}

// No-fault byte identity -------------------------------------------------

TEST(ServingChaos, EmptyScheduleByteIdenticalToNoChaosConfig)
{
    // Chaos policy knobs may differ arbitrarily: with no schedule and
    // no shed cap the run must be bit-for-bit the no-fault run.
    ServingFleetConfig plain = chaosFleet(2);
    ServingMetrics a = simulateServing(plain, closedLoop(64, 64), 9);

    ServingFleetConfig wired = chaosFleet(2);
    wired.chaos.probeIntervalSeconds = 0.125;
    wired.chaos.retryBudget = 7;
    wired.chaos.backoffBaseSeconds = 1.0;
    wired.chaos.recoverySeconds = 3.0;
    wired.chaos.drainBelowFactor = 0.9;
    ServingMetrics b = simulateServing(wired, closedLoop(64, 64), 9);

    auto fa = chaosFingerprint(a), fb = chaosFingerprint(b);
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i)
        EXPECT_EQ(std::memcmp(&fa[i], &fb[i], sizeof(double)), 0)
            << "field " << i;
    EXPECT_EQ(a.requestsShed, 0u);
    EXPECT_EQ(a.requestsFailed, 0u);
    EXPECT_EQ(a.retries, 0u);
    EXPECT_DOUBLE_EQ(a.availability, 1.0);
    EXPECT_EQ(a.minLiveEngines, 2u);
    EXPECT_DOUBLE_EQ(a.stateSeconds[(int)RequestState::FAILOVER], 0.0);
    EXPECT_DOUBLE_EQ(
        a.stateSeconds[(int)RequestState::RETRY_BACKOFF], 0.0);
}

TEST(ServingChaos, EmptyScheduleTimelineByteIdentical)
{
    auto capture = [](bool wire_chaos) {
        ServingFleetConfig fleet = chaosFleet(2);
        if (wire_chaos) {
            fleet.chaos.probeIntervalSeconds = 0.125;
            fleet.chaos.retryBudget = 9;
        }
        obs::Timeline timeline;
        fleet.timeline = &timeline;
        simulateServing(fleet, closedLoop(48, 48), 13);
        return timeline.chromeJson();
    };
    EXPECT_EQ(capture(false), capture(true));
}

// Failover ---------------------------------------------------------------

TEST(ServingChaos, EngineDeathFailsOverToSurvivor)
{
    ServingFleetConfig fleet = chaosFleet(2);
    fleet.chaos.schedule = explicitSchedule(
        {rankEvent(2.0, fault::FaultKind::RANK_DOWN, 0)});
    TrafficConfig traffic = closedLoop(96, 512, 32);

    ServingMetrics m = simulateServing(fleet, traffic, 17);
    // Engine 0's residents lose their KV blocks and recompute on
    // engine 1; nobody is lost, nobody exhausts the budget.
    EXPECT_EQ(m.requestsCompleted, 96u);
    EXPECT_EQ(m.requestsFailed, 0u);
    EXPECT_EQ(m.requestsStranded, 0u);
    EXPECT_GT(m.failovers, 0u);
    EXPECT_GT(m.retries, 0u);
    EXPECT_EQ(m.engineDeaths, 1u);
    EXPECT_EQ(m.minLiveEngines, 1u);
    EXPECT_LT(m.availability, 1.0);
    EXPECT_GT(m.engineDowntimeSeconds, 0.0);
    // Failed-over requests spend time in the chaos-only states.
    EXPECT_GT(m.stateSeconds[(int)RequestState::RETRY_BACKOFF], 0.0);
    EXPECT_GT(m.stateSeconds[(int)RequestState::FAILOVER], 0.0);
    // The digests cover completed requests only, all of them.
    EXPECT_EQ(m.ttft.count, m.requestsCompleted);
    EXPECT_EQ(m.tpot.count, m.requestsCompleted);
}

TEST(ServingChaos, ExplicitOutageDowntimeMatchesSchedule)
{
    // Engine 0 is unreachable exactly over [5, 15): 10 engine-seconds
    // of downtime, integrated from actual (not observed) state.
    ServingFleetConfig fleet = chaosFleet(2);
    fleet.chaos.schedule = explicitSchedule(
        {rankEvent(5.0, fault::FaultKind::RANK_DOWN, 0),
         rankEvent(15.0, fault::FaultKind::RANK_UP, 0)});
    TrafficConfig traffic = closedLoop(512, 256, 32);

    ServingMetrics m = simulateServing(fleet, traffic, 23);
    ASSERT_GT(m.simSeconds, 15.0)
        << "scenario must outlive the outage";
    EXPECT_NEAR(m.engineDowntimeSeconds, 10.0, 1e-9);
    EXPECT_NEAR(m.availability,
                1.0 - 10.0 / (2.0 * m.simSeconds), 1e-12);
    EXPECT_EQ(m.engineDeaths, 1u);
    EXPECT_EQ(m.requestsCompleted, 512u);
}

TEST(ServingChaos, LinkDownIsDeathLinkUpRepairs)
{
    // A hard NIC failure is indistinguishable from a crash to the
    // dispatcher: residents fail over, the engine later recovers.
    ServingFleetConfig fleet = chaosFleet(2);
    std::vector<fault::FaultEvent> events;
    fault::FaultEvent down;
    down.time = 3.0;
    down.kind = fault::FaultKind::LINK_DOWN;
    down.nodeA = 0;
    down.nodeB = 2;
    fault::FaultEvent up = down;
    up.time = 9.0;
    up.kind = fault::FaultKind::LINK_UP;
    events.push_back(down);
    events.push_back(up);
    fleet.chaos.schedule = explicitSchedule(events);

    ServingMetrics m = simulateServing(fleet, closedLoop(256, 512, 32),
                                       29);
    EXPECT_EQ(m.engineDeaths, 1u);
    EXPECT_GT(m.failovers, 0u);
    EXPECT_NEAR(m.engineDowntimeSeconds, 6.0, 1e-9);
    EXPECT_EQ(m.requestsCompleted, 256u);
}

// Retry budget (satellite: exhaustion semantics) -------------------------

TEST(ServingChaos, RetryBudgetExhaustionFailsRequests)
{
    // One engine flapping every few seconds with a budget of 1:
    // any request evicted twice is FAILED, not retried forever.
    ServingFleetConfig fleet = chaosFleet(1);
    std::vector<fault::FaultEvent> events;
    for (int cycle = 0; cycle < 3; ++cycle) {
        double base = 2.0 + 3.0 * cycle;
        events.push_back(
            rankEvent(base, fault::FaultKind::RANK_DOWN, 0));
        events.push_back(
            rankEvent(base + 1.0, fault::FaultKind::RANK_UP, 0));
    }
    fleet.chaos.schedule = explicitSchedule(events);
    fleet.chaos.retryBudget = 1;
    fleet.chaos.backoffBaseSeconds = 0.1;
    fleet.chaos.backoffMaxSeconds = 0.5;
    // Per-request service time exceeds the up-window of a flap
    // cycle, so residents are evicted (at least) twice.
    TrafficConfig traffic = closedLoop(64, 1024, 16);

    ServingMetrics m = simulateServing(fleet, traffic, 31);
    EXPECT_GT(m.requestsFailed, 0u);
    EXPECT_GT(m.requestsCompleted, 0u);
    // Every request ends in exactly one terminal bucket.
    EXPECT_EQ(m.requestsCompleted + m.requestsRejected +
                  m.requestsShed + m.requestsFailed +
                  m.requestsStranded,
              64u);
    // FAILED requests never contaminate the latency digests.
    EXPECT_EQ(m.ttft.count, m.requestsCompleted);
    EXPECT_EQ(m.tpot.count, m.requestsCompleted);
    for (std::size_t s = 0; s < kNumRequestStates; ++s)
        EXPECT_EQ(m.statePerRequest[s].count, m.requestsCompleted)
            << requestStateName((RequestState)s);
}

TEST(ServingChaos, PermanentFleetLossStrandsRatherThanSpins)
{
    // The only engine dies and never repairs: in-flight requests
    // park (STRANDED), the event queue drains, the sim terminates.
    ServingFleetConfig fleet = chaosFleet(1);
    fleet.chaos.schedule = explicitSchedule(
        {rankEvent(1.0, fault::FaultKind::RANK_DOWN, 0)});
    TrafficConfig traffic = closedLoop(32, 256, 8);

    ServingMetrics m = simulateServing(fleet, traffic, 37);
    EXPECT_GT(m.requestsStranded, 0u);
    // Closed-loop requests behind the stranded in-flight window never
    // arrive at all, so the terminal buckets bound but need not reach
    // the trace size.
    EXPECT_LE(m.requestsCompleted + m.requestsStranded +
                  m.requestsFailed,
              32u);
    EXPECT_EQ(m.minLiveEngines, 0u);
    EXPECT_EQ(m.ttft.count, m.requestsCompleted);
}

// Outcome separation (satellite: shed vs preempt vs reject) --------------

TEST(ServingChaos, ShedDistinctFromRejectAndPreempt)
{
    // Unlimited KV + a tiny admission cap: overload sheds, and only
    // sheds -- no OOM preemption, no fitsEver rejection.
    ServingFleetConfig fleet = chaosFleet(1);
    fleet.chaos.shedMaxOutstanding = 8;
    TrafficConfig traffic;
    traffic.process = ArrivalProcess::POISSON;
    traffic.requests = 200;
    traffic.requestsPerSecond = 500.0; // far above capacity
    traffic.promptTokensMin = traffic.promptTokensMax = 128;
    traffic.genTokensMin = traffic.genTokensMax = 64;

    ServingMetrics m = simulateServing(fleet, traffic, 41);
    EXPECT_GT(m.requestsShed, 0u);
    EXPECT_EQ(m.requestsRejected, 0u);
    EXPECT_EQ(m.preemptions, 0u);
    EXPECT_EQ(m.requestsCompleted + m.requestsShed, 200u);
    EXPECT_EQ(m.ttft.count, m.requestsCompleted);

    // KV pressure on the same fleet preempts but never sheds, with a
    // slower prefill pool and with bench_serving_chaos's.
    const double per_tok = model::kvCacheBytesPerToken(model::deepSeekV3());
    for (double prefill : {1e6, 1e9}) {
        ServingFleetConfig kv = chaosFleet(1);
        kv.prefillTokensPerSecPerServer = prefill;
        kv.kvBudgetBytesPerEngine = per_tok * 6.0 * 384.0;
        kv.kvBlockTokens = 32;
        kv.maxBatchPerEngine = 16;
        TrafficConfig pressured = closedLoop(64, 256, 16);
        ServingMetrics mk = simulateServing(kv, pressured, 7);
        EXPECT_GT(mk.preemptions, 0u) << prefill;
        EXPECT_EQ(mk.requestsShed, 0u) << prefill;
        EXPECT_EQ(mk.requestsRejected, 0u) << prefill;
    }

    // A prompt that can never fit is rejected, not shed.
    ServingFleetConfig tiny = chaosFleet(1);
    tiny.chaos.shedMaxOutstanding = 8;
    tiny.kvBudgetBytesPerEngine = per_tok * 256.0;
    TrafficConfig huge = closedLoop(8, 64, 4);
    huge.promptTokensMin = huge.promptTokensMax = 4096;
    ServingMetrics mr = simulateServing(tiny, huge, 3);
    EXPECT_EQ(mr.requestsRejected, 8u);
    EXPECT_EQ(mr.requestsShed, 0u);
    EXPECT_EQ(mr.requestsCompleted, 0u);
}

// Degraded links ---------------------------------------------------------

TEST(ServingChaos, DegradedLinkInflatesDecodeLatency)
{
    ServingFleetConfig healthy = chaosFleet(1);
    TrafficConfig traffic = closedLoop(64, 128);
    ServingMetrics base = simulateServing(healthy, traffic, 43);

    ServingFleetConfig degraded = chaosFleet(1);
    degraded.chaos.schedule =
        explicitSchedule({linkEvent(0.0, 0, 1, 0.6)});
    ServingMetrics slow = simulateServing(degraded, traffic, 43);

    // 0.6 is above drainBelowFactor: the engine keeps admitting but
    // every step's comm term stretches (plus the retry lottery).
    EXPECT_EQ(slow.requestsCompleted, 64u);
    EXPECT_EQ(slow.failovers, 0u);
    EXPECT_EQ(slow.engineDeaths, 0u);
    EXPECT_DOUBLE_EQ(slow.availability, 1.0);
    EXPECT_GT(slow.tpot.p50, base.tpot.p50);
    EXPECT_GT(slow.stateSeconds[(int)RequestState::DECODE_COMM],
              base.stateSeconds[(int)RequestState::DECODE_COMM]);
}

TEST(ServingChaos, DrainingEngineParksArrivalsUntilRepair)
{
    // Factor 0.3 is below drainBelowFactor 0.5: the only engine stops
    // admitting, arrivals park, and everything completes after the
    // repair at t = 6.
    ServingFleetConfig fleet = chaosFleet(1);
    fleet.chaos.schedule =
        explicitSchedule({linkEvent(2.0, 0, 1, 0.3),
                          linkEvent(6.0, 0, 1, 1.0)});
    TrafficConfig traffic = closedLoop(48, 96, 16);

    ServingMetrics m = simulateServing(fleet, traffic, 47);
    EXPECT_EQ(m.requestsCompleted, 48u);
    EXPECT_EQ(m.failovers, 0u);
    EXPECT_EQ(m.engineDeaths, 0u);
    // Draining is not downtime: the engine stays reachable.
    EXPECT_DOUBLE_EQ(m.availability, 1.0);
    EXPECT_DOUBLE_EQ(m.engineDowntimeSeconds, 0.0);
}

// Observability ----------------------------------------------------------

TEST(ServingChaos, TimelineAndRecorderCoverChaosEvents)
{
    ServingFleetConfig fleet = chaosFleet(2);
    fleet.chaos.schedule = explicitSchedule(
        {rankEvent(2.0, fault::FaultKind::RANK_DOWN, 0),
         rankEvent(6.0, fault::FaultKind::RANK_UP, 0),
         linkEvent(3.0, 1, 2, 0.7)});
    obs::Timeline timeline;
    obs::FlightRecorder recorder(256);
    fleet.timeline = &timeline;
    fleet.recorder = &recorder;
    fleet.recorderIntervalSeconds = 0.1;

    std::map<std::string, double> before = statValues();
    ServingMetrics m =
        simulateServing(fleet, closedLoop(96, 512, 32), 53);
    ASSERT_GT(m.failovers, 0u);

    // The chaos counters ride in the stats registry (and so in the
    // chaos bench report's stats block).
    const std::map<std::string, double> after = statValues();
    for (const auto &[name, delta] :
         {std::pair<const char *, double>{"inference.serving.retries",
                                          (double)m.retries},
          {"inference.serving.sheds", (double)m.requestsShed},
          {"inference.serving.failovers", (double)m.failovers},
          {"inference.serving.retry_exhausted", (double)m.requestsFailed},
          {"inference.serving.engine_deaths", (double)m.engineDeaths},
          {"inference.serving.engine_downtime_seconds",
           m.engineDowntimeSeconds}}) {
        ASSERT_EQ(after.count(name), 1u) << name;
        EXPECT_NEAR(after.at(name) - before[name], delta,
                    1e-9 * std::max(1.0, delta))
            << name;
    }

    const std::string json = timeline.chromeJson();
    for (const char *needle :
         {"\"engine.down\"", "\"engine.up\"", "\"health.dead\"",
          "\"health.recovering\"", "\"health.recovered\"",
          "\"fault.link_degraded\"", "\"failover\"", "\"retry\"",
          "\"failover.recompute\""}) {
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }

    // The live-engine channel exists under chaos and dips to 1.
    auto samples = recorder.samples("inference.serving.live_engines");
    ASSERT_GE(samples.size(), 2u);
    double lo = 1e300, hi = 0.0;
    for (const auto &s : samples) {
        lo = std::min(lo, s.v);
        hi = std::max(hi, s.v);
    }
    EXPECT_EQ(lo, 1.0);
    EXPECT_EQ(hi, 2.0);

    // ... and is absent from a fault-free run, whose core counters
    // register all the same.
    ServingFleetConfig plain = chaosFleet(2);
    obs::FlightRecorder quiet(256);
    plain.recorder = &quiet;
    before = statValues();
    m = simulateServing(plain, closedLoop(32, 32), 53);
    for (const std::string &c : quiet.channels())
        EXPECT_NE(c, "inference.serving.live_engines");
    const std::map<std::string, double> fault_free = statValues();
    for (const auto &[name, delta] :
         {std::pair<const char *, double>{"inference.serving.runs", 1.0},
          {"inference.serving.completed", (double)m.requestsCompleted},
          {"inference.serving.decode_steps", (double)m.decodeSteps}}) {
        ASSERT_EQ(fault_free.count(name), 1u) << name;
        EXPECT_EQ(fault_free.at(name) - before[name], delta) << name;
    }
}

// Determinism ------------------------------------------------------------

TEST(ServingChaos, ByteIdenticalAcrossThreadWidthsAndReruns)
{
    const double fail_rates[] = {30.0, 60.0, 120.0}; // per hour
    const Deployment deps[] = {Deployment::DISAGGREGATED,
                               Deployment::COLOCATED};

    auto run_grid = [&]() {
        std::vector<std::vector<double>> out(6);
        runSweepGrid(3, 2, [&](const SweepPoint &p) {
            ServingFleetConfig fleet = chaosFleet(4);
            fleet.deployment = deps[p.col];
            fleet.prefillServers = 4;
            fleet.prefillTokensPerSecPerServer = 1e6;
            fault::FaultRates rates;
            rates.rankFailPerHour = fail_rates[p.row];
            rates.rankRepairSec = 5.0;
            rates.linkDegradePerHour = fail_rates[p.row];
            rates.degradeFactor = 0.6;
            rates.linkRepairSec = 5.0;
            fleet.chaos.schedule = fault::FaultSchedule::generate(
                servingFaultDomain(4), rates, 120.0, 99 + p.index);
            fleet.chaos.shedMaxOutstanding = 96;
            TrafficConfig traffic;
            traffic.process = ArrivalProcess::POISSON;
            traffic.requests = 300;
            traffic.requestsPerSecond = 6.0;
            traffic.genTokensMin = 64;
            traffic.genTokensMax = 192;
            ServingMetrics m =
                simulateServing(fleet, traffic, 1000 + p.index);
            out[p.index] = chaosFingerprint(m);
        });
        return out;
    };

    setParallelForWidth(1);
    auto w1 = run_grid();
    setParallelForWidth(2);
    auto w2 = run_grid();
    setParallelForWidth(0);
    auto whw = run_grid();
    auto whw2 = run_grid();
    setParallelForWidth(0);

    bool any_chaos = false;
    for (std::size_t i = 0; i < w1.size(); ++i) {
        ASSERT_EQ(w1[i].size(), w2[i].size());
        any_chaos |= w1[i][6] > 0.0; // failovers
        for (std::size_t j = 0; j < w1[i].size(); ++j) {
            EXPECT_EQ(std::memcmp(&w1[i][j], &w2[i][j],
                                  sizeof(double)), 0)
                << "cell " << i << " field " << j;
            EXPECT_EQ(std::memcmp(&w1[i][j], &whw[i][j],
                                  sizeof(double)), 0);
            EXPECT_EQ(std::memcmp(&whw[i][j], &whw2[i][j],
                                  sizeof(double)), 0);
        }
    }
    EXPECT_TRUE(any_chaos) << "grid never exercised a failover";
}

TEST(ServingChaos, ChaosTimelineByteIdenticalAcrossWidths)
{
    auto capture = [&]() {
        ServingFleetConfig fleet = chaosFleet(2);
        fleet.chaos.schedule = explicitSchedule(
            {rankEvent(2.0, fault::FaultKind::RANK_DOWN, 0),
             rankEvent(6.0, fault::FaultKind::RANK_UP, 0)});
        obs::Timeline timeline;
        fleet.timeline = &timeline;
        simulateServing(fleet, closedLoop(64, 96, 24), 59);
        return timeline.chromeJson();
    };
    setParallelForWidth(1);
    std::string w1 = capture();
    setParallelForWidth(2);
    std::string w2 = capture();
    setParallelForWidth(0);
    std::string whw = capture();
    std::string rerun = capture();
    EXPECT_EQ(w1, w2);
    EXPECT_EQ(w1, whw);
    EXPECT_EQ(w1, rerun);
}

// Availability vs the analytic bound -------------------------------------

TEST(ServingChaosAvailability, AnalyticHelperBasics)
{
    EXPECT_DOUBLE_EQ(analyticEngineAvailability(0.0, 60.0), 1.0);
    // MTBF 120 s (30/hour), MTTR 40 s: A = 120 / 160.
    EXPECT_NEAR(analyticEngineAvailability(30.0, 40.0), 0.75, 1e-12);
    // Short spans or rare failures are out of regime.
    EXPECT_FALSE(availabilityValidRegime(4, 10.0, 30.0, 40.0));
    EXPECT_FALSE(availabilityValidRegime(1, 300.0, 0.1, 40.0));
    EXPECT_TRUE(availabilityValidRegime(4, 600.0, 30.0, 20.0));
}

TEST(ServingChaosAvailability, SimulatedMatchesAnalyticInRegime)
{
    // bench_serving_chaos's availability table: 4 engines, MTTR 20 s,
    // MTBF 60-480 s, a 12-seed Monte-Carlo per row. Every valid-regime
    // row must land within 5% of the analytic bound, and at least two
    // rows must be in the regime.
    std::size_t in_regime = 0;
    const double mtbf_sec[] = {60.0, 120.0, 240.0, 480.0};
    for (std::size_t row = 0; row < 4; ++row) {
        const double per_hour = 3600.0 / mtbf_sec[row];
        double sum = 0.0, span = 1e300;
        for (std::size_t col = 0; col < 12; ++col) {
            const std::uint64_t seed = 101 * (row + 1) + col;
            ServingFleetConfig fleet = chaosFleet(4);
            fault::FaultRates rates;
            rates.rankFailPerHour = per_hour;
            rates.rankRepairSec = 20.0;
            fleet.chaos.schedule = fault::FaultSchedule::generate(
                servingFaultDomain(4), rates, 3600.0, seed);
            TrafficConfig traffic;
            traffic.process = ArrivalProcess::POISSON;
            traffic.requests = 800;
            traffic.requestsPerSecond = 1.0;
            traffic.promptTokensMin = traffic.promptTokensMax = 128;
            traffic.genTokensMin = traffic.genTokensMax = 32;
            ServingMetrics m = simulateServing(fleet, traffic, seed);
            sum += m.availability;
            span = std::min(span, m.simSeconds);
        }
        if (!availabilityValidRegime(4, span, per_hour, 20.0))
            continue;
        ++in_regime;
        const double analytic =
            analyticEngineAvailability(per_hour, 20.0);
        EXPECT_NEAR(sum / 12.0, analytic, 0.05 * analytic)
            << "MTBF " << mtbf_sec[row] << " s";
    }
    EXPECT_GE(in_regime, 2u);

    // 4 engines, MTBF 120 s, MTTR 20 s: A = 120/140 ~ 0.857. Average
    // the (deterministic) Monte-Carlo over a few schedule seeds and
    // demand the 5% agreement the chaos bench gates on.
    const double fail_per_hour = 30.0, repair_sec = 20.0;
    const double analytic =
        analyticEngineAvailability(fail_per_hour, repair_sec);

    double sum = 0.0;
    const std::uint64_t seeds[] = {101, 202, 303, 404, 505, 606};
    double span = 0.0;
    for (std::uint64_t seed : seeds) {
        ServingFleetConfig fleet = chaosFleet(4);
        fault::FaultRates rates;
        rates.rankFailPerHour = fail_per_hour;
        rates.rankRepairSec = repair_sec;
        fleet.chaos.schedule = fault::FaultSchedule::generate(
            servingFaultDomain(4), rates, 3600.0, seed);
        TrafficConfig traffic;
        traffic.process = ArrivalProcess::POISSON;
        traffic.requests = 800;
        traffic.requestsPerSecond = 2.0;
        traffic.genTokensMin = traffic.genTokensMax = 64;
        ServingMetrics m = simulateServing(fleet, traffic, seed);
        sum += m.availability;
        span = std::max(span, m.simSeconds);
    }
    const double measured = sum / 6.0;
    ASSERT_TRUE(availabilityValidRegime(4, span, fail_per_hour,
                                        repair_sec));
    EXPECT_NEAR(measured, analytic, 0.05 * analytic);
}

} // namespace
} // namespace dsv3::inference::serving
