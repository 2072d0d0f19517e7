/**
 * @file
 * perfbench: host-time benchmark of the dsv3 simulators.
 *
 * One process runs one workload (README.md says why each exists) as a
 * single caller that issues each public layer call after the previous
 * one returns. A run is: set-up (input generation plus one untimed
 * warm-up pass) repeated kSetups times, then timed passes until the
 * requested seconds are spent. Every call's output is digested and
 * checked -- at the default seed against the stored reference digests,
 * at any other seed against the run's first pass -- and a mismatch is
 * counted as a failed call.
 *
 * Layers are measured from outside: a Span brackets each call into a
 * layer's public function. In a traced run every other pass also
 * reads the obs::Registry counters around each call, so the per-layer
 * report can attribute counter deltas to layers, and the untraced
 * passes in between measure what that bookkeeping costs.
 *
 * stdout: a human-readable report, then one JSON result line.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "collective/patterns.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fault/failover.hh"
#include "fault/injector.hh"
#include "inference/serving/simulator.hh"
#include "inference/serving/traffic.hh"
#include "model/config.hh"
#include "net/cluster.hh"
#include "net/flow.hh"
#include "net/route_cache.hh"
#include "numerics/dispatch.hh"
#include "numerics/gemm.hh"
#include "numerics/kernels.hh"
#include "numerics/logfmt.hh"
#include "numerics/matrix.hh"
#include "obs/registry.hh"

namespace {

using namespace dsv3;
using Clock = std::chrono::steady_clock;

/** Seed whose per-call digests are stored in reference_digests.txt. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetups = 5;
/** Timed passes per run even when --seconds is already spent. */
constexpr std::size_t kMinPasses = 10;
/**
 * Every pass time and layer time is reported as this quantile over
 * the run's passes. Passes do identical work, so a slower build slows
 * all of them alike; but other tenants of a shared host slow some
 * stretches of a run by 30-50% for seconds to minutes at a time, which
 * moves the median between runs far more than the code under test
 * does. The 10th percentile stays with the uncontended passes.
 */
constexpr double kPassQuantile = 0.1;
/** parallelFor width of every call: one core, so the figures do not
 *  depend on what else shares the host's other cores. */
constexpr std::size_t kWidth = 1;
/** Held-out seeds live in the upper half of the seed space; seeds a
 *  change is developed on are small integers. */
constexpr std::uint64_t kHeldOutSalt = 0x5eed0ff5e7d00dULL;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank quantile (a measured value, never interpolated). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[(std::size_t)(q * (double)(v.size() - 1))];
}

/** Order-sensitive 64-bit digest over the exact bits of an output. */
class Digest
{
  public:
    void u64(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001b3ULL; }
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void f64s(const double *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            f64(p[i]);
    }
    std::uint64_t value() const { return hashU64(h_); }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- Layers and counters --------------------------------------------

/** Public layer calls a Span can bracket. */
enum Layer : std::size_t
{
    SERVING_SIMULATE,
    SERVING_GENERATE,
    NET_CLUSTER_BUILD,
    COLLECTIVE_FLOWS,
    NET_ASSIGN_COLD,
    NET_ASSIGN_WARM,
    NET_FLOW_BUILD,
    NET_FLOW_RUN,
    FAULT_INJECT,
    FAULT_FAILOVER,
    GEMM_FP22,
    GEMM_FP32,
    GEMM_NOPROMOTE,
    GEMM_BF16,
    LOGFMT_ROUNDTRIP,
    QUANTIZE_E4M3,
    kLayers
};

/** Span names; the per-layer metric of layer L is name(L) + "_s". */
constexpr const char *kLayerNames[kLayers] = {
    "inference.serving.simulate",
    "inference.serving.traffic.generate",
    "net.cluster.build",
    "collective.flows",
    "net.route.assign_cold",
    "net.route.assign_warm",
    "net.flow.build",
    "net.flow.run",
    "fault.inject",
    "fault.failover",
    "numerics.gemm_fp22",
    "numerics.gemm_fp32",
    "numerics.gemm_nopromote",
    "numerics.gemm_bf16",
    "numerics.logfmt_roundtrip",
    "numerics.quantize_e4m3",
};

/** obs::Registry counters read around every call of a traced pass. */
enum CounterId : std::size_t
{
    STEP_CACHE_HITS,
    STEP_CACHE_MISSES,
    ROUTE_CACHE_HITS,
    ROUTE_CACHE_MISSES,
    ROUTE_CACHE_DERIVED,
    FLOW_EPOCHS,
    FLOW_SOLVER_ITERATIONS,
    FAILOVER_REROUTED,
    kCounters
};

constexpr const char *kCounterNames[kCounters] = {
    "inference.serving.step_cache.hits",
    "inference.serving.step_cache.misses",
    "net.route_cache.hits",
    "net.route_cache.misses",
    "net.route_cache.derived",
    "net.flow.epochs",
    "net.flow.solver_iterations",
    "fault.failover.rerouted",
};

/** Work a pass completes, for the throughput lines of the report. */
struct Work
{
    double requests = 0.0;      //!< trace requests simulated
    double flows = 0.0;         //!< flows routed/solved/rerouted
    double macs = 0.0;          //!< emulated GEMM multiply-accumulates
    double codecElements = 0.0; //!< LogFMT + E4M3 elements
};

struct PassRecord
{
    bool traced = false;
    double seconds = 0.0; //!< pass host time, digesting excluded
    std::array<double, kLayers> layerSeconds{};
    std::array<std::uint64_t, kLayers> layerCalls{};
    /** [layer][counter] deltas; traced passes only. */
    std::array<std::array<std::uint64_t, kCounters>, kLayers> deltas{};
    /** Simulated statistics the pass produced (outputs, not timings). */
    std::map<std::string, double> counts;
    Work work;
};

/**
 * Runs passes, times layer calls and checks their outputs. A single
 * caller drives it; nothing here is shared across threads.
 */
class Runner
{
  public:
    Runner(std::map<std::string, std::uint64_t> baseline, bool perturb)
        : baseline_(std::move(baseline)), perturb_(perturb)
    {
        for (std::size_t c = 0; c < kCounters; ++c)
            counters_[c] =
                &obs::Registry::global().counter(kCounterNames[c]);
    }

    void beginPass(bool traced, bool timed)
    {
        pass_ = PassRecord{};
        pass_.traced = traced;
        timed_ = timed;
        ordinal_.fill(0);
        digestSeconds_ = 0.0;
        start_ = Clock::now();
    }

    PassRecord endPass()
    {
        pass_.seconds = since(start_) - digestSeconds_;
        if (timed_)
            ++timedPasses_;
        return pass_;
    }

    /**
     * Check one call's output. @p fill feeds the output into a
     * Digest; its time is excluded from the pass. The key is the
     * layer name plus the call's ordinal among that layer's calls in
     * the pass, so every call site of a pass is checked on its own.
     */
    template <typename Fill>
    void check(Layer layer, Fill &&fill)
    {
        const Clock::time_point t0 = Clock::now();
        Digest d;
        fill(d);
        // Test hook: corrupt the first output of the second timed
        // pass, as a wrong answer from the library would.
        if (perturb_ && !perturbed_ && timed_ && timedPasses_ == 1) {
            d.u64(1);
            perturbed_ = true;
        }
        const std::string key = std::string(kLayerNames[layer]) + "#" +
                                std::to_string(ordinal_[layer]++);
        const std::uint64_t v = d.value();
        ++attempted_;
        auto [it, fresh] = baseline_.emplace(key, v);
        if (!fresh && it->second != v)
            ++failed_;
        firstDigests_.emplace(key, v);
        digestSeconds_ += since(t0);
    }

    void count(const std::string &name, double v) { pass_.counts[name] += v; }
    Work &work() { return pass_.work; }

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    const std::map<std::string, std::uint64_t> &firstDigests() const
    {
        return firstDigests_;
    }

  private:
    friend class Span;

    void readCounters(std::array<std::uint64_t, kCounters> &out) const
    {
        for (std::size_t c = 0; c < kCounters; ++c)
            out[c] = counters_[c]->value();
    }

    std::map<std::string, std::uint64_t> baseline_;
    std::map<std::string, std::uint64_t> firstDigests_;
    std::array<const obs::Counter *, kCounters> counters_{};
    std::array<std::size_t, kLayers> ordinal_{};
    PassRecord pass_;
    Clock::time_point start_;
    double digestSeconds_ = 0.0;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t timedPasses_ = 0;
    bool timed_ = false;
    bool perturb_ = false;
    bool perturbed_ = false;
};

/** Brackets one call into a layer's public function. */
class Span
{
  public:
    Span(Runner &run, Layer layer) : run_(run), layer_(layer)
    {
        if (run_.pass_.traced)
            run_.readCounters(before_);
        t0_ = Clock::now();
    }

    ~Span()
    {
        const double dt = since(t0_);
        run_.pass_.layerSeconds[layer_] += dt;
        ++run_.pass_.layerCalls[layer_];
        if (run_.pass_.traced) {
            std::array<std::uint64_t, kCounters> after;
            run_.readCounters(after);
            for (std::size_t c = 0; c < kCounters; ++c)
                run_.pass_.deltas[layer_][c] += after[c] - before_[c];
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Runner &run_;
    Layer layer_;
    Clock::time_point t0_;
    std::array<std::uint64_t, kCounters> before_{};
};

// ---- Workloads ------------------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Generate every input from @p seed (deterministic). */
    virtual void setup(std::uint64_t seed) = 0;
    /** One pass over the workload's layer calls. */
    virtual void pass(Runner &run) = 0;
};

using namespace inference::serving;

/**
 * Digest of every exact ServingMetrics field. The P^2 estimates in
 * statePerRequest[*].p50/p95/p99 are left out on purpose: they are
 * streaming approximations that a switch to exact percentiles will
 * change, and that change must not read as a wrong answer. Their
 * count/mean/max are exact and stay in.
 */
void
digestMetrics(Digest &d, const ServingMetrics &m)
{
    for (std::size_t v :
         {m.requestsCompleted, m.requestsRejected, m.decodeSteps,
          m.decodeTokens, m.preemptions, m.requestsShed, m.requestsFailed,
          m.requestsStranded, m.retries, m.failovers, m.engineDeaths,
          m.minLiveEngines, m.kvTotalBlocks, m.kvHighWaterBlocks})
        d.u64(v);
    for (double v : {m.simSeconds, m.engineDowntimeSeconds, m.availability,
                     m.tokensPerSecond, m.sloGoodputTokensPerSecond,
                     m.totalLatencySeconds})
        d.f64(v);
    for (const PercentileSummary *p : {&m.ttft, &m.tpot, &m.goodput}) {
        d.u64(p->count);
        for (double v : {p->mean, p->p50, p->p95, p->p99, p->max})
            d.f64(v);
    }
    for (std::size_t s = 0; s < kNumRequestStates; ++s) {
        d.f64(m.stateSeconds[s]);
        d.u64(m.statePerRequest[s].count);
        d.f64(m.statePerRequest[s].mean);
        d.f64(m.statePerRequest[s].max);
    }
    d.u64((std::uint64_t)m.bottleneck);
}

void
digestTrace(Digest &d, const std::vector<Request> &trace)
{
    for (const Request &r : trace) {
        d.u64(r.id);
        d.f64(r.arrivalSeconds);
        d.u64(r.promptTokens);
        d.u64(r.genTokens);
    }
}

/**
 * Closed loop over 64 comm-bound engines x batch 64 with 4096 users
 * and short fixed-length requests, fault-free and disaggregated: the
 * per-request loop work (dispatch, commit, collect()) dominates. The
 * per-request cost is the same as in the million-request stress row,
 * but 200k requests keep the working set near 50 MB instead of 220 MB,
 * which makes the pass far less sensitive to other tenants' memory
 * traffic, and give several times more passes per run.
 */
class ServingClosed : public Workload
{
  public:
    void setup(std::uint64_t seed) override
    {
        fleet_ = ServingFleetConfig{};
        fleet_.modelConfig = model::deepSeekV3();
        fleet_.memBytesPerSec = 1e30;
        fleet_.computeFlopsPerSec = 0.0;
        fleet_.comm.bandwidthBytesPerSec = 50e9;
        fleet_.decodeEngines = 64;
        fleet_.maxBatchPerEngine = 64;
        fleet_.prefillServers = 64;
        fleet_.prefillTokensPerSecPerServer = 1e9;
        fleet_.kvHandoffSeconds = 0.0;

        traffic_ = TrafficConfig{};
        traffic_.process = ArrivalProcess::CLOSED_LOOP;
        traffic_.requests = 200000;
        traffic_.closedLoopConcurrency = 64 * 64;
        traffic_.promptTokensMin = traffic_.promptTokensMax = 128;
        traffic_.genTokensMin = traffic_.genTokensMax = 16;
        seed_ = hashCombine(seed, 1);
    }

    void pass(Runner &run) override
    {
        std::vector<Request> trace;
        {
            Span span(run, SERVING_GENERATE);
            Rng rng(seed_);
            trace = generateTrace(traffic_, rng);
        }
        run.check(SERVING_GENERATE,
                  [&](Digest &d) { digestTrace(d, trace); });

        ServingMetrics m;
        {
            Span span(run, SERVING_SIMULATE);
            m = simulateServing(fleet_, traffic_, seed_);
        }
        run.check(SERVING_SIMULATE, [&](Digest &d) { digestMetrics(d, m); });
        run.count("inference.serving.decode_steps", (double)m.decodeSteps);
        run.count("inference.serving.decode_tokens", (double)m.decodeTokens);
        run.work().requests += (double)traffic_.requests;
    }

  private:
    ServingFleetConfig fleet_;
    TrafficConfig traffic_;
    std::uint64_t seed_ = 0;
};

void
digestFlows(Digest &d, const std::vector<net::Flow> &flows)
{
    for (const net::Flow &f : flows) {
        d.u64(f.src);
        d.u64(f.dst);
        d.f64(f.bytes);
        d.u64(f.qp);
        for (std::size_t p = 0; p < f.paths.size(); ++p) {
            d.f64(f.weights[p]);
            d.u64(f.paths[p].size());
            for (net::EdgeId e : f.paths[p])
                d.u64(e);
        }
    }
}

void
digestFlowResult(Digest &d, const net::FlowSimResult &r)
{
    d.f64s(r.rates.data(), r.rates.size());
    d.f64s(r.finishTimes.data(), r.finishTimes.size());
    d.f64(r.makespan);
    d.f64(r.peakUtilization);
    d.u64(r.epochs);
    d.u64(r.solverIterations);
}

/**
 * Fig-5-shaped all-to-all at 128 GPUs on MPFT and MRFT. Per fabric:
 * a cold route cache routes and solves the first size; a second size
 * routes from the warm cache; a leaf-switch and a link failure force
 * failover and a re-solve; after repair a third all-to-all is routed
 * under ECMP from the cache.
 */
class NetFabric : public Workload
{
  public:
    static constexpr std::size_t kHosts = 16;

    void setup(std::uint64_t seed) override
    {
        // The seed picks the ECMP hash and the fault targets; all
        // leaves and NIC cables are alike, so every seed does the same
        // amount of work.
        Rng rng(hashCombine(seed, 2));
        ecmpSeed_ = rng.nextU64();
        ranks_.resize(kHosts * 8);
        for (std::size_t i = 0; i < ranks_.size(); ++i)
            ranks_[i] = i;
        // Fault targets are drawn per fabric from one stream.
        for (std::uint64_t &t : faultDraw_)
            t = rng.nextU64();
    }

    void pass(Runner &run) override
    {
        for (std::size_t f = 0; f < 2; ++f)
            fabricPass(run, f == 0 ? net::Fabric::MPFT : net::Fabric::MRFT,
                       faultDraw_[f]);
    }

  private:
    std::vector<net::Flow> flowsFor(Runner &run, const net::Cluster &c,
                                    double bytes)
    {
        std::vector<net::Flow> flows;
        {
            Span span(run, COLLECTIVE_FLOWS);
            flows = collective::allToAllFlows(c, ranks_, bytes);
        }
        return flows;
    }

    void assign(Runner &run, const net::Cluster &c,
                std::vector<net::Flow> &flows, net::RoutePolicy policy,
                Layer layer)
    {
        {
            Span span(run, layer);
            net::assignPaths(c.graph, flows, policy, ecmpSeed_);
        }
        run.check(layer, [&](Digest &d) { digestFlows(d, flows); });
        run.work().flows += (double)flows.size();
    }

    void runEngine(Runner &run, net::FlowSimEngine &engine,
                   std::size_t flows)
    {
        net::FlowSimResult r;
        {
            Span span(run, NET_FLOW_RUN);
            r = engine.run();
        }
        run.check(NET_FLOW_RUN, [&](Digest &d) { digestFlowResult(d, r); });
        run.count("net.flow.epochs", (double)r.epochs);
        run.count("net.flow.solver_iterations", (double)r.solverIterations);
        run.work().flows += (double)flows;
    }

    void inject(Runner &run, fault::FaultInjector &injector,
                const std::vector<fault::FaultEvent> &events)
    {
        Span span(run, FAULT_INJECT);
        for (const fault::FaultEvent &ev : events)
            injector.apply(ev);
    }

    void fabricPass(Runner &run, net::Fabric fabric, std::uint64_t draw)
    {
        // Every fabric starts cold, so the first assignment pays the
        // full shortest-path enumeration on every pass.
        net::RouteCache::global().clear();

        net::ClusterConfig cfg;
        cfg.fabric = fabric;
        cfg.hosts = kHosts;
        net::Cluster cluster;
        {
            Span span(run, NET_CLUSTER_BUILD);
            cluster = net::buildCluster(cfg);
        }
        run.check(NET_CLUSTER_BUILD, [&](Digest &d) {
            d.u64(cluster.graph.nodeCount());
            d.u64(cluster.graph.edgeCount());
            d.u64(cluster.graph.fingerprint());
        });

        std::vector<net::Flow> cold = flowsFor(run, cluster,
                                               kColdBytesPerRank);
        assign(run, cluster, cold, net::RoutePolicy::ADAPTIVE,
               NET_ASSIGN_COLD);
        {
            std::unique_ptr<net::FlowSimEngine> engine;
            {
                Span span(run, NET_FLOW_BUILD);
                engine = std::make_unique<net::FlowSimEngine>(cluster.graph,
                                                              cold);
            }
            runEngine(run, *engine, cold.size());
        }

        std::vector<net::Flow> warm = flowsFor(run, cluster,
                                               kWarmBytesPerRank);
        assign(run, cluster, warm, net::RoutePolicy::ADAPTIVE,
               NET_ASSIGN_WARM);
        std::unique_ptr<net::FlowSimEngine> engine;
        {
            Span span(run, NET_FLOW_BUILD);
            engine = std::make_unique<net::FlowSimEngine>(cluster.graph,
                                                          warm);
        }

        // A leaf switch and one NIC cable on another leaf fail. (At
        // 16 hosts an MPFT plane is a single leaf with no spines, so
        // NIC cables are the links both fabrics have.)
        const std::vector<net::NodeId> leaves =
            cluster.graph.nodesOfKind(net::NodeKind::LEAF);
        const net::NodeId leaf = leaves[draw % leaves.size()];
        std::vector<std::pair<net::NodeId, net::NodeId>> nics;
        for (net::EdgeId e = 0; e < cluster.graph.edgeCount(); ++e) {
            const net::Edge &edge = cluster.graph.edge(e);
            if (cluster.graph.node(edge.from).kind == net::NodeKind::GPU &&
                cluster.graph.node(edge.to).kind == net::NodeKind::LEAF &&
                edge.to != leaf)
                nics.push_back({edge.from, edge.to});
        }
        const auto [la, lb] = nics[hashU64(draw) % nics.size()];
        fault::FaultEvent leaf_down, link_down;
        leaf_down.kind = fault::FaultKind::SWITCH_DOWN;
        leaf_down.nodeA = leaf;
        link_down.kind = fault::FaultKind::LINK_DOWN;
        link_down.nodeA = la;
        link_down.nodeB = lb;
        fault::FaultEvent leaf_up = leaf_down, link_up = link_down;
        leaf_up.kind = fault::FaultKind::SWITCH_UP;
        link_up.kind = fault::FaultKind::LINK_UP;

        fault::FaultInjector injector(cluster);
        inject(run, injector, {leaf_down, link_down});
        fault::FailoverResult fo;
        {
            Span span(run, FAULT_FAILOVER);
            fo = fault::failoverReroute(cluster, warm, *engine,
                                        net::RoutePolicy::ADAPTIVE);
        }
        run.check(FAULT_FAILOVER, [&](Digest &d) {
            d.u64(fo.checked);
            d.u64(fo.rerouted);
            for (std::size_t i : fo.stalled)
                d.u64(i);
            digestFlows(d, warm);
        });
        run.count("fault.failover.rerouted", (double)fo.rerouted);
        run.work().flows += (double)fo.rerouted;
        runEngine(run, *engine, engine->activeFlows());
        inject(run, injector, {leaf_up, link_up});
        run.check(FAULT_INJECT, [&](Digest &d) {
            d.u64(cluster.graph.fingerprint());
            d.u64(cluster.edgesDown());
        });

        // Repair restores the healthy fingerprint, so ECMP routing of
        // the repaired fabric is served from the cache again.
        std::vector<net::Flow> ecmp = flowsFor(run, cluster,
                                               kWarmBytesPerRank);
        assign(run, cluster, ecmp, net::RoutePolicy::ECMP,
               NET_ASSIGN_WARM);
    }

    // Uniform sizes inside each all-to-all: staggered sizes cost one
    // solver epoch per flow.
    static constexpr double kColdBytesPerRank = 16.0 * (1 << 20);
    static constexpr double kWarmBytesPerRank = 64.0 * (1 << 20);
    std::uint64_t ecmpSeed_ = 0;
    std::vector<std::size_t> ranks_;
    std::array<std::uint64_t, 2> faultDraw_{};
};

/**
 * Fine-grained FP8 GEMM at 64x4096x64 under the three accumulators,
 * the BF16 baseline, and the LogFMT-8 / E4M3 codecs over 1M normal
 * activations: the numerics KernelTable.
 */
class NumericsFp8 : public Workload
{
  public:
    static constexpr std::size_t kM = 64, kK = 4096, kN = 64;
    static constexpr std::size_t kElements = 1u << 20;

    void setup(std::uint64_t seed) override
    {
        Rng rng(hashCombine(seed, 3));
        a_ = numerics::Matrix(kM, kK);
        a_.fillActivationLike(rng);
        b_ = numerics::Matrix(kK, kN);
        b_.fillNormal(rng, 0.0, 0.02);
        x_.resize(kElements);
        for (double &v : x_)
            v = rng.normal();
        q_.assign(kElements, 0.0);
    }

    void pass(Runner &run) override
    {
        using numerics::AccumMode;
        gemm(run, GEMM_FP22, true, AccumMode::FP22);
        gemm(run, GEMM_FP32, true, AccumMode::FP32);
        // No promotion cannot fold fine-grained scales (gemm.hh), so
        // that path runs per-tensor.
        gemm(run, GEMM_NOPROMOTE, false, AccumMode::FP22_NO_PROMOTION);
        numerics::Matrix c;
        {
            Span span(run, GEMM_BF16);
            c = numerics::gemmBf16(a_, b_);
        }
        checkMatrix(run, GEMM_BF16, c);

        std::vector<double> rt;
        {
            Span span(run, LOGFMT_ROUNDTRIP);
            rt = codec_.roundTrip(x_);
        }
        run.check(LOGFMT_ROUNDTRIP,
                  [&](Digest &d) { d.f64s(rt.data(), rt.size()); });
        {
            Span span(run, QUANTIZE_E4M3);
            numerics::quantizeSpan(numerics::kE4M3, x_, q_.data());
        }
        run.check(QUANTIZE_E4M3,
                  [&](Digest &d) { d.f64s(q_.data(), q_.size()); });
        run.work().codecElements += 2.0 * (double)kElements;
    }

  private:
    void gemm(Runner &run, Layer layer, bool fine, numerics::AccumMode mode)
    {
        numerics::GemmOptions opt;
        opt.fineGrained = fine;
        opt.accum = mode;
        numerics::Matrix c;
        {
            Span span(run, layer);
            c = numerics::gemmQuantized(a_, b_, opt);
        }
        checkMatrix(run, layer, c);
    }

    void checkMatrix(Runner &run, Layer layer, const numerics::Matrix &c)
    {
        run.check(layer, [&](Digest &d) {
            d.f64s(c.data().data(), c.data().size());
        });
        run.work().macs += (double)(kM * kK * kN);
    }

    numerics::Matrix a_, b_;
    std::vector<double> x_, q_;
    numerics::LogFmtCodec codec_{8};
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "serving_closed")
        return std::make_unique<ServingClosed>();
    if (name == "net_fabric")
        return std::make_unique<NetFabric>();
    if (name == "numerics_fp8")
        return std::make_unique<NumericsFp8>();
    return nullptr;
}

// ---- Reporting ------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::map<std::string, std::uint64_t>
loadReference(const std::string &path, const std::string &workload)
{
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string w, key, hex;
        if (!(fields >> w >> key >> hex)) {
            std::fprintf(stderr, "perfbench: bad line in %s: %s\n",
                         path.c_str(), line.c_str());
            std::exit(2);
        }
        if (w == workload)
            out[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    return out;
}

/** kPassQuantile over the passes in @p passes of f(pass). */
template <typename F>
double
passStat(const std::vector<PassRecord> &passes, F &&f)
{
    std::vector<double> v;
    for (const PassRecord &p : passes)
        v.push_back(f(p));
    return quantile(std::move(v), kPassQuantile);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
perLayerMetrics(const std::vector<PassRecord> &traced,
                const std::vector<PassRecord> &untraced)
{
    std::vector<Metric> out;
    std::array<double, kLayers> layer{};
    for (std::size_t l = 0; l < kLayers; ++l) {
        layer[l] = passStat(traced, [&](const PassRecord &p) {
            return p.layerSeconds[l];
        });
        out.push_back({std::string(kLayerNames[l]) + "_s", layer[l], "s"});
    }
    // Counter deltas and simulated counts repeat exactly on every
    // pass of a seed, so the first traced pass speaks for all.
    const PassRecord &p0 = traced.front();
    auto count = [&](const std::string &name) {
        auto it = p0.counts.find(name);
        return it == p0.counts.end() ? 0.0 : it->second;
    };
    auto delta = [&](CounterId c) {
        double sum = 0.0;
        for (std::size_t l = 0; l < kLayers; ++l)
            sum += (double)p0.deltas[l][c];
        return sum;
    };

    const double steps = count("inference.serving.decode_steps");
    out.push_back({"inference.serving.host_ns_per_step",
                   1e9 * ratio(layer[SERVING_SIMULATE], steps), "ns"});
    out.push_back({"inference.serving.host_ns_per_request",
                   1e9 * ratio(layer[SERVING_SIMULATE], p0.work.requests),
                   "ns"});
    const double step_lookups =
        delta(STEP_CACHE_HITS) + delta(STEP_CACHE_MISSES);
    out.push_back({"inference.serving.step_cache.hit_ratio",
                   ratio(delta(STEP_CACHE_HITS), step_lookups), "ratio"});
    out.push_back({"inference.serving.step_cache.lookups", step_lookups,
                   "count"});
    for (const char *name : {"decode_steps", "decode_tokens"}) {
        const std::string full = std::string("inference.serving.") + name;
        out.push_back({full, count(full), "count"});
    }

    const double route_lookups =
        delta(ROUTE_CACHE_HITS) + delta(ROUTE_CACHE_MISSES);
    out.push_back({"net.route_cache.hit_ratio",
                   ratio(delta(ROUTE_CACHE_HITS), route_lookups), "ratio"});
    out.push_back({"net.route_cache.lookups", route_lookups, "count"});
    out.push_back({"net.route_cache.derived", delta(ROUTE_CACHE_DERIVED),
                   "count"});
    out.push_back({"net.flow.epochs", count("net.flow.epochs"), "count"});
    out.push_back({"net.flow.solver_iterations",
                   count("net.flow.solver_iterations"), "count"});
    out.push_back({"fault.failover.rerouted",
                   count("fault.failover.rerouted"), "count"});

    const double traced_s =
        passStat(traced, [](const PassRecord &p) { return p.seconds; });
    const double untraced_s =
        passStat(untraced, [](const PassRecord &p) { return p.seconds; });
    out.push_back({"bench.trace_overhead", ratio(traced_s, untraced_s) - 1.0,
                   "ratio"});
    return out;
}

void
printSpanTable(const std::vector<PassRecord> &traced)
{
    const double pass_s =
        passStat(traced, [](const PassRecord &p) { return p.seconds; });
    const PassRecord &p0 = traced.front();
    std::printf("%-36s %6s %12s %12s %7s\n", "span (per pass, p10)",
                "calls", "total_s", "self_s", "share");
    for (std::size_t l = 0; l < kLayers; ++l) {
        if (p0.layerCalls[l] == 0)
            continue;
        const double t = passStat(traced, [&](const PassRecord &p) {
            return p.layerSeconds[l];
        });
        // Layer spans bracket single library calls and never nest, so
        // a layer's self time is its total time.
        std::printf("%-36s %6llu %12.6f %12.6f %6.1f%%\n", kLayerNames[l],
                    (unsigned long long)p0.layerCalls[l], t, t,
                    100.0 * ratio(t, pass_s));
        for (std::size_t c = 0; c < kCounters; ++c)
            if (p0.deltas[l][c] != 0)
                std::printf("    %-40s +%llu\n", kCounterNames[c],
                            (unsigned long long)p0.deltas[l][c]);
    }
    // The pass's self time is the benchmark's own glue between calls.
    const double self = passStat(traced, [](const PassRecord &p) {
        double s = p.seconds;
        for (double t : p.layerSeconds)
            s -= t;
        return s;
    });
    std::printf("%-36s %6d %12.6f %12.6f %6.1f%%\n", "bench.pass", 1, pass_s,
                self, 100.0 * ratio(self, pass_s));
}

void
printJson(bool correct, std::size_t attempted, std::size_t failed,
          const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serving_closed|net_fabric|numerics_fp8 "
                 "--seed N --seconds S --trace 0|1 --reference FILE "
                 "[--held-out] [--commit SHA] [--perturb]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, reference, commit = "unknown";
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    bool held_out = false, perturb = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload_name = value();
        else if (a == "--seed") {
            seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds")
            seconds = std::atof(value().c_str());
        else if (a == "--trace")
            trace = std::atoi(value().c_str());
        else if (a == "--reference")
            reference = value();
        else if (a == "--commit")
            commit = value();
        else if (a == "--held-out")
            held_out = true;
        else if (a == "--perturb")
            perturb = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (!have_seed || seconds <= 0.0 || seconds > 120.0 ||
        (trace != 0 && trace != 1) || reference.empty())
        usage("--seed, --seconds (0, 120], --trace and --reference are "
              "required");
    std::unique_ptr<Workload> workload = makeWorkload(workload_name);
    if (!workload)
        usage(("unknown workload '" + workload_name + "'").c_str());

    // The library sees only inputs generated from this seed.
    const std::uint64_t run_seed =
        held_out ? hashCombine(kHeldOutSalt, seed) | (1ULL << 63) : seed;
    std::map<std::string, std::uint64_t> baseline;
    const bool referenced = !held_out && seed == kDefaultSeed;
    if (referenced)
        baseline = loadReference(reference, workload_name);

    setParallelForWidth(kWidth);
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("perfbench workload=%s seed=%llu held_out=%d run_seed=%llu "
                "seconds=%g trace=%d\n",
                workload_name.c_str(), (unsigned long long)seed,
                (int)held_out, (unsigned long long)run_seed, seconds, trace);
    std::printf("host nproc=%ld width=%zu isa=%s dispatch_forced=%d "
                "build=%s commit=%s\n",
                nproc, kWidth, numerics::isaName(numerics::activeIsa()),
                (int)numerics::dispatchForced(), PERFBENCH_BUILD_TYPE,
                commit.c_str());
    std::printf("reference digests: %s\n",
                referenced ? (baseline.empty() ? "none stored"
                                               : "stored (default seed)")
                           : "first pass of this run");

    Runner run(std::move(baseline), perturb);
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        workload->setup(run_seed);
        run.beginPass(false, false);
        workload->pass(run);
        run.endPass();
        setup_s.push_back(since(t0));
    }

    std::vector<PassRecord> untraced, traced;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const bool tr = trace == 1 && i % 2 == 0;
        run.beginPass(tr, true);
        workload->pass(run);
        (tr ? traced : untraced).push_back(run.endPass());
        if (since(t0) >= seconds && untraced.size() >= kMinPasses &&
            (trace == 0 || traced.size() >= kMinPasses))
            break;
    }

    const std::vector<PassRecord> &all = trace ? traced : untraced;
    const double pass_s =
        passStat(untraced, [](const PassRecord &p) { return p.seconds; });
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = (double)ru.ru_maxrss / 1024.0;
    const Work &w = all.front().work;
    auto layer_sum = [&](std::initializer_list<Layer> layers) {
        return passStat(untraced, [&](const PassRecord &p) {
            double s = 0.0;
            for (Layer l : layers)
                s += p.layerSeconds[l];
            return s;
        });
    };

    std::vector<double> pass_times;
    for (const PassRecord &p : untraced)
        pass_times.push_back(p.seconds);
    std::printf("setup_s runs:");
    for (double s : setup_s)
        std::printf(" %.4f", s);
    std::printf("\npasses: %zu untraced, %zu traced; untraced pass_s "
                "min %.6f p10 %.6f median %.6f max %.6f\n"
                "untraced pass_s in order:",
                untraced.size(), traced.size(), quantile(pass_times, 0.0),
                pass_s, quantile(pass_times, 0.5), quantile(pass_times, 1.0));
    for (const PassRecord &p : untraced)
        std::printf(" %.6f", p.seconds);
    std::printf("\n");
    if (w.requests > 0.0)
        std::printf("sim_req_per_s = %.1f 1/s\n", w.requests / pass_s);
    if (w.flows > 0.0)
        std::printf("flows_per_s = %.1f 1/s\n", w.flows / pass_s);
    if (w.macs > 0.0)
        std::printf("gemm_gmac_per_s = %.4f GMAC/s\n",
                    w.macs / 1e9 /
                        layer_sum({GEMM_FP22, GEMM_FP32, GEMM_NOPROMOTE,
                                   GEMM_BF16}));
    if (w.codecElements > 0.0)
        std::printf("codec_melem_per_s = %.2f Melem/s\n",
                    w.codecElements / 1e6 /
                        layer_sum({LOGFMT_ROUNDTRIP, QUANTIZE_E4M3}));
    std::printf("peak_rss_mb = %.1f MB\n", peak_rss_mb);
    std::printf("fail_ratio = %.6f (%zu of %zu calls)\n",
                ratio((double)run.failed(), (double)run.attempted()),
                run.failed(), run.attempted());
    for (const auto &[key, v] : run.firstDigests())
        std::printf("digest %s %s %016llx\n", workload_name.c_str(),
                    key.c_str(), (unsigned long long)v);

    std::vector<Metric> metrics;
    if (trace) {
        printSpanTable(traced);
        metrics = perLayerMetrics(traced, untraced);
    } else {
        metrics = {{"pass_s", pass_s, "s"},
                   {"setup_s", quantile(setup_s, 0.5), "s"}};
    }
    for (const Metric &m : metrics)
        std::printf("%s = %.9g %s\n", m.name.c_str(), m.value, m.unit);
    std::fflush(stdout);
    printJson(run.failed() == 0, run.attempted(), run.failed(), metrics);
    return 0;
}
