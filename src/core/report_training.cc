/**
 * @file
 * Training and EP reproductions: Table 4, Figure 7, Sec 4.3.
 */

#include "core/report.hh"

#include <vector>

#include "common/units.hh"
#include "ep/deepep.hh"
#include "ep/speed_limit.hh"
#include "model/config.hh"
#include "model/hardware.hh"
#include "moe/gate.hh"
#include "moe/placement.hh"
#include "moe/routing_stats.hh"
#include "moe/token_gen.hh"
#include "net/cluster.hh"
#include "pipeline/training.hh"

namespace dsv3::core {

Table
reproduceTable4()
{
    Table t("Table 4: DeepSeek-V3 training step, MPFT vs MRFT");
    t.setHeader({"Metric", "MPFT", "MRFT"});

    pipeline::TrainingReport reports[2];
    int idx = 0;
    for (net::Fabric fabric : {net::Fabric::MPFT, net::Fabric::MRFT}) {
        pipeline::TrainingSetup setup;
        setup.modelConfig = model::deepSeekV3();
        setup.node = model::h800Node();
        setup.fabric = fabric;
        reports[idx++] = pipeline::simulateTraining(setup);
    }

    auto row = [&](const char *label, auto getter, int precision) {
        t.addRow({label, Table::fmt(getter(reports[0]), precision),
                  Table::fmt(getter(reports[1]), precision)});
    };
    using R = const pipeline::TrainingReport &;
    row("tokens/day (B)",
        [](R r) { return r.tokensPerDay / 1e9; }, 2);
    row("time/step (s)", [](R r) { return r.stepSeconds; }, 3);
    row("1F (s)", [](R r) { return r.phases.warmupF; }, 2);
    row("bubble (s)", [](R r) { return r.phases.bubble; }, 2);
    row("1B (s)", [](R r) { return r.phases.drainB; }, 2);
    row("1W (s)", [](R r) { return r.phases.tailW; }, 2);
    row("1F1B (s)", [](R r) { return r.phases.steady; }, 2);
    row("opt (s)", [](R r) { return r.phases.optimizer; }, 2);
    row("TFLOPS (non-causal)",
        [](R r) { return r.tflopsNonCausal; }, 0);
    row("TFLOPS (causal)", [](R r) { return r.tflopsCausal; }, 0);
    t.addRow({"MFU (non-causal)",
              Table::fmtPercent(reports[0].mfuNonCausal),
              Table::fmtPercent(reports[1].mfuNonCausal)});
    t.addRow({"MFU (causal)",
              Table::fmtPercent(reports[0].mfuCausal),
              Table::fmtPercent(reports[1].mfuCausal)});
    return t;
}

Table
reproduceFigure7()
{
    Table t("Figure 7: DeepEP dispatch/combine on MPFT "
            "(4096 tokens/GPU)");
    t.setHeader({"GPUs", "Dispatch GB/s/GPU", "Combine GB/s/GPU",
                 "E[M] nodes"});
    ep::EpWorkload w;
    w.tokensPerGpu = 4096;
    w.hidden = 7168;
    w.gate.experts = 256;
    w.gate.topK = 8;
    w.gate.groups = 8;
    w.gate.topKGroups = 4;
    // Rank s draws from seed w.seed + s at every size, so the 128
    // ranks' table serves all four clusters.
    const std::vector<std::uint32_t> routed = ep::routeTokens(w, 128);
    for (std::size_t gpus : {16, 32, 64, 128}) {
        net::ClusterConfig cc;
        cc.fabric = net::Fabric::MPFT;
        cc.hosts = gpus / 8;
        net::Cluster cluster = buildCluster(cc);
        ep::EpResult r = simulateDeepEp(cluster, w, routed);
        t.addRow({Table::fmtInt(gpus),
                  Table::fmt(r.dispatchGBsPerGpu / kGB, 1),
                  Table::fmt(r.combineGBsPerGpu / kGB, 1),
                  Table::fmt(r.meanNodesTouched, 2)});
    }
    return t;
}

Table
reproduceNodeLimited()
{
    Table t("Sec 4.3: node-limited routing (8 nodes, 256 experts, "
            "top-8)");
    t.setHeader({"Group limit M", "E[nodes touched]", "max M",
                 "IB time/token", "vs unrestricted"});

    const double ib_bw = 50e9;
    const std::size_t hidden = 7168;
    double baseline_time = 0.0;
    for (std::size_t limit : {8, 6, 4, 3, 2, 1}) {
        moe::GateConfig gate;
        gate.experts = 256;
        gate.topK = 8;
        gate.groups = 8;
        gate.topKGroups = limit;
        moe::ExpertPlacement placement(256, 8, 8);
        moe::RoutingStats stats(placement);
        moe::TokenScoreGenerator gen(256, 0.3, 17);
        std::vector<std::uint32_t> experts(4000 * gate.topK);
        moe::TopKGate(gate).routeStream(gen, experts);
        stats.add(experts, gate.topK);

        double time = ep::nodeLimitedIbTime(stats.meanNodesTouched(),
                                            hidden, 1.0, ib_bw);
        if (limit == 8)
            baseline_time = time;
        t.addRow({Table::fmtInt(limit),
                  Table::fmt(stats.meanNodesTouched(), 2),
                  Table::fmtInt(stats.maxNodesTouched()),
                  formatTime(time, 2),
                  Table::fmtPercent(time / baseline_time, 0)});
    }
    return t;
}

} // namespace dsv3::core
