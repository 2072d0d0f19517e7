#include "pipeline/training.hh"

#include <algorithm>

#include "collective/patterns.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "model/flops.hh"
#include "model/params.hh"
#include "moe/gate.hh"
#include "moe/placement.hh"
#include "moe/routing_stats.hh"
#include "moe/token_gen.hh"

namespace dsv3::pipeline {

namespace {

/**
 * Measure the fabric's sustained all-to-all bus bandwidth on a 4-host
 * sample cluster (the quantity DeepEP's transport actually sees).
 */
double
measureAllToAllBusBw(const TrainingSetup &setup)
{
    net::ClusterConfig cc;
    cc.fabric = setup.fabric;
    cc.hosts = 4;
    cc.gpusPerHost = setup.node.gpusPerNode;
    cc.planes = setup.node.nicsPerNode;
    cc.nic.bandwidth = setup.node.nicEffGBs * kGB;
    cc.leafSpine.bandwidth = setup.node.nicEffGBs * kGB;
    cc.nvlink.bandwidth = setup.node.gpu.nvlinkEffGBs * kGB;
    net::Cluster cluster = buildCluster(cc);

    std::vector<std::size_t> ranks(cluster.gpus.size());
    for (std::size_t i = 0; i < ranks.size(); ++i)
        ranks[i] = i;
    auto result = collective::runAllToAll(
        cluster, ranks, 8.0 * kMB * (double)ranks.size(),
        net::RoutePolicy::ADAPTIVE);
    return result.busBw;
}

/** Mean distinct nodes per token under the model's gate (E[M]). */
double
measureNodesTouched(const model::ModelConfig &cfg, std::size_t ep_nodes,
                    std::size_t gpus_per_node)
{
    DSV3_ASSERT(cfg.moe.has_value());
    const model::MoeConfig &m = *cfg.moe;
    moe::GateConfig gate;
    gate.experts = m.routedExperts;
    gate.topK = m.topK;
    gate.groups = m.groups;
    gate.topKGroups = m.topKGroups;
    moe::ExpertPlacement placement(m.routedExperts, ep_nodes,
                                   gpus_per_node);
    moe::RoutingStats stats(placement);
    moe::TokenScoreGenerator gen(m.routedExperts, 0.3, 7);
    std::vector<std::uint32_t> experts(2000 * gate.topK);
    moe::TopKGate(gate).routeStream(gen, experts);
    stats.add(experts, gate.topK);
    return stats.meanNodesTouched();
}

} // namespace

TrainingReport
simulateTraining(const TrainingSetup &setup)
{
    const model::ModelConfig &cfg = setup.modelConfig;
    DSV3_ASSERT(setup.totalGpus % (setup.ppStages * setup.epWidth) == 0,
                "GPUs must factor into PP x EP x DP");
    const std::size_t dp = setup.dataParallel();
    DSV3_ASSERT(dp >= 1);

    TrainingReport report;

    // FLOPs per token, both accounting conventions.
    const auto fl_causal = model::flopsPerToken(cfg, setup.seqLen, true);
    const auto fl_noncausal =
        model::flopsPerToken(cfg, setup.seqLen, false);

    // Chunk compute times. Tokens per microbatch per pipeline replica:
    const double tokens_per_replica =
        (double)setup.tokensPerStep() / (double)dp;
    const double tokens_per_chunk =
        tokens_per_replica / (double)setup.microbatches;
    // One stage holds layers/p of the model; epWidth GPUs share it.
    const double peak = setup.node.gpu.bf16Tflops * kTFLOP *
                        setup.kernelEfficiency;
    const double f = tokens_per_chunk * fl_causal.forward() /
                     (double)setup.ppStages / (double)setup.epWidth /
                     peak;

    // EP all-to-all per chunk: each GPU dispatches its share of chunk
    // tokens to E[M] nodes (FP8) and combines them back (BF16), for
    // each MoE layer of the stage.
    report.allToAllBusBw = measureAllToAllBusBw(setup);
    double exposed = 0.0;
    if (cfg.moe) {
        const double mean_m = measureNodesTouched(
            cfg, setup.epWidth / setup.node.gpusPerNode,
            setup.node.gpusPerNode);
        const double tokens_per_gpu_chunk =
            tokens_per_chunk / (double)setup.epWidth;
        const double moe_layers_per_stage =
            (double)cfg.moeLayers() / (double)setup.ppStages;
        const double bytes =
            tokens_per_gpu_chunk * mean_m * (double)cfg.hidden *
            (1.0 + 2.0) * moe_layers_per_stage;
        report.epCommPerChunk = bytes / report.allToAllBusBw;
        exposed = setup.commExposure * report.epCommPerChunk;
    }

    // Optimizer: ZeRO-1 style reduce-scatter(grads) +
    // all-gather(params) across DP over IB, plus the state update.
    const double params_per_gpu =
        model::countParams(cfg).total() /
        (double)(setup.ppStages * setup.epWidth);
    const double nic_bw = setup.node.nicEffGBs * kGB;
    double opt = setup.optimizerFixed;
    if (dp > 1) {
        double frac = (double)(dp - 1) / (double)dp;
        opt += 2.0 * params_per_gpu * 2.0 * frac / nic_bw;
    }
    opt += params_per_gpu * 18.0 / setup.node.gpu.hbmBytesPerSec;

    ScheduleParams sched;
    sched.kind = setup.schedule;
    sched.stages = setup.ppStages;
    sched.microbatches = setup.microbatches;
    sched.chunk.f = f;
    sched.chunk.b = f * setup.backwardFactor;
    sched.chunk.w = f * setup.weightGradFactor;
    sched.chunk.exposedComm = exposed;
    sched.optimizerTime = opt;
    report.phases = computeSchedule(sched);

    report.stepSeconds = report.phases.total();
    report.tokensPerDay = (double)setup.tokensPerStep() /
                          report.stepSeconds * kSecondsPerDay;

    const double denom = report.stepSeconds * (double)setup.totalGpus;
    report.tflopsCausal = (double)setup.tokensPerStep() *
                          fl_causal.training() / denom / kTFLOP;
    report.tflopsNonCausal = (double)setup.tokensPerStep() *
                             fl_noncausal.training() / denom / kTFLOP;
    report.mfuCausal = report.tflopsCausal / setup.node.gpu.bf16Tflops;
    report.mfuNonCausal =
        report.tflopsNonCausal / setup.node.gpu.bf16Tflops;
    return report;
}

} // namespace dsv3::pipeline
