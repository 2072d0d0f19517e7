#include "core/report_extensions.hh"

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "ep/innetwork.hh"
#include "ep/offload.hh"
#include "inference/disaggregation.hh"
#include "model/attention_ref.hh"
#include "model/config.hh"
#include "model/kv_cache.hh"
#include "model/tiny_transformer.hh"
#include "moe/bias_balancer.hh"
#include "moe/eplb.hh"
#include "moe/gate.hh"
#include "moe/placement.hh"
#include "moe/routing_stats.hh"
#include "moe/token_gen.hh"
#include "net/contention.hh"
#include "net/incast.hh"
#include "net/ordering.hh"
#include "pipeline/reliability.hh"

namespace dsv3::core {

Table
reproduceKvSurvey()
{
    Table t("Sec 2.1.2: KV-cache strategies at 128k context");
    t.setHeader({"Model / strategy", "Bytes/token", "Cache @128k",
                 "vs baseline"});
    const std::size_t ctx = 131072;

    model::ModelConfig llama = model::llama31_405B();
    double base = model::kvCacheBytes(llama, ctx);
    auto add = [&](const std::string &name, double bytes_total,
                   double per_token) {
        t.addRow({name, formatBytes(per_token), formatBytes(bytes_total),
                  Table::fmtPercent(bytes_total / base, 1)});
    };

    add("LLaMA-405B GQA (baseline, BF16)", base,
        model::kvCacheBytesPerToken(llama));
    // Shared KV: MQA variant of the same model.
    model::ModelConfig mqa = llama;
    mqa.attn.kind = model::AttentionKind::MQA;
    add("  + MQA (1 KV head)", model::kvCacheBytes(mqa, ctx),
        model::kvCacheBytesPerToken(mqa));
    // Windowed KV: 8k sliding window.
    add("  + 8k sliding window",
        model::kvCacheBytesWindowed(llama, ctx, 8192),
        model::kvCacheBytesPerToken(llama));
    // Quantized compression: 4-bit KV (0.5 B/elem modeled as 1B/2).
    add("  + INT4 KV quantization",
        model::kvCacheBytes(llama, ctx, 2) / 4.0,
        model::kvCacheBytesPerToken(llama, 2) / 4.0);

    model::ModelConfig v3 = model::deepSeekV3();
    add("DeepSeek-V3 MLA (BF16)", model::kvCacheBytes(v3, ctx),
        model::kvCacheBytesPerToken(v3));
    add("  + FP8 latent", model::kvCacheBytes(v3, ctx, 1),
        model::kvCacheBytesPerToken(v3, 1));
    return t;
}

Table
reproduceMlaEquivalence()
{
    Table t("MLA cached-latent vs explicit K/V (numerical check)");
    t.setHeader({"Shape (h/heads/rank)", "max |diff|", "latent cache",
                 "explicit cache", "ratio"});

    struct Shape
    {
        std::size_t hidden, heads, rank, rope, nope, vdim;
    };
    for (const Shape &s :
         {Shape{64, 4, 16, 8, 12, 10}, Shape{96, 8, 24, 6, 16, 12},
          Shape{128, 16, 32, 8, 16, 16}}) {
        model::MlaReference cached(s.hidden, s.heads, s.rank, s.rope,
                                   s.nope, s.vdim, 31);
        model::MlaReference explicit_ref(s.hidden, s.heads, s.rank,
                                         s.rope, s.nope, s.vdim, 31);
        Rng rng(32);
        double worst = 0.0;
        for (int tok = 0; tok < 8; ++tok) {
            std::vector<double> x(s.hidden);
            for (auto &v : x)
                v = rng.normal();
            auto a = cached.decode(x);
            auto b = explicit_ref.decodeExplicit(x, true);
            for (std::size_t i = 0; i < a.size(); ++i)
                worst = std::max(worst, std::fabs(a[i] - b[i]));
        }
        char label[64];
        std::snprintf(label, sizeof(label), "%zu/%zu/%zu", s.hidden,
                      s.heads, s.rank);
        t.addRow({label, Table::fmt(worst, 12),
                  formatBytes((double)cached.cacheBytes()),
                  formatBytes((double)cached.explicitCacheBytes()),
                  Table::fmt((double)cached.explicitCacheBytes() /
                                 (double)cached.cacheBytes(),
                             1) + "x"});
    }
    return t;
}

Table
reproduceEplb()
{
    Table t("EPLB: expert-parallel load balance (256 experts, 64 "
            "GPUs, 5 slots/GPU)");
    t.setHeader({"Routing skew", "imbalance before", "after EPLB",
                 "replicated experts"});

    for (double skew : {0.0, 0.5, 1.0, 2.0}) {
        // Measure real expert loads under the V3 gate at this skew.
        moe::GateConfig gate;
        gate.experts = 256;
        gate.topK = 8;
        gate.groups = 8;
        gate.topKGroups = 4;
        moe::ExpertPlacement placement(256, 8, 8);
        moe::RoutingStats stats(placement);
        moe::TokenScoreGenerator gen(256, skew, 61);
        std::vector<std::uint32_t> experts(4000 * gate.topK);
        moe::TopKGate(gate).routeStream(gen, experts);
        stats.add(experts, gate.topK);

        auto result = moe::balanceExperts(stats.expertLoad(), 64, 5);
        std::size_t replicated = 0;
        for (auto r : result.replicaCount)
            replicated += r > 1;
        t.addRow({Table::fmt(skew, 1),
                  Table::fmt(result.imbalanceBefore, 2) + "x",
                  Table::fmt(result.imbalanceAfter, 2) + "x",
                  Table::fmtInt(replicated)});
    }
    return t;
}

Table
reproduceOffload()
{
    Table t("Sec 4.4: EP transport designs on a decode MoE layer");
    t.setHeader({"Transport", "compute time", "IB time", "layer time",
                 "compute efficiency"});

    ep::TransportParams p;
    p.computeTime = 110e-6; // decode layer compute at full SMs
    p.meanNodesTouched = 3.5;
    p.meanGpusTouched = 7.2;
    p.ibTimePerNodeCopy = 33e-6; // one dedup copy set over IB

    for (ep::CommTransport tr :
         {ep::CommTransport::SM_FORWARDING,
          ep::CommTransport::RDMA_ONLY,
          ep::CommTransport::HARDWARE_OFFLOAD}) {
        auto r = evaluateTransport(tr, p);
        t.addRow({commTransportName(tr),
                  formatTime(r.effectiveComputeTime, 1),
                  formatTime(r.ibTime, 1),
                  formatTime(r.layerTime, 1),
                  Table::fmtPercent(r.computeEfficiency, 1)});
    }
    return t;
}

Table
reproduceContention()
{
    Table t("Sec 4.5: EP vs KV-prefetch contention on PCIe");
    t.setHeader({"Arbitration", "EP time", "KV time", "EP slowdown"});

    net::ContentionScenario s;
    s.epBytes = 40e6;  // one decode step's EP window
    s.kvBytes = 320e6; // bulk KV prefetch burst

    for (net::PcieArbitration a :
         {net::PcieArbitration::FAIR_SHARE,
          net::PcieArbitration::EP_PRIORITY,
          net::PcieArbitration::IO_DIE}) {
        auto r = evaluateContention(a, s);
        t.addRow({pcieArbitrationName(a), formatTime(r.epTime, 2),
                  formatTime(r.kvTime, 2),
                  Table::fmt(r.epSlowdown, 2) + "x"});
    }
    return t;
}

Table
reproduceReliability()
{
    Table t("Sec 6.1: training goodput vs cluster size");
    t.setHeader({"GPUs", "cluster MTBF", "ckpt interval",
                 "goodput (heuristic SDC)", "goodput (hw checksums)"});

    for (std::size_t gpus : {2048, 16384, 65536, 131072}) {
        pipeline::ReliabilityParams p;
        p.gpus = gpus;
        auto heur = evaluateReliability(p, false);
        auto hw = evaluateReliability(p, true);
        t.addRow({Table::fmtInt(gpus),
                  Table::fmt(heur.clusterMtbfHours, 1) + " h",
                  formatTime(heur.optimalCheckpointSec, 0),
                  Table::fmtPercent(heur.goodput, 1),
                  Table::fmtPercent(hw.goodput, 1)});
    }
    return t;
}


Table
reproduceInNetwork()
{
    Table t("Sec 6.5: in-network computation on EP all-to-all "
            "(per token, E[M]=3.5)");
    t.setHeader({"Capability", "dispatch B", "combine B",
                 "time/token", "vs unicast"});

    ep::InNetworkParams p;
    double base_time = 0.0;
    auto add = [&](ep::NetworkCapability cap, double compression,
                   const char *suffix) {
        ep::InNetworkParams q = p;
        q.compressionFactor = compression;
        auto r = evaluateInNetwork(cap, q);
        if (base_time == 0.0)
            base_time = r.totalTimePerToken;
        std::string name =
            std::string(networkCapabilityName(cap)) + suffix;
        t.addRow({name, formatBytes(r.dispatchBytesPerToken, 1),
                  formatBytes(r.combineBytesPerToken, 1),
                  formatTime(r.totalTimePerToken, 2),
                  Table::fmtPercent(r.totalTimePerToken / base_time,
                                    0)});
    };
    add(ep::NetworkCapability::UNICAST, 1.0, "");
    add(ep::NetworkCapability::MULTICAST_DISPATCH, 1.0, "");
    add(ep::NetworkCapability::MULTICAST_AND_REDUCE, 1.0, "");
    add(ep::NetworkCapability::MULTICAST_AND_REDUCE, 0.5,
        " + LogFMT codec");
    return t;
}

Table
reproduceOrdering()
{
    Table t("Sec 6.4: memory-semantic ordering mechanisms "
            "(4 KB messages, 3.6 us RTT)");
    t.setHeader({"Mechanism", "streams", "msg latency",
                 "wire utilization"});

    for (std::size_t streams : {1ull, 8ull, 64ull}) {
        for (net::OrderingMechanism m :
             {net::OrderingMechanism::SENDER_FENCE,
              net::OrderingMechanism::RECEIVER_BUFFER,
              net::OrderingMechanism::RAR_HARDWARE}) {
            net::OrderingParams p;
            p.concurrentStreams = streams;
            auto r = evaluateOrdering(m, p);
            t.addRow({orderingMechanismName(m),
                      Table::fmtInt(streams),
                      formatTime(r.perMessageSeconds, 2),
                      Table::fmtPercent(r.wireUtilization, 1)});
        }
    }
    return t;
}

Table
reproduceIncast()
{
    Table t("Sec 5.2.2: incast victim latency (16-to-1 burst, 64 KB "
            "victim)");
    t.setHeader({"Queue discipline", "victim time", "inflation",
                 "burst drain"});

    net::IncastScenario s;
    for (net::QueueDiscipline d :
         {net::QueueDiscipline::SHARED_QUEUE,
          net::QueueDiscipline::VOQ,
          net::QueueDiscipline::VOQ_WITH_CC}) {
        auto r = evaluateIncast(d, s);
        t.addRow({queueDisciplineName(d),
                  formatTime(r.victimSeconds, 1),
                  Table::fmt(r.victimInflation, 1) + "x",
                  formatTime(r.burstSeconds, 2)});
    }
    return t;
}

Table
reproduceDisaggregation()
{
    Table t("Sec 2.3.1: prefill/decode disaggregation");
    t.setHeader({"Deployment", "TPOT", "TTFT", "GPU demand"});

    inference::ServingWorkload w;
    auto r = evaluateDisaggregation(w);
    double pool = r.prefillGpus + r.decodeGpus;
    t.addRow({"colocated", formatTime(r.colocatedTpot, 1),
              formatTime(r.colocatedTtft, 2),
              Table::fmt(pool, 1) + " GPUs shared"});
    t.addRow({"disaggregated", formatTime(r.disaggTpot, 1),
              formatTime(r.disaggTtft, 2),
              Table::fmt(r.prefillGpus, 1) + " prefill + " +
                  Table::fmt(r.decodeGpus, 1) + " decode"});
    t.addRow({"TPOT improvement",
              Table::fmt(r.tpotImprovement, 2) + "x", "-", "-"});
    return t;
}


Table
reproducePrecisionValidation()
{
    Table t("Sec 2.4: small-model FP8 validation "
            "(2-layer MoE transformer, seq 32, 3 seeds)");
    t.setHeader({"Precision", "output rel L2 (mean)",
                 "pseudo-loss diff (mean)"});

    model::TinyTransformerConfig cfg;
    const std::uint64_t seeds[] = {7, 11, 13};
    double elem[3] = {0, 0, 0};
    double loss[3] = {0, 0, 0};
    for (std::uint64_t seed : seeds) {
        auto v = model::validatePrecision(cfg, 32, seed);
        elem[0] += v.bf16Error;
        elem[1] += v.fp8FineError;
        elem[2] += v.fp8PerTensorError;
        loss[0] += v.bf16LossDiff;
        loss[1] += v.fp8FineLossDiff;
        loss[2] += v.fp8PerTensorLossDiff;
    }
    const char *names[] = {"BF16", "FP8 fine-grained (DeepGEMM)",
                           "FP8 per-tensor, raw FP22"};
    for (int i = 0; i < 3; ++i) {
        t.addRow({names[i], Table::fmtPercent(elem[i] / 3.0, 3),
                  Table::fmtPercent(loss[i] / 3.0, 3)});
    }
    return t;
}


Table
reproduceBiasBalancing()
{
    Table t("Auxiliary-loss-free gate balancing (32 experts, top-4, "
            "60 batches of 64 tokens)");
    t.setHeader({"Routing skew", "plain gate imbalance",
                 "bias-balanced imbalance"});

    for (double skew : {0.5, 1.0, 1.5, 2.0}) {
        moe::GateConfig cfg;
        cfg.experts = 32;
        cfg.topK = 4;
        moe::TokenScoreGenerator gen_a(32, skew, 41);
        moe::TokenScoreGenerator gen_b(32, skew, 41);
        std::vector<std::uint32_t> experts(60 * 64 * cfg.topK);
        moe::TopKGate(cfg).routeStream(gen_a, experts);
        std::vector<double> plain_load(32, 0.0);
        for (std::uint32_t e : experts)
            plain_load[e] += 1.0;
        moe::BiasBalancedGate balanced(cfg, 0.02);
        for (int batch = 0; batch < 60; ++batch) {
            balanced.routeStream(
                gen_b, std::span(experts).first(64 * cfg.topK));
            balanced.updateBiases();
        }
        t.addRow({Table::fmt(skew, 1),
                  Table::fmt(maxOverMean(plain_load), 2) + "x",
                  Table::fmt(balanced.imbalance(), 2) + "x"});
    }
    return t;
}

} // namespace dsv3::core

