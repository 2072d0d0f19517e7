/**
 * @file
 * Co-design explorer: the paper's central argument is that model
 * choices (TopK, node-limited routing) and hardware choices (NVLink
 * vs IB bandwidth) must be made together. This example sweeps the
 * group limit M and the scale-up/scale-out bandwidth ratio and prints
 * where the EP communication bottleneck sits for each combination.
 *
 * Usage: codesign_explorer
 */

#include <cstdio>
#include <vector>

#include "common/table.hh"
#include "common/units.hh"
#include "ep/speed_limit.hh"
#include "moe/gate.hh"
#include "moe/placement.hh"
#include "moe/routing_stats.hh"
#include "moe/token_gen.hh"

using namespace dsv3;

namespace {

/** Measured E[M] for a group limit on the V3 gate. */
double
measureMeanM(std::size_t limit)
{
    moe::GateConfig cfg;
    cfg.experts = 256;
    cfg.topK = 8;
    cfg.groups = 8;
    cfg.topKGroups = limit;
    moe::ExpertPlacement placement(256, 8, 8);
    moe::RoutingStats stats(placement);
    moe::TokenScoreGenerator gen(256, 0.3, 21);
    std::vector<std::uint32_t> experts(3000 * cfg.topK);
    moe::TopKGate(cfg).routeStream(gen, experts);
    stats.add(experts, cfg.topK);
    return stats.meanNodesTouched();
}

} // namespace

int
main()
{
    const std::size_t hidden = 7168;
    const double nvlink_bw = 160e9; // effective intra-node
    std::puts("Co-design sweep: node-limited routing vs IB traffic.");
    std::puts("Per-token dispatch must cross IB once per touched node");
    std::puts("(NVLink forwarding dedups), then fan out over NVLink.\n");

    Table t("Group limit vs per-token EP communication (H800)");
    t.setHeader({"Limit M", "E[nodes]", "IB time", "NVLink time",
                 "bottleneck"});
    for (std::size_t limit : {8, 6, 4, 3, 2, 1}) {
        double mean_m = measureMeanM(limit);
        // IB: one FP8 copy per touched node at 40 GB/s effective.
        double ib = ep::nodeLimitedIbTime(mean_m, hidden, 1.0, 40e9);
        // NVLink: fan-out to the topK expert GPUs (one copy each).
        double nvl = 8.0 * (double)hidden * 1.0 / nvlink_bw;
        t.addRow({Table::fmtInt(limit), Table::fmt(mean_m, 2),
                  formatTime(ib, 2), formatTime(nvl, 2),
                  ib > nvl ? "IB (scale-out)" : "NVLink (scale-up)"});
    }
    std::fputs(t.render().c_str(), stdout);

    // The same trade under different hardware bandwidth ratios: what
    // Sec 4.3 calls the 4:1 disparity driving the M=4 choice.
    Table h("Hardware sweep: which M saturates the fabric evenly?");
    h.setHeader({"NVLink:IB ratio", "balanced M",
                 "IB time at that M"});
    for (double ratio : {1.0, 2.0, 4.0, 8.0}) {
        // Balance: M copies over IB vs topK copies over NVLink =>
        // M* = topK * (IB bw / NVLink bw) = topK / ratio.
        double ib_bw = nvlink_bw / ratio;
        double balanced_m = 8.0 / ratio;
        if (balanced_m < 1.0)
            balanced_m = 1.0;
        double ib = ep::nodeLimitedIbTime(balanced_m, hidden, 1.0,
                                          ib_bw);
        h.addRow({Table::fmt(ratio, 0) + ":1",
                  Table::fmt(balanced_m, 1), formatTime(ib, 2)});
    }
    std::fputs(h.render().c_str(), stdout);
    std::puts("The H800's 4:1 NVLink:IB disparity balances at M = 2 "
              "per direction of\nfan-out -- the paper deploys M <= 4 "
              "as the compromise between IB dedup\nand routing "
              "freedom (Sec 4.3).");
    return 0;
}
