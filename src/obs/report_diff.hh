/**
 * @file
 * Structural diff between two dsv3-bench-report/v1 documents.
 *
 * Compares a bench report against a committed BENCH_*.json baseline
 * (the golden ctests run it through the tools/report_diff CLI), with
 * one policy baked in:
 *
 *  - tables are the reproduction deliverable, so any cell difference
 *    is a failure (tables are matched by title, compared cell by
 *    cell);
 *  - timeseries are sampled simulator state, as deterministic as the
 *    tables, so a channel that differs in any sample or exists on one
 *    side only is a failure too, timings ignored or not;
 *  - stats are internal counters whose wall-clock-derived entries
 *    legitimately vary across runs, so stat deltas are reported as
 *    informational notes only;
 *  - microbenchmark timings vary with the host, so per-benchmark
 *    real-time ratios are failures only beyond a caller-set threshold
 *    (and can be ignored outright, which is what the golden ctests do
 *    across heterogeneous hosts). Benchmark *presence* is structural
 *    under the timing comparison; with timings ignored it is
 *    informational too, so a tables-only run can be diffed against a
 *    baseline that carries timings.
 *
 * findBenchReport() additionally understands dsv3-bench-baseline/v1
 * documents (the committed BENCH_*.json files, which wrap a list of
 * reports), so a fresh --json output can be diffed directly against a
 * committed baseline.
 */

#pragma once

#include <string>
#include <vector>

namespace dsv3::obs {

class JsonValue;

struct ReportDiffOptions
{
    /** Fail when B's real_seconds_per_iter exceeds A's by this
     *  factor (B/A > threshold). */
    double timingThreshold = 1.25;
    /** When false, timing ratios and benchmark presence are notes,
     *  never failures. */
    bool compareTimings = true;
    /** Cap on reported cell-level differences per table. */
    std::size_t maxCellDiffsPerTable = 20;
};

struct ReportDiffResult
{
    /** Human-readable failures; empty means the reports match. */
    std::vector<std::string> differences;
    /** Informational findings (stat deltas, in-threshold timings). */
    std::vector<std::string> notes;

    bool ok() const { return differences.empty(); }
};

/**
 * Resolve @p doc to the report named @p bench. A dsv3-bench-report/v1
 * document resolves to itself (when its "bench" matches, or @p bench
 * is empty); a dsv3-bench-baseline/v1 document resolves to the entry
 * of its "reports" list with that name (or its sole entry when
 * @p bench is empty). Returns nullptr when nothing matches.
 */
const JsonValue *findBenchReport(const JsonValue &doc,
                                 const std::string &bench);

/**
 * Diff two report documents (each as resolved by findBenchReport).
 * @p a is the baseline / expectation, @p b the candidate.
 */
ReportDiffResult diffReports(const JsonValue &a, const JsonValue &b,
                             const ReportDiffOptions &options = {});

} // namespace dsv3::obs
