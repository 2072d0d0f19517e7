/**
 * @file
 * Shared scaffolding for the bench binaries.
 *
 * Every bench binary reproduces one of the paper's tables/figures:
 * its main() first prints the reproduction table(s) (the deliverable),
 * then runs the registered google-benchmark microbenchmarks that time
 * the underlying kernels.
 *
 * Observability flags (parsed before google-benchmark sees argv):
 *
 *   --json=<path>   write a dsv3-bench-report/v1 JSON document with
 *                   the printed tables plus the stats-registry
 *                   snapshot (see obs/report.hh)
 *   --trace=<path>  enable trace collection and write the run's spans
 *                   as Chrome trace-event JSON (see obs/trace.hh)
 *   --timeline=<path>  ask the bench to emit its sim-time timeline
 *                   (obs/timeline.hh) to <path>. Unlike --trace the
 *                   timestamps are simulated time, so the file is
 *                   byte-identical across reruns and thread widths.
 *                   Only benches that drive a simulator honor it
 *                   (currently bench_serving); others ignore it.
 *   --threads=<N>   cap the sweep width: parallelFor()/runSweepGrid()
 *                   use at most N threads, caller included (1 =
 *                   serial, 0 = uncapped default). Table output is
 *                   byte-identical at every width; the flag only
 *                   changes wall-clock.
 *   --repeat=<N>    after the normal (printing) table pass, rebuild
 *                   the tables N more times with output suppressed
 *                   and log the min wall seconds per pass to stderr.
 *                   This is the wall-time trend harness the CI
 *                   non-gating perf log uses: min-of-N of the full
 *                   table build (simulations included), stdout
 *                   untouched. Don't combine with --json: the obs
 *                   stats counters accumulate across passes, so a
 *                   report written after a --repeat run is not
 *                   comparable to a single-pass baseline.
 *
 * All default off; without them a bench run is byte-identical to the
 * pre-observability output.
 */

#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/table.hh"
#include "common/thread_pool.hh"
#include "numerics/dispatch.hh"
#include "obs/flight_recorder.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/trace.hh"

namespace dsv3::bench {

/** Tables printed so far this run, in print order (for --json). */
inline std::vector<Table> &
printedTables()
{
    static std::vector<Table> tables;
    return tables;
}

/** --timeline=<path> from the command line ("" when absent). */
inline std::string &
timelinePath()
{
    static std::string path;
    return path;
}

/**
 * Fleet-gauge flight recorder for this bench run. A bench that drives
 * a simulator points one (serial) run at this recorder; whatever
 * lands here is embedded as the report's "timeseries" section.
 */
inline obs::FlightRecorder &
flightRecorder()
{
    static obs::FlightRecorder recorder;
    return recorder;
}

/** True while a --repeat timing pass is rebuilding tables: printing
 *  and --json recording are suppressed so the extra passes leave
 *  stdout and the report exactly as a single pass would. */
inline bool &
tablesQuiet()
{
    static bool quiet = false;
    return quiet;
}

/** Print a reproduction table to stdout (and record it for --json). */
inline void
printTable(const Table &table)
{
    if (tablesQuiet())
        return;
    std::fputs(table.render().c_str(), stdout);
    std::fputs("\n", stdout);
    printedTables().push_back(table);
}

namespace detail {

/**
 * Pop `--<flag>=<path>` out of argv (so google-benchmark never sees
 * it); returns the path or "" when absent.
 */
inline std::string
extractPathFlag(int &argc, char **argv, const char *flag)
{
    std::string prefix = std::string("--") + flag + "=";
    std::string path;
    int w = 1;
    for (int r = 1; r < argc; ++r) {
        if (std::strncmp(argv[r], prefix.c_str(), prefix.size()) == 0)
            path = argv[r] + prefix.size();
        else
            argv[w++] = argv[r];
    }
    argc = w;
    return path;
}

inline std::string
benchName(const char *argv0)
{
    std::string name = argv0 ? argv0 : "bench";
    std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    return name;
}

/**
 * Display reporter that prints through google-benchmark's default
 * display reporter, so --benchmark_format and --benchmark_color act as
 * they do without a custom reporter, and also records every
 * per-iteration run as an obs::BenchTiming, so --json reports can
 * embed the timings (the BENCH_*.json perf baselines compare against
 * these). Construct it after benchmark::Initialize(), which parses
 * those flags.
 */
class RecordingReporter : public benchmark::BenchmarkReporter
{
  public:
    bool
    ReportContext(const Context &context) override
    {
        return display_->ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            obs::BenchTiming t;
            t.name = run.benchmark_name();
            t.iterations = (std::uint64_t)run.iterations;
            double iters =
                run.iterations > 0 ? (double)run.iterations : 1.0;
            t.realSecondsPerIter = run.real_accumulated_time / iters;
            t.cpuSecondsPerIter = run.cpu_accumulated_time / iters;
            auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                t.itemsPerSecond = it->second.value;
            timings.push_back(std::move(t));
        }
        display_->ReportRuns(runs);
    }

    void
    Finalize() override
    {
        display_->Finalize();
    }

    std::vector<obs::BenchTiming> timings;

  private:
    std::unique_ptr<benchmark::BenchmarkReporter> display_{
        benchmark::CreateDefaultDisplayReporter()};
};

} // namespace detail

/**
 * Standard bench main body: print the reproduction tables, then run
 * the microbenchmarks, then write any requested --json/--trace files.
 */
inline int
runBench(int argc, char **argv,
         const std::function<void()> &print_tables)
{
    const std::string json_path =
        detail::extractPathFlag(argc, argv, "json");
    const std::string trace_path =
        detail::extractPathFlag(argc, argv, "trace");
    timelinePath() = detail::extractPathFlag(argc, argv, "timeline");
    const std::string threads_arg =
        detail::extractPathFlag(argc, argv, "threads");
    const std::string repeat_arg =
        detail::extractPathFlag(argc, argv, "repeat");
    if (!trace_path.empty())
        obs::setTraceEnabled(true);
    if (!threads_arg.empty())
        setParallelForWidth(
            (std::size_t)std::strtoul(threads_arg.c_str(), nullptr,
                                      10));

    print_tables();

    // --repeat=N: min-of-N wall time of the full table build. The
    // timing passes run quiet (no stdout, no --json recording) and
    // clear the flight recorder first, so — simulations being
    // seed-deterministic — the recorder ends holding exactly one
    // pass's samples, the same as a plain run.
    if (!repeat_arg.empty()) {
        const std::size_t repeat = (std::size_t)std::strtoul(
            repeat_arg.c_str(), nullptr, 10);
        using clock = std::chrono::steady_clock;
        double best = 0.0;
        tablesQuiet() = true;
        for (std::size_t i = 0; i < repeat; ++i) {
            flightRecorder().clear();
            const clock::time_point t0 = clock::now();
            print_tables();
            const double wall =
                std::chrono::duration<double>(clock::now() - t0)
                    .count();
            if (i == 0 || wall < best)
                best = wall;
        }
        tablesQuiet() = false;
        if (repeat > 0) {
            std::fprintf(stderr,
                         "%s tables: min-of-%zu wall %.6f s/pass\n",
                         detail::benchName(argv[0]).c_str(), repeat,
                         best);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    detail::RecordingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!json_path.empty()) {
        // Stamp the resolved SIMD dispatch choice so archived reports
        // say which kernel tables produced these timings, and whether
        // DSV3_KERNEL_DISPATCH pinned them.
        const numerics::KernelIsa isa = numerics::activeIsa();
        obs::setReportField(
            "dispatch",
            std::string("{\"isa\":\"") + numerics::isaName(isa) +
                "\",\"forced\":" +
                (numerics::dispatchForced() ? "true" : "false") + "}");
        obs::writeBenchReport(json_path, detail::benchName(argv[0]),
                              printedTables(),
                              obs::Registry::global(),
                              reporter.timings, &flightRecorder());
        std::fprintf(stderr, "wrote bench report: %s\n",
                     json_path.c_str());
    }
    if (!trace_path.empty()) {
        obs::writeChromeTrace(trace_path);
        std::fprintf(stderr, "wrote chrome trace: %s (%zu events)\n",
                     trace_path.c_str(), obs::traceEventCount());
    }
    return 0;
}

} // namespace dsv3::bench

#define DSV3_BENCH_MAIN(print_tables)                                  \
    int main(int argc, char **argv)                                    \
    {                                                                  \
        return ::dsv3::bench::runBench(argc, argv, (print_tables));    \
    }
