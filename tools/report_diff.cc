/**
 * @file
 * CLI wrapper around obs::diffReports: compare a fresh bench --json
 * report against another report or a committed BENCH_*.json baseline.
 *
 *   report_diff [options] <baseline.json> <candidate.json>
 *
 *   --bench=<name>            report to select inside baseline docs
 *                             (required when a baseline holds several)
 *   --timing-threshold=<r>    fail when a benchmark gets slower than
 *                             r x baseline (default 1.25)
 *   --ignore-timings          never fail on timing ratios or on
 *                             missing/extra benchmarks (CI default
 *                             across heterogeneous runners); table
 *                             cells and timeseries still fail
 *
 * Exit status: 0 reports match, 1 differences found, 2 usage or
 * parse error. Differences go to stdout ("DIFF ..."), informational
 * notes too ("note ...").
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/report_diff.hh"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: report_diff [--bench=<name>] "
                 "[--timing-threshold=<ratio>] [--ignore-timings] "
                 "<baseline.json> <candidate.json>\n");
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

const dsv3::obs::JsonValue *
loadReport(const std::string &path, const std::string &bench,
           dsv3::obs::JsonValue *storage)
{
    std::string text;
    if (!readFile(path, &text)) {
        std::fprintf(stderr, "report_diff: cannot read '%s'\n",
                     path.c_str());
        return nullptr;
    }
    std::string error;
    if (!dsv3::obs::parseJson(text, storage, &error)) {
        std::fprintf(stderr, "report_diff: '%s': %s\n", path.c_str(),
                     error.c_str());
        return nullptr;
    }
    const dsv3::obs::JsonValue *report =
        dsv3::obs::findBenchReport(*storage, bench);
    if (!report) {
        std::fprintf(stderr,
                     "report_diff: '%s': no report%s%s found (not a "
                     "dsv3-bench-report/v1 or -baseline/v1 document?)\n",
                     path.c_str(), bench.empty() ? "" : " named ",
                     bench.c_str());
    }
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench;
    dsv3::obs::ReportDiffOptions options;
    std::string paths[2];
    int npaths = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--bench=", 0) == 0) {
            bench = arg.substr(8);
        } else if (arg.rfind("--timing-threshold=", 0) == 0) {
            options.timingThreshold =
                std::strtod(arg.c_str() + 19, nullptr);
            if (options.timingThreshold <= 0.0) {
                usage();
                return 2;
            }
        } else if (arg == "--ignore-timings") {
            options.compareTimings = false;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 2;
        } else if (npaths < 2) {
            paths[npaths++] = arg;
        } else {
            usage();
            return 2;
        }
    }
    if (npaths != 2) {
        usage();
        return 2;
    }

    dsv3::obs::JsonValue docA, docB;
    const dsv3::obs::JsonValue *a = loadReport(paths[0], bench, &docA);
    const dsv3::obs::JsonValue *b = loadReport(paths[1], bench, &docB);
    if (!a || !b)
        return 2;

    const dsv3::obs::ReportDiffResult result =
        dsv3::obs::diffReports(*a, *b, options);
    for (const std::string &note : result.notes)
        std::printf("note %s\n", note.c_str());
    for (const std::string &diff : result.differences)
        std::printf("DIFF %s\n", diff.c_str());
    if (!result.ok()) {
        std::printf("report_diff: %zu difference(s) between '%s' and "
                    "'%s'\n",
                    result.differences.size(), paths[0].c_str(),
                    paths[1].c_str());
        return 1;
    }
    std::printf("report_diff: reports match (%zu note(s))\n",
                result.notes.size());
    return 0;
}
