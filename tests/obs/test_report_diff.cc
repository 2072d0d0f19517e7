/**
 * @file
 * Tests for the bench-report differ: identical reports, table drift,
 * timing-regression policy, and baseline-document resolution.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hh"
#include "obs/report_diff.hh"

namespace dsv3::obs {
namespace {

/** Parse or die, so fixtures stay one-liners. */
JsonValue
parse(const std::string &text)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(text, &doc, &err)) << err << "\n" << text;
    return doc;
}

const char *kReport = R"({
  "schema": "dsv3-bench-report/v1",
  "bench": "bench_x",
  "tables": [
    {"title": "T1", "header": ["a", "b"],
     "rows": [["1", "2"], ["3", "4"]]}
  ],
  "stats": {"x.count": {"kind": "counter", "value": 7}},
  "benchmarks": [
    {"name": "BM_Foo", "iterations": 10,
     "real_seconds_per_iter": 0.010,
     "cpu_seconds_per_iter": 0.010, "items_per_second": 0}
  ]
})";

TEST(ReportDiff, IdenticalReportsMatch)
{
    JsonValue a = parse(kReport);
    JsonValue b = parse(kReport);
    ReportDiffResult r = diffReports(a, b);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.differences.empty());
    // Equal timings still produce the informational note.
    ASSERT_EQ(r.notes.size(), 1u);
    EXPECT_NE(r.notes[0].find("BM_Foo"), std::string::npos);
}

TEST(ReportDiff, TableCellDriftIsAFailure)
{
    JsonValue a = parse(kReport);
    std::string drifted = kReport;
    drifted.replace(drifted.find("\"4\""), 3, "\"5\"");
    JsonValue b = parse(drifted);

    ReportDiffResult r = diffReports(a, b);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.differences.size(), 1u);
    EXPECT_NE(r.differences[0].find("table 'T1'"), std::string::npos);
    EXPECT_NE(r.differences[0].find("row 1"), std::string::npos);
    EXPECT_NE(r.differences[0].find("'4' vs '5'"), std::string::npos);
}

TEST(ReportDiff, RowCountAndMissingTableAreFailures)
{
    JsonValue a = parse(kReport);
    JsonValue b = parse(R"({
      "schema": "dsv3-bench-report/v1", "bench": "bench_x",
      "tables": [
        {"title": "T1", "header": ["a", "b"], "rows": [["1", "2"]]},
        {"title": "T2", "header": ["c"], "rows": []}
      ],
      "stats": {}
    })");

    ReportDiffResult r = diffReports(a, b);
    EXPECT_FALSE(r.ok());
    bool sawRows = false, sawExtra = false, sawBench = false;
    for (const std::string &d : r.differences) {
        sawRows |= d.find("2 rows vs 1") != std::string::npos;
        sawExtra |= d.find("'T2' only in candidate") != std::string::npos;
        sawBench |= d.find("'BM_Foo' missing") != std::string::npos;
    }
    EXPECT_TRUE(sawRows);
    EXPECT_TRUE(sawExtra);
    EXPECT_TRUE(sawBench);
}

TEST(ReportDiff, StatDriftIsANoteNotAFailure)
{
    JsonValue a = parse(kReport);
    std::string drifted = kReport;
    drifted.replace(drifted.find("\"value\": 7"), 10, "\"value\": 9");
    JsonValue b = parse(drifted);

    ReportDiffResult r = diffReports(a, b);
    EXPECT_TRUE(r.ok());
    bool sawStat = false;
    for (const std::string &n : r.notes)
        sawStat |= n.find("stat 'x.count': 7 -> 9") != std::string::npos;
    EXPECT_TRUE(sawStat);
}

TEST(ReportDiff, TimeseriesDriftIsAFailure)
{
    const std::string base = R"({
      "schema": "dsv3-bench-report/v1", "bench": "bench_x",
      "tables": [], "stats": {},
      "timeseries": {
        "x.resident": {"t": [0, 0.05, 0.1], "v": [4, 6, 5]},
        "x.queue": {"t": [0, 0.05, 0.1], "v": [0, 1, 0]}
      }
    })";
    JsonValue a = parse(base);
    EXPECT_TRUE(diffReports(a, parse(base)).ok());

    // The CI mode ignores timings, never timeseries.
    ReportDiffOptions ignore;
    ignore.compareTimings = false;

    std::string moved = base;
    moved.replace(moved.find("[4, 6, 5]"), 9, "[4, 7, 5]");
    ReportDiffResult r = diffReports(a, parse(moved), ignore);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.differences.size(), 1u);
    EXPECT_NE(r.differences[0].find("timeseries 'x.resident' v[1]"),
              std::string::npos)
        << r.differences[0];

    std::string shorter = base;
    shorter.replace(shorter.find("[0, 1, 0]"), 9, "[0, 1]");
    r = diffReports(a, parse(shorter), ignore);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.differences.size(), 1u);
    EXPECT_NE(r.differences[0].find("3 samples vs 2"), std::string::npos);

    // A channel on one side only fails in both directions, and so
    // does a report that lost its timeseries altogether.
    std::string renamed = base;
    renamed.replace(renamed.find("x.queue"), 7, "x.ready");
    r = diffReports(a, parse(renamed), ignore);
    EXPECT_FALSE(r.ok());
    bool sawMissing = false, sawExtra = false;
    for (const std::string &d : r.differences) {
        sawMissing |= d.find("'x.queue' missing from candidate") !=
                      std::string::npos;
        sawExtra |= d.find("'x.ready' only in candidate") !=
                    std::string::npos;
    }
    EXPECT_TRUE(sawMissing);
    EXPECT_TRUE(sawExtra);
    JsonValue bare = parse(R"({"schema": "dsv3-bench-report/v1",
      "bench": "bench_x", "tables": [], "stats": {}})");
    EXPECT_EQ(diffReports(a, bare, ignore).differences.size(), 2u);
    EXPECT_EQ(diffReports(bare, a, ignore).differences.size(), 2u);
}

TEST(ReportDiff, TimingRegressionPolicy)
{
    JsonValue a = parse(kReport);
    std::string slower = kReport;
    slower.replace(slower.find("0.010,"), 6, "0.030,"); // 3x real time
    JsonValue b = parse(slower);

    // Beyond the threshold: failure.
    ReportDiffResult fail = diffReports(a, b);
    EXPECT_FALSE(fail.ok());
    ASSERT_EQ(fail.differences.size(), 1u);
    EXPECT_NE(fail.differences[0].find("exceeds threshold"),
              std::string::npos);

    // A generous threshold keeps it informational.
    ReportDiffOptions loose;
    loose.timingThreshold = 4.0;
    EXPECT_TRUE(diffReports(a, b, loose).ok());

    // Ignoring timings (the CI mode) also keeps it informational.
    ReportDiffOptions ignore;
    ignore.compareTimings = false;
    ReportDiffResult ignored = diffReports(a, b, ignore);
    EXPECT_TRUE(ignored.ok());
    bool sawNote = false;
    for (const std::string &n : ignored.notes)
        sawNote |= n.find("BM_Foo") != std::string::npos;
    EXPECT_TRUE(sawNote);
}

TEST(ReportDiff, IgnoringTimingsDowngradesBenchmarkPresence)
{
    // The CI mode: the candidate ran with the microbenchmarks
    // filtered out, so the baseline's timings have no counterpart.
    JsonValue a = parse(kReport);
    JsonValue b = parse(R"({
      "schema": "dsv3-bench-report/v1", "bench": "bench_x",
      "tables": [
        {"title": "T1", "header": ["a", "b"],
         "rows": [["1", "2"], ["3", "4"]]}
      ],
      "stats": {"x.count": {"kind": "counter", "value": 7}}
    })");

    EXPECT_FALSE(diffReports(a, b).ok());

    ReportDiffOptions ignore;
    ignore.compareTimings = false;
    ReportDiffResult r = diffReports(a, b, ignore);
    EXPECT_TRUE(r.ok());
    bool sawNote = false;
    for (const std::string &n : r.notes)
        sawNote |= n.find("'BM_Foo' missing") != std::string::npos;
    EXPECT_TRUE(sawNote);
}

TEST(ReportDiff, CellDiffCapSuppressesFlood)
{
    JsonValue a = parse(R"({
      "schema": "dsv3-bench-report/v1", "bench": "x",
      "tables": [{"title": "T", "header": [],
                  "rows": [["a","a","a","a"]]}], "stats": {}
    })");
    JsonValue b = parse(R"({
      "schema": "dsv3-bench-report/v1", "bench": "x",
      "tables": [{"title": "T", "header": [],
                  "rows": [["b","b","b","b"]]}], "stats": {}
    })");
    ReportDiffOptions opts;
    opts.maxCellDiffsPerTable = 2;
    ReportDiffResult r = diffReports(a, b, opts);
    // 2 reported diffs + 1 suppression marker, not 4 diffs.
    ASSERT_EQ(r.differences.size(), 3u);
    EXPECT_NE(r.differences[2].find("suppressed"), std::string::npos);
}

TEST(ReportDiff, FindBenchReportResolvesBothSchemas)
{
    JsonValue report = parse(kReport);
    EXPECT_EQ(findBenchReport(report, ""), &report);
    EXPECT_EQ(findBenchReport(report, "bench_x"), &report);
    EXPECT_EQ(findBenchReport(report, "bench_y"), nullptr);

    JsonValue baseline = parse(R"({
      "schema": "dsv3-bench-baseline/v1",
      "reports": [
        {"schema": "dsv3-bench-report/v1", "bench": "bench_x",
         "tables": [], "stats": {}},
        {"schema": "dsv3-bench-report/v1", "bench": "bench_y",
         "tables": [], "stats": {}}
      ]
    })");
    const JsonValue *x = findBenchReport(baseline, "bench_x");
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->find("bench")->str(), "bench_x");
    EXPECT_NE(findBenchReport(baseline, "bench_y"), nullptr);
    EXPECT_EQ(findBenchReport(baseline, "bench_z"), nullptr);
    // Ambiguous without a bench name (two reports present).
    EXPECT_EQ(findBenchReport(baseline, ""), nullptr);

    JsonValue single = parse(R"({
      "schema": "dsv3-bench-baseline/v1",
      "reports": [{"schema": "dsv3-bench-report/v1",
                   "bench": "bench_x", "tables": [], "stats": {}}]
    })");
    EXPECT_NE(findBenchReport(single, ""), nullptr);
    EXPECT_EQ(findBenchReport(parse("{\"schema\":\"other\"}"), ""),
              nullptr);
}

TEST(ReportDiff, BenchNameMismatchIsAFailure)
{
    JsonValue a = parse(kReport);
    std::string renamed = kReport;
    renamed.replace(renamed.find("bench_x"), 7, "bench_z");
    JsonValue b = parse(renamed);
    ReportDiffResult r = diffReports(a, b);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.differences[0].find("bench name"), std::string::npos);
}

} // namespace
} // namespace dsv3::obs
