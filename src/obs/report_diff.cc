#include "obs/report_diff.hh"

#include <map>
#include <sstream>

#include "obs/json.hh"

namespace dsv3::obs {

namespace {

std::string
memberString(const JsonValue &v, const std::string &key)
{
    const JsonValue *m = v.find(key);
    if (m && m->kind() == JsonValue::Kind::STRING)
        return m->str();
    return "";
}

double
memberNumber(const JsonValue &v, const std::string &key, double dflt)
{
    const JsonValue *m = v.find(key);
    if (m && m->kind() == JsonValue::Kind::NUMBER)
        return m->number();
    return dflt;
}

/** "title" -> table object, in document order. */
std::vector<std::pair<std::string, const JsonValue *>>
tablesByTitle(const JsonValue &report)
{
    std::vector<std::pair<std::string, const JsonValue *>> out;
    const JsonValue *tables = report.find("tables");
    if (!tables || tables->kind() != JsonValue::Kind::ARRAY)
        return out;
    for (const JsonValue &t : tables->array())
        out.emplace_back(memberString(t, "title"), &t);
    return out;
}

const JsonValue *
lookupTable(
    const std::vector<std::pair<std::string, const JsonValue *>> &tables,
    const std::string &title)
{
    for (const auto &[name, table] : tables)
        if (name == title)
            return table;
    return nullptr;
}

std::vector<std::string>
stringArray(const JsonValue *v)
{
    std::vector<std::string> out;
    if (!v || v->kind() != JsonValue::Kind::ARRAY)
        return out;
    for (const JsonValue &cell : v->array()) {
        if (cell.kind() == JsonValue::Kind::STRING)
            out.push_back(cell.str());
        else
            out.push_back("<non-string>");
    }
    return out;
}

void
diffCellRow(const std::string &table, const std::string &rowLabel,
            const std::vector<std::string> &a,
            const std::vector<std::string> &b,
            const ReportDiffOptions &options, std::size_t &cellDiffs,
            ReportDiffResult &result)
{
    if (a.size() != b.size()) {
        result.differences.push_back(
            "table '" + table + "': " + rowLabel + " has " +
            std::to_string(a.size()) + " cells vs " +
            std::to_string(b.size()));
        return;
    }
    for (std::size_t c = 0; c < a.size(); ++c) {
        if (a[c] == b[c])
            continue;
        if (++cellDiffs > options.maxCellDiffsPerTable) {
            if (cellDiffs == options.maxCellDiffsPerTable + 1) {
                result.differences.push_back(
                    "table '" + table + "': further cell differences "
                    "suppressed");
            }
            continue;
        }
        result.differences.push_back(
            "table '" + table + "': " + rowLabel + " col " +
            std::to_string(c) + ": '" + a[c] + "' vs '" + b[c] + "'");
    }
}

void
diffTables(const JsonValue &a, const JsonValue &b,
           const ReportDiffOptions &options, ReportDiffResult &result)
{
    const auto tablesA = tablesByTitle(a);
    const auto tablesB = tablesByTitle(b);

    for (const auto &[title, tableA] : tablesA) {
        const JsonValue *tableB = lookupTable(tablesB, title);
        if (!tableB) {
            result.differences.push_back("table '" + title +
                                         "' missing from candidate");
            continue;
        }
        std::size_t cellDiffs = 0;
        diffCellRow(title, "header", stringArray(tableA->find("header")),
                    stringArray(tableB->find("header")), options,
                    cellDiffs, result);

        const JsonValue *rowsA = tableA->find("rows");
        const JsonValue *rowsB = tableB->find("rows");
        const std::size_t nA =
            rowsA && rowsA->kind() == JsonValue::Kind::ARRAY
                ? rowsA->array().size() : 0;
        const std::size_t nB =
            rowsB && rowsB->kind() == JsonValue::Kind::ARRAY
                ? rowsB->array().size() : 0;
        if (nA != nB) {
            result.differences.push_back(
                "table '" + title + "': " + std::to_string(nA) +
                " rows vs " + std::to_string(nB));
        }
        for (std::size_t r = 0; r < std::min(nA, nB); ++r) {
            diffCellRow(title, "row " + std::to_string(r),
                        stringArray(&rowsA->array()[r]),
                        stringArray(&rowsB->array()[r]), options,
                        cellDiffs, result);
        }
    }
    for (const auto &[title, tableB] : tablesB) {
        if (!lookupTable(tablesA, title)) {
            result.differences.push_back("table '" + title +
                                         "' only in candidate");
        }
    }
}

/** The numbers of @p series' @p key array (empty when absent). */
std::vector<double>
numberArray(const JsonValue &series, const std::string &key)
{
    std::vector<double> out;
    const JsonValue *arr = series.find(key);
    if (!arr || arr->kind() != JsonValue::Kind::ARRAY)
        return out;
    for (const JsonValue &x : arr->array())
        out.push_back(x.kind() == JsonValue::Kind::NUMBER ? x.number()
                                                          : 0.0);
    return out;
}

/** "channel" -> {"t": [...], "v": [...]} of a report's timeseries. */
std::map<std::string, const JsonValue *>
timeseriesChannels(const JsonValue &report)
{
    std::map<std::string, const JsonValue *> out;
    const JsonValue *ts = report.find("timeseries");
    if (ts && ts->kind() == JsonValue::Kind::OBJECT)
        for (const auto &[name, series] : ts->object())
            out[name] = &series;
    return out;
}

void
diffTimeseries(const JsonValue &a, const JsonValue &b,
               ReportDiffResult &result)
{
    const auto channelsA = timeseriesChannels(a);
    const auto channelsB = timeseriesChannels(b);
    for (const auto &[name, seriesA] : channelsA) {
        auto it = channelsB.find(name);
        if (it == channelsB.end()) {
            result.differences.push_back("timeseries '" + name +
                                         "' missing from candidate");
            continue;
        }
        for (const char *key : {"t", "v"}) {
            const std::vector<double> va = numberArray(*seriesA, key);
            const std::vector<double> vb = numberArray(*it->second, key);
            const std::string where =
                "timeseries '" + name + "' " + key;
            if (va.size() != vb.size()) {
                result.differences.push_back(
                    where + ": " + std::to_string(va.size()) +
                    " samples vs " + std::to_string(vb.size()));
                continue;
            }
            for (std::size_t i = 0; i < va.size(); ++i) {
                if (va[i] == vb[i])
                    continue;
                result.differences.push_back(
                    where + "[" + std::to_string(i) + "]: " +
                    jsonNumber(va[i]) + " vs " + jsonNumber(vb[i]));
                break;
            }
        }
    }
    for (const auto &[name, seriesB] : channelsB) {
        if (!channelsA.count(name)) {
            result.differences.push_back("timeseries '" + name +
                                         "' only in candidate");
        }
    }
}

/** One comparable scalar per stat kind, for the informational delta. */
double
statScalar(const JsonValue &stat)
{
    const std::string kind = memberString(stat, "kind");
    if (kind == "counter" || kind == "gauge")
        return memberNumber(stat, "value", 0.0);
    return memberNumber(stat, "count", 0.0);
}

void
diffStats(const JsonValue &a, const JsonValue &b,
          ReportDiffResult &result)
{
    const JsonValue *statsA = a.find("stats");
    const JsonValue *statsB = b.find("stats");
    if (!statsA || statsA->kind() != JsonValue::Kind::OBJECT ||
        !statsB || statsB->kind() != JsonValue::Kind::OBJECT)
        return;

    for (const auto &[name, statA] : statsA->object()) {
        const JsonValue *statB = statsB->find(name);
        if (!statB) {
            result.notes.push_back("stat '" + name +
                                   "' missing from candidate");
            continue;
        }
        const double va = statScalar(statA);
        const double vb = statScalar(*statB);
        if (va != vb) {
            result.notes.push_back(
                "stat '" + name + "': " + jsonNumber(va) + " -> " +
                jsonNumber(vb));
        }
    }
    for (const auto &[name, statB] : statsB->object()) {
        if (!statsA->find(name))
            result.notes.push_back("stat '" + name +
                                   "' only in candidate");
    }
}

void
diffBenchmarks(const JsonValue &a, const JsonValue &b,
               const ReportDiffOptions &options,
               ReportDiffResult &result)
{
    std::map<std::string, const JsonValue *> byNameA, byNameB;
    if (const JsonValue *arr = a.find("benchmarks"))
        if (arr->kind() == JsonValue::Kind::ARRAY)
            for (const JsonValue &bench : arr->array())
                byNameA[memberString(bench, "name")] = &bench;
    if (const JsonValue *arr = b.find("benchmarks"))
        if (arr->kind() == JsonValue::Kind::ARRAY)
            for (const JsonValue &bench : arr->array())
                byNameB[memberString(bench, "name")] = &bench;

    // Presence is structural for a perf-tracking diff, but when the
    // caller ignores timings entirely (CI validating table payloads
    // with the microbenchmarks filtered out) it is informational.
    auto &presence =
        options.compareTimings ? result.differences : result.notes;

    for (const auto &[name, benchA] : byNameA) {
        auto it = byNameB.find(name);
        if (it == byNameB.end()) {
            presence.push_back("benchmark '" + name +
                               "' missing from candidate");
            continue;
        }
        const double ta =
            memberNumber(*benchA, "real_seconds_per_iter", 0.0);
        const double tb =
            memberNumber(*it->second, "real_seconds_per_iter", 0.0);
        if (ta <= 0.0 || tb <= 0.0)
            continue;
        const double ratio = tb / ta;
        std::ostringstream note;
        note << "benchmark '" << name << "': " << jsonNumber(ta)
             << "s -> " << jsonNumber(tb) << "s (x" << ratio << ")";
        if (options.compareTimings &&
            ratio > options.timingThreshold) {
            result.differences.push_back(
                note.str() + " exceeds threshold x" +
                jsonNumber(options.timingThreshold));
        } else {
            result.notes.push_back(note.str());
        }
    }
    for (const auto &[name, benchB] : byNameB) {
        if (!byNameA.count(name)) {
            presence.push_back("benchmark '" + name +
                               "' only in candidate");
        }
    }
}

} // namespace

const JsonValue *
findBenchReport(const JsonValue &doc, const std::string &bench)
{
    const std::string schema = memberString(doc, "schema");
    if (schema == "dsv3-bench-report/v1") {
        if (bench.empty() || memberString(doc, "bench") == bench)
            return &doc;
        return nullptr;
    }
    if (schema == "dsv3-bench-baseline/v1") {
        const JsonValue *reports = doc.find("reports");
        if (!reports || reports->kind() != JsonValue::Kind::ARRAY)
            return nullptr;
        if (bench.empty())
            return reports->array().size() == 1
                       ? &reports->array()[0] : nullptr;
        for (const JsonValue &report : reports->array())
            if (memberString(report, "bench") == bench)
                return &report;
    }
    return nullptr;
}

ReportDiffResult
diffReports(const JsonValue &a, const JsonValue &b,
            const ReportDiffOptions &options)
{
    ReportDiffResult result;
    const std::string benchA = memberString(a, "bench");
    const std::string benchB = memberString(b, "bench");
    if (benchA != benchB) {
        result.differences.push_back("bench name: '" + benchA +
                                     "' vs '" + benchB + "'");
    }
    diffTables(a, b, options, result);
    diffTimeseries(a, b, result);
    diffStats(a, b, result);
    diffBenchmarks(a, b, options, result);
    return result;
}

} // namespace dsv3::obs
