/**
 * @file
 * Tests for the stats registry: kinds, get-or-create semantics,
 * duplicate-name panics, snapshots and the JSON round-trip.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "obs/json.hh"
#include "obs/registry.hh"

namespace dsv3::obs {
namespace {

TEST(Counter, IncAndReset)
{
    Registry reg;
    Counter &c = reg.counter("t.counter.basic");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetMaxAdd)
{
    Registry reg;
    Gauge &g = reg.gauge("t.gauge.basic");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.max(1.0); // lower: no change
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.max(7.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    g.add(3.0);
    EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(Distribution, PreservesHistogramUnderOverflow)
{
    Registry reg;
    Distribution &d = reg.distribution("t.dist.basic", 0.0, 10.0, 10);
    d.add(-1.0); // underflow
    d.add(0.5);  // bin 0
    d.add(9.5);  // bin 9
    d.add(12.0); // overflow
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.binCount(0), 1u);
    EXPECT_EQ(d.binCount(9), 1u);
    EXPECT_DOUBLE_EQ(d.min(), -1.0);
    EXPECT_DOUBLE_EQ(d.max(), 12.0);
    EXPECT_DOUBLE_EQ(d.mean(), (-1.0 + 0.5 + 9.5 + 12.0) / 4.0);
}

TEST(Registry, GetOrCreateReturnsSameStat)
{
    Registry reg;
    Counter &a = reg.counter("t.same.counter");
    Counter &b = reg.counter("t.same.counter");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);

    Distribution &d1 = reg.distribution("t.same.dist", 0.0, 1.0, 4);
    Distribution &d2 = reg.distribution("t.same.dist", 0.0, 1.0, 4);
    EXPECT_EQ(&d1, &d2);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(RegistryDeathTest, DuplicateNameDifferentKindPanics)
{
    Registry reg;
    reg.counter("t.dup.stat");
    EXPECT_DEATH(reg.gauge("t.dup.stat"), "t.dup.stat");
    EXPECT_DEATH(reg.distribution("t.dup.stat", 0.0, 1.0, 4),
                 "t.dup.stat");
}

TEST(RegistryDeathTest, DistributionShapeMismatchPanics)
{
    Registry reg;
    reg.distribution("t.dup.dist", 0.0, 1.0, 4);
    EXPECT_DEATH(reg.distribution("t.dup.dist", 0.0, 2.0, 4),
                 "t.dup.dist");
    EXPECT_DEATH(reg.distribution("t.dup.dist", 0.0, 1.0, 8),
                 "t.dup.dist");
}

TEST(Registry, ResetAllZeroesValuesKeepsRegistrations)
{
    Registry reg;
    reg.counter("t.reset.c").inc(5);
    reg.gauge("t.reset.g").set(3.0);
    reg.distribution("t.reset.d", 0.0, 1.0, 2).add(0.5);
    reg.resetAll();
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.counter("t.reset.c").value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("t.reset.g").value(), 0.0);
    EXPECT_EQ(reg.distribution("t.reset.d", 0.0, 1.0, 2).count(), 0u);
}

TEST(Registry, SnapshotTextContainsSortedNames)
{
    Registry reg;
    reg.counter("t.b").inc(2);
    reg.counter("t.a").inc(1);
    std::string text = reg.snapshotText();
    std::size_t pa = text.find("t.a");
    std::size_t pb = text.find("t.b");
    ASSERT_NE(pa, std::string::npos);
    ASSERT_NE(pb, std::string::npos);
    EXPECT_LT(pa, pb);
}

TEST(Registry, SnapshotJsonRoundTrips)
{
    Registry reg;
    reg.counter("t.json.counter").inc(7);
    reg.gauge("t.json.gauge").set(2.5);
    Distribution &d =
        reg.distribution("t.json.dist", 0.0, 4.0, 4);
    d.add(-1.0);
    d.add(1.5);
    d.add(9.0);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(reg.snapshotJson(), &doc, &err)) << err;
    ASSERT_EQ(doc.kind(), JsonValue::Kind::OBJECT);
    EXPECT_EQ(doc.object().size(), 3u);

    const JsonValue *c = doc.find("t.json.counter");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->find("kind")->str(), "counter");
    EXPECT_DOUBLE_EQ(c->find("value")->number(), 7.0);

    const JsonValue *g = doc.find("t.json.gauge");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->find("kind")->str(), "gauge");
    EXPECT_DOUBLE_EQ(g->find("value")->number(), 2.5);

    const JsonValue *jd = doc.find("t.json.dist");
    ASSERT_NE(jd, nullptr);
    EXPECT_EQ(jd->find("kind")->str(), "distribution");
    EXPECT_DOUBLE_EQ(jd->find("count")->number(), 3.0);
    EXPECT_DOUBLE_EQ(jd->find("underflow")->number(), 1.0);
    EXPECT_DOUBLE_EQ(jd->find("overflow")->number(), 1.0);
    EXPECT_DOUBLE_EQ(jd->find("min")->number(), -1.0);
    EXPECT_DOUBLE_EQ(jd->find("max")->number(), 9.0);
    ASSERT_EQ(jd->find("bins")->array().size(), 4u);
    EXPECT_DOUBLE_EQ(jd->find("bins")->array()[1].number(), 1.0);
}

TEST(Registry, StatsDisabledDropsUpdates)
{
    Registry reg;
    Counter &c = reg.counter("t.gated.counter");
    Gauge &g = reg.gauge("t.gated.gauge");
    setStatsEnabled(false);
    c.inc(5);
    g.set(1.0);
    setStatsEnabled(true);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
}

TEST(Registry, GlobalHasInstrumentationNames)
{
    // The process-wide registry picks up names as instrumented code
    // runs; pulling one here must agree with the instrumentation site.
    Counter &c =
        Registry::global().counter("common.pool.tasks_run");
    (void)c;
    EXPECT_GE(Registry::global().size(), 1u);
}

TEST(Json, NumberFormattingRoundTrips)
{
    double vals[] = {0.0, 1.0, -1.5, 1.0 / 3.0, 1e-300, 1e300};
    for (double v : vals) {
        JsonValue parsed;
        ASSERT_TRUE(parseJson(jsonNumber(v), &parsed));
        EXPECT_EQ(parsed.number(), v) << jsonNumber(v);
    }
    // JSON has no inf/nan tokens: NaN (no value) maps to null, and
    // the directional infinities survive as the strings "inf"/"-inf"
    // rather than collapsing into a finite 1e308-style literal.
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(INFINITY), "\"inf\"");
    EXPECT_EQ(jsonNumber(-INFINITY), "\"-inf\"");
    JsonValue parsed;
    ASSERT_TRUE(parseJson(jsonNumber(std::nan("")), &parsed));
    EXPECT_EQ(parsed.kind(), JsonValue::Kind::NUL);
    ASSERT_TRUE(parseJson(jsonNumber(INFINITY), &parsed));
    EXPECT_EQ(parsed.str(), "inf");
    ASSERT_TRUE(parseJson(jsonNumber(-INFINITY), &parsed));
    EXPECT_EQ(parsed.str(), "-inf");
}

TEST(Json, EscapeControlAndQuotes)
{
    std::string escaped = jsonEscape("a\"b\\c\n\t\x01");
    JsonValue parsed;
    ASSERT_TRUE(parseJson("\"" + escaped + "\"", &parsed));
    EXPECT_EQ(parsed.str(), "a\"b\\c\n\t\x01");
}

TEST(Json, ParserRejectsGarbage)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":}", &v, &err));
    EXPECT_FALSE(parseJson("[1,]", &v, &err));
    EXPECT_FALSE(parseJson("{\"a\":1} trailing", &v, &err));
    EXPECT_FALSE(parseJson("", &v, &err));
}

} // namespace
} // namespace dsv3::obs
