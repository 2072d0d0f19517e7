/**
 * @file
 * Tests for scoped trace spans and Chrome trace-event export:
 * disabled-mode cost, determinism under the virtual clock, JSON
 * validity, and category coverage across instrumented subsystems.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/thread_pool.hh"
#include "moe/gate.hh"
#include "moe/token_gen.hh"
#include "net/flow.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "pipeline/schedule.hh"

namespace dsv3::obs {
namespace {

/** Restore global trace state no matter how a test exits. */
struct TraceGuard
{
    TraceGuard()
    {
        clearTrace();
        setTraceClock(TraceClock::VIRTUAL);
    }

    ~TraceGuard()
    {
        setTraceEnabled(false);
        setTraceClock(TraceClock::WALL);
        setTraceMaxEventsPerThread(0);
        clearTrace();
    }
};

TEST(Trace, DisabledRecordsNothing)
{
    TraceGuard guard;
    setTraceEnabled(false);
    {
        DSV3_TRACE_SPAN("t.disabled.span", "k", 1.0);
        DSV3_TRACE_SPAN("t.disabled.other");
    }
    EXPECT_EQ(traceEventCount(), 0u);
}

TEST(Trace, RecordsCompleteEventsWithArgs)
{
    TraceGuard guard;
    setTraceEnabled(true);
    {
        DSV3_TRACE_SPAN("t.unit.outer", "n", 3, "label", "x");
        DSV3_TRACE_SPAN("t.unit.inner");
    }
    setTraceEnabled(false);
    EXPECT_EQ(traceEventCount(), 2u);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(chromeTraceJson(), &doc, &err)) << err;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array().size(), 2u);
    for (const JsonValue &e : events->array()) {
        EXPECT_EQ(e.find("ph")->str(), "X");
        EXPECT_EQ(e.find("cat")->str(), "t");
        EXPECT_GE(e.find("dur")->number(), 0.0);
    }
    // Inner span closes first, so it is recorded first.
    EXPECT_EQ(events->array()[0].find("name")->str(), "t.unit.inner");
    const JsonValue &outer = events->array()[1];
    EXPECT_EQ(outer.find("name")->str(), "t.unit.outer");
    EXPECT_DOUBLE_EQ(outer.find("args")->find("n")->number(), 3.0);
    EXPECT_EQ(outer.find("args")->find("label")->str(), "x");
}

TEST(Trace, ClearTraceDropsEventsAndRestartsClock)
{
    TraceGuard guard;
    setTraceEnabled(true);
    {
        DSV3_TRACE_SPAN("t.clear.span");
    }
    EXPECT_EQ(traceEventCount(), 1u);
    clearTrace();
    EXPECT_EQ(traceEventCount(), 0u);
    {
        DSV3_TRACE_SPAN("t.clear.span");
    }
    setTraceEnabled(false);
    EXPECT_EQ(traceEventCount(), 1u);
}

/** Single-threaded instrumented workload touching four subsystems. */
void
runInstrumentedWorkload()
{
    // pipeline: schedule computation.
    pipeline::ScheduleParams sp;
    sp.stages = 4;
    sp.microbatches = 8;
    sp.chunk.f = 1.0;
    sp.chunk.b = 2.0;
    sp.chunk.w = 1.0;
    pipeline::computeSchedule(sp);

    // moe: route a short token stream.
    moe::GateConfig gc;
    gc.experts = 16;
    gc.topK = 4;
    moe::TokenScoreGenerator gen(gc.experts, 0.5, 3);
    std::vector<std::uint32_t> experts(8 * gc.topK);
    moe::TopKGate(gc).routeStream(gen, experts);

    // net: two flows through a trivial two-node fabric.
    net::Graph g;
    net::NodeId a = g.addNode(net::NodeKind::GPU, "a");
    net::NodeId b = g.addNode(net::NodeKind::GPU, "b");
    g.addDuplex(a, b, 10.0, 1e-6);
    std::vector<net::Flow> flows = {{a, b, 100.0, 1, {}, {}},
                                    {b, a, 50.0, 2, {}, {}}};
    assignPaths(g, flows, net::RoutePolicy::ECMP);
    simulateFlows(g, flows);

    // common: a parallelFor span (the loop body itself is trivial).
    parallelFor(4, [](std::size_t) {});
}

TEST(Trace, CoversInstrumentedSubsystems)
{
    TraceGuard guard;
    setTraceEnabled(true);
    runInstrumentedWorkload();
    setTraceEnabled(false);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(chromeTraceJson(), &doc, &err)) << err;
    std::set<std::string> cats;
    for (const JsonValue &e : doc.find("traceEvents")->array())
        cats.insert(e.find("cat")->str());
    EXPECT_TRUE(cats.count("pipeline"));
    EXPECT_TRUE(cats.count("moe"));
    EXPECT_TRUE(cats.count("net"));
    EXPECT_TRUE(cats.count("common"));
    EXPECT_GE(cats.size(), 4u);
}

TEST(Trace, VirtualClockIsDeterministicAcrossRuns)
{
    TraceGuard guard;

    auto capture = [&] {
        clearTrace();
        setTraceEnabled(true);
        // Single-threaded portion only: thread scheduling would
        // legitimately reorder pool events between runs.
        pipeline::ScheduleParams sp;
        sp.stages = 4;
        sp.microbatches = 8;
        sp.chunk.f = 1.0;
        sp.chunk.b = 2.0;
        pipeline::computeSchedule(sp);
        {
            DSV3_TRACE_SPAN("t.det.a", "i", 1);
            DSV3_TRACE_SPAN("t.det.b");
        }
        setTraceEnabled(false);
        return chromeTraceJson();
    };

    std::string first = capture();
    std::string second = capture();
    EXPECT_EQ(first, second) << "virtual-clock trace must be "
                                "byte-identical across identical runs";
    EXPECT_GT(traceEventCount(), 0u);
}

TEST(Trace, BufferCapDropsAndCounts)
{
    TraceGuard guard;
    std::size_t dropped_before = traceDroppedCount();
    std::uint64_t counter_before =
        Registry::global().counter("obs.trace.dropped").value();
    setTraceMaxEventsPerThread(4);
    setTraceEnabled(true);
    for (int i = 0; i < 10; ++i) {
        DSV3_TRACE_SPAN("t.cap.span");
    }
    setTraceEnabled(false);
    EXPECT_EQ(traceEventCount(), 4u);
    EXPECT_EQ(traceDroppedCount(), dropped_before + 6u);
    EXPECT_EQ(Registry::global().counter("obs.trace.dropped").value(),
              counter_before + 6u);

    // The capped buffer still exports valid JSON.
    JsonValue doc;
    ASSERT_TRUE(parseJson(chromeTraceJson(), &doc));
    EXPECT_EQ(doc.find("traceEvents")->array().size(), 4u);

    // clearTrace() resets the drop count; 0 restores the default cap.
    clearTrace();
    EXPECT_EQ(traceDroppedCount(), 0u);
    setTraceMaxEventsPerThread(0);
    EXPECT_GE(traceMaxEventsPerThread(), 1u << 20);
}

TEST(Trace, WallClockTimestampsAreMonotonic)
{
    TraceGuard guard;
    setTraceClock(TraceClock::WALL);
    setTraceEnabled(true);
    {
        DSV3_TRACE_SPAN("t.wall.a");
        DSV3_TRACE_SPAN("t.wall.b");
    }
    setTraceEnabled(false);

    JsonValue doc;
    ASSERT_TRUE(parseJson(chromeTraceJson(), &doc));
    for (const JsonValue &e : doc.find("traceEvents")->array()) {
        EXPECT_GE(e.find("ts")->number(), 0.0);
        EXPECT_GE(e.find("dur")->number(), 0.0);
    }
}

} // namespace
} // namespace dsv3::obs
