#include "obs/trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/registry.hh"

namespace dsv3::obs {

namespace {

struct TraceEvent
{
    const char *name; //!< static string from DSV3_TRACE_SPAN
    std::uint64_t begin;
    std::uint64_t end;
    std::string args; //!< pre-rendered JSON members, may be empty
};

/**
 * One thread's event log; owned by the collector, never freed. The
 * owning thread appends under mu while export, clear and count read it
 * under mu: a pool worker's span can close after the parallelFor that
 * ran it has returned, concurrently with the caller's export. Spans
 * record nothing unless tracing is on, so untraced runs never lock.
 */
struct ThreadBuffer
{
    std::uint32_t tid;
    std::mutex mu;
    std::vector<TraceEvent> events;
};

/** Default per-thread cap so runaway sweeps cannot eat all memory. */
constexpr std::size_t kDefaultMaxEventsPerThread = 1u << 22;

struct Collector
{
    std::mutex mu;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    std::atomic<std::uint64_t> virtualClock{0};
    std::atomic<std::size_t> dropped{0};
    std::atomic<std::size_t> maxEventsPerThread{[] {
        const char *env = std::getenv("DSV3_TRACE_MAX_EVENTS");
        if (env && *env) {
            std::size_t cap = (std::size_t)std::strtoull(env, nullptr, 10);
            if (cap > 0)
                return cap;
        }
        return kDefaultMaxEventsPerThread;
    }()};
    std::atomic<bool> enabled{[] {
        const char *env = std::getenv("DSV3_TRACE");
        return env && std::string(env) != "0" &&
               std::string(env) != "";
    }()};
    std::atomic<TraceClock> clock{[] {
        const char *env = std::getenv("DSV3_TRACE_CLOCK");
        return (env && std::string(env) == "virtual")
                   ? TraceClock::VIRTUAL
                   : TraceClock::WALL;
    }()};
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

Collector &
collector()
{
    // Leaked so worker threads may trace during static destruction.
    static Collector *c = new Collector();
    return *c;
}

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *buf = [] {
        Collector &c = collector();
        std::lock_guard<std::mutex> lock(c.mu);
        auto owned = std::make_unique<ThreadBuffer>();
        owned->tid = (std::uint32_t)c.buffers.size();
        ThreadBuffer *raw = owned.get();
        c.buffers.push_back(std::move(owned));
        return raw;
    }();
    return *buf;
}

} // namespace

bool
traceEnabled()
{
    return collector().enabled.load(std::memory_order_relaxed);
}

void
setTraceEnabled(bool enabled)
{
    collector().enabled.store(enabled, std::memory_order_relaxed);
}

void
setTraceClock(TraceClock clock)
{
    collector().clock.store(clock, std::memory_order_relaxed);
}

TraceClock
traceClock()
{
    return collector().clock.load(std::memory_order_relaxed);
}

void
clearTrace()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    for (auto &buf : c.buffers) {
        std::lock_guard<std::mutex> buf_lock(buf->mu);
        buf->events.clear();
    }
    c.virtualClock.store(0, std::memory_order_relaxed);
    c.dropped.store(0, std::memory_order_relaxed);
    c.epoch = std::chrono::steady_clock::now();
}

void
setTraceMaxEventsPerThread(std::size_t cap)
{
    collector().maxEventsPerThread.store(
        cap > 0 ? cap : kDefaultMaxEventsPerThread,
        std::memory_order_relaxed);
}

std::size_t
traceMaxEventsPerThread()
{
    return collector().maxEventsPerThread.load(
        std::memory_order_relaxed);
}

std::size_t
traceDroppedCount()
{
    return collector().dropped.load(std::memory_order_relaxed);
}

std::size_t
traceEventCount()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    std::size_t n = 0;
    for (const auto &buf : c.buffers) {
        std::lock_guard<std::mutex> buf_lock(buf->mu);
        n += buf->events.size();
    }
    return n;
}

namespace detail {

std::uint64_t
traceNow()
{
    Collector &c = collector();
    if (c.clock.load(std::memory_order_relaxed) ==
        TraceClock::VIRTUAL) {
        return c.virtualClock.fetch_add(1,
                                        std::memory_order_relaxed);
    }
    return (std::uint64_t)std::chrono::duration_cast<
               std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - c.epoch)
        .count();
}

void
recordSpan(const char *name, std::uint64_t begin, std::string args)
{
    std::uint64_t end = traceNow();
    Collector &c = collector();
    ThreadBuffer &buf = threadBuffer();
    const std::size_t cap =
        c.maxEventsPerThread.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(buf.mu);
        if (buf.events.size() < cap) {
            buf.events.push_back({name, begin, end, std::move(args)});
            return;
        }
    }
    static Counter &c_dropped =
        Registry::global().counter("obs.trace.dropped");
    c_dropped.inc();
    c.dropped.fetch_add(1, std::memory_order_relaxed);
    DSV3_WARN_ONCE("trace buffer full (", cap,
                   " events on one thread); dropping spans (see "
                   "obs.trace.dropped)");
}

std::string
renderArgValue(double v)
{
    return jsonNumber(v);
}

std::string
renderArgValue(const char *s)
{
    return renderArgValue(std::string(s));
}

std::string
renderArgValue(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    out += jsonEscape(s);
    out += '"';
    return out;
}

} // namespace detail

std::string
chromeTraceJson()
{
    Collector &c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    const bool wall =
        c.clock.load(std::memory_order_relaxed) == TraceClock::WALL;

    std::string out;
    out.reserve(4096);
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const auto &buf : c.buffers) {
        std::lock_guard<std::mutex> buf_lock(buf->mu);
        for (const TraceEvent &ev : buf->events) {
            if (!first)
                out += ",";
            first = false;
            std::string name(ev.name);
            std::string cat = name.substr(0, name.find('.'));
            // WALL ticks are ns; Chrome's "ts"/"dur" are microseconds.
            // VIRTUAL ticks are already unitless ordering values.
            double scale = wall ? 1e-3 : 1.0;
            out += "{\"name\":\"" + jsonEscape(name) + "\",\"cat\":\"" +
                   jsonEscape(cat) + "\",\"ph\":\"X\",\"ts\":" +
                   jsonNumber((double)ev.begin * scale) + ",\"dur\":" +
                   jsonNumber((double)(ev.end - ev.begin) * scale) +
                   ",\"pid\":1,\"tid\":" + std::to_string(buf->tid);
            if (!ev.args.empty())
                out += ",\"args\":{" + ev.args + "}";
            out += "}";
        }
    }
    out += "]}";
    return out;
}

void
writeChromeTrace(const std::string &path)
{
    std::string json = chromeTraceJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        DSV3_FATAL("cannot open trace output '", path, "'");
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
}

} // namespace dsv3::obs
