/**
 * @file
 * Scoped trace spans with Chrome trace-event export.
 *
 * Instrumented code brackets a region with
 *
 *     DSV3_TRACE_SPAN("net.flow.solve");
 *     DSV3_TRACE_SPAN("numerics.gemm.quantized", "m", m, "k", k);
 *
 * which records one complete ("ph":"X") event into a per-thread buffer
 * when tracing is enabled. chromeTraceJson() merges every thread's
 * buffer into the Chrome trace-event format that loads directly in
 * Perfetto / chrome://tracing; the event's "cat" is the span name's
 * first dotted component (the src/ subsystem), so traces can be
 * filtered per module.
 *
 * The macro is always compiled in. When tracing is disabled (the
 * default) the ScopedSpan constructor is a single predicted branch: no
 * timestamp read, no allocation, no buffer registration, and the
 * optional key/value arguments are never evaluated into JSON.
 *
 * Clocks: WALL uses steady_clock nanoseconds since the first event
 * (real profiling); VIRTUAL assigns each begin/end the next value of a
 * global tick counter, making the exported trace byte-deterministic
 * for single-threaded runs -- reproducibility tests and sim-time-style
 * traces use this. Select via setTraceClock().
 *
 * Collection is off until setTraceEnabled(true); bench binaries take
 * --trace=<path>, which enables collection and writes the merged trace
 * on exit.
 */

#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

namespace dsv3::obs {

bool traceEnabled();
void setTraceEnabled(bool enabled);

enum class TraceClock
{
    WALL,
    VIRTUAL,
};

void setTraceClock(TraceClock clock);
TraceClock traceClock();

/** Drop all buffered events and restart the virtual clock at zero. */
void clearTrace();

/** Total buffered events across all threads. */
std::size_t traceEventCount();

/**
 * Per-thread buffered-event cap. Spans recorded past the cap are
 * dropped (warned once, counted in "obs.trace.dropped") so long
 * sweeps cannot grow the buffer without bound. Default 1<<22; 0
 * restores the default.
 */
void setTraceMaxEventsPerThread(std::size_t cap);
std::size_t traceMaxEventsPerThread();

/** Spans dropped at the cap since startup / the last clearTrace(). */
std::size_t traceDroppedCount();

/** Render all buffered events as Chrome trace-event JSON. */
std::string chromeTraceJson();

/** Write chromeTraceJson() to @p path (fatal on I/O error). */
void writeChromeTrace(const std::string &path);

namespace detail {

/** Append one completed event to the calling thread's buffer. */
void recordSpan(const char *name, std::uint64_t begin,
                std::string args);

/** Current timestamp in trace ticks (ns for WALL, counts for VIRTUAL). */
std::uint64_t traceNow();

std::string renderArgValue(double v);
std::string renderArgValue(const char *s);
std::string renderArgValue(const std::string &s);

inline void
renderArgsInto(std::string &)
{
}

template <typename V, typename... Rest>
void
renderArgsInto(std::string &out, const char *key, const V &value,
               Rest &&...rest)
{
    if (!out.empty())
        out += ",";
    out += "\"";
    out += key;
    out += "\":";
    if constexpr (std::is_arithmetic_v<V>)
        out += renderArgValue((double)value);
    else
        out += renderArgValue(value);
    renderArgsInto(out, std::forward<Rest>(rest)...);
}

} // namespace detail

/**
 * RAII span. Inactive (single branch, no side effects) when tracing is
 * disabled at construction time.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
    {
        if (traceEnabled())
            begin(name);
    }

    template <typename... Args>
    ScopedSpan(const char *name, Args &&...args)
    {
        if (traceEnabled()) {
            begin(name);
            detail::renderArgsInto(args_,
                                   std::forward<Args>(args)...);
        }
    }

    ~ScopedSpan()
    {
        if (name_)
            detail::recordSpan(name_, begin_, std::move(args_));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    void begin(const char *name)
    {
        name_ = name;
        begin_ = detail::traceNow();
    }

    const char *name_ = nullptr; //!< nullptr = inactive span
    std::uint64_t begin_ = 0;
    std::string args_; //!< pre-rendered JSON members ("k":v,...)
};

} // namespace dsv3::obs

#define DSV3_OBS_CONCAT2(a, b) a##b
#define DSV3_OBS_CONCAT(a, b) DSV3_OBS_CONCAT2(a, b)

/** Open a trace span covering the rest of the enclosing scope. */
#define DSV3_TRACE_SPAN(...)                                           \
    ::dsv3::obs::ScopedSpan DSV3_OBS_CONCAT(dsv3_trace_span_,          \
                                            __LINE__)(__VA_ARGS__)
