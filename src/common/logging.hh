/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (a simulator bug);
 *            aborts so a debugger/core dump can capture the state.
 * fatal()  — the user supplied an impossible configuration; exits
 *            with an error code.
 * warn()   — something is suspicious but the run can continue.
 */

#pragma once

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>

namespace dsv3 {

/** Terminate due to an internal bug. Never returns. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate due to a user/configuration error. Never returns. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Emit a non-fatal warning to stderr. */
void warnImpl(const char *file, int line, const std::string &msg);

namespace detail {

/** Fold a list of stream-able arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace dsv3

#define DSV3_PANIC(...) \
    ::dsv3::panicImpl(__FILE__, __LINE__, ::dsv3::detail::concat(__VA_ARGS__))

#define DSV3_FATAL(...) \
    ::dsv3::fatalImpl(__FILE__, __LINE__, ::dsv3::detail::concat(__VA_ARGS__))

#define DSV3_WARN(...) \
    ::dsv3::warnImpl(__FILE__, __LINE__, ::dsv3::detail::concat(__VA_ARGS__))

/**
 * Warn at most once per call site (thread-safe), so a warning inside a
 * sweep or epoch loop cannot flood stderr. The first thread to reach
 * the site wins; later hits are counted nowhere -- use a stats counter
 * alongside if the repeat count matters.
 */
#define DSV3_WARN_ONCE(...)                                                \
    do {                                                                   \
        static std::atomic<bool> dsv3_warned_once_{false};                 \
        if (!dsv3_warned_once_.exchange(true,                              \
                                        std::memory_order_relaxed)) {      \
            ::dsv3::warnImpl(__FILE__, __LINE__,                           \
                ::dsv3::detail::concat(__VA_ARGS__,                        \
                                       " (further warnings from this "     \
                                       "site suppressed)"));               \
        }                                                                  \
    } while (0)

/** Invariant check: active in all build types (cheap conditions only). */
#define DSV3_ASSERT(cond, ...)                                             \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::dsv3::panicImpl(__FILE__, __LINE__,                          \
                ::dsv3::detail::concat("assertion failed: " #cond " ",     \
                                       ##__VA_ARGS__));                    \
        }                                                                  \
    } while (0)

/**
 * Debug-build-only invariant check (compiles away under NDEBUG): for
 * conditions on hot paths whose evaluation would cost real time, or
 * redundant belt-and-suspenders proofs (e.g. "a voided engine event
 * is never dispatched") that release builds already guard cheaply.
 */
#ifdef NDEBUG
#define DSV3_DEBUG_ASSERT(cond, ...) \
    do {                             \
    } while (0)
#else
#define DSV3_DEBUG_ASSERT(cond, ...) DSV3_ASSERT(cond, ##__VA_ARGS__)
#endif
