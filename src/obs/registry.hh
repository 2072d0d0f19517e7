/**
 * @file
 * Central statistics registry, in the spirit of gem5's stats package.
 *
 * Instrumented code registers named stats once (hierarchical dotted
 * names: "net.flow.solver_iterations", "common.pool.tasks_run") and
 * bumps them as it runs; reporting code snapshots the whole registry
 * as aligned text or JSON. Three stat kinds:
 *
 *  - Counter:      monotonically increasing uint64 (events, items);
 *  - Gauge:        last-value / running-max double (levels, ratios);
 *  - Distribution: sampled values through a fixed-bin Histogram
 *                  (keeping its underflow/overflow accounting) plus
 *                  streaming moments.
 *
 * Conventions:
 *  - names are `<subsystem>.<component>.<metric>`, lowercase, where
 *    <subsystem> matches the src/ module (net, common, numerics, moe,
 *    pipeline, collective, ep, ...);
 *  - registering a name that already exists with a different kind (or
 *    a Distribution with different bounds) panics -- two call sites
 *    disagreeing about a stat is a bug;
 *  - re-registering with identical kind/shape returns the existing
 *    stat, so `static Counter &c = Registry::global().counter(...)`
 *    works from any number of call sites.
 *
 * Updates are thread-safe: counters/gauges are lock-free atomics,
 * distributions take a per-stat mutex. Collection is globally gated by
 * statsEnabled() (env DSV3_STATS=0 disables); hot loops should
 * accumulate locally and flush once per solve/epoch regardless.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stats.hh"

namespace dsv3::obs {

/** Global stats switch; defaults on, DSV3_STATS=0 disables. */
bool statsEnabled();
void setStatsEnabled(bool enabled);

class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        if (statsEnabled())
            v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

class Gauge
{
  public:
    void set(double v)
    {
        if (statsEnabled())
            v_.store(v, std::memory_order_relaxed);
    }

    /** Raise to @p v if larger (high-water marks). */
    void max(double v);

    /** Accumulate (e.g. busy seconds across workers). */
    void add(double v);

    double value() const { return v_.load(std::memory_order_relaxed); }

    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Sampled-value stat: a Histogram over [lo, hi) -- with its
 * underflow/overflow counts preserved -- plus Welford moments.
 */
class Distribution
{
  public:
    Distribution(double lo, double hi, std::size_t bins);

    void add(double x);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::size_t bins() const { return bins_; }

    // Snapshot accessors (each takes the stat mutex).
    std::size_t count() const;
    double mean() const;
    double min() const;
    double max() const;
    std::size_t underflow() const;
    std::size_t overflow() const;
    std::size_t binCount(std::size_t bin) const;

    void reset();

  private:
    const double lo_;
    const double hi_;
    const std::size_t bins_;
    mutable std::mutex mu_;
    Histogram hist_;
    RunningStat moments_;
};

/**
 * Name -> stat map. Registry::global() is the process-wide instance
 * all instrumentation uses; tests can create private registries.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Process-wide registry (never destroyed). */
    static Registry &global();

    /** Get-or-create; panics if @p name exists as a different kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** Panics on kind mismatch or differing (lo, hi, bins). */
    Distribution &distribution(const std::string &name, double lo,
                               double hi, std::size_t bins);

    /** Registered stat count. */
    std::size_t size() const;

    /** Zero every stat's value; registrations stay. */
    void resetAll();

    /** Aligned "name  value" lines, sorted by name. */
    std::string snapshotText() const;

    /**
     * JSON object keyed by stat name, sorted:
     *   counter      {"kind":"counter","value":N}
     *   gauge        {"kind":"gauge","value":X}
     *   distribution {"kind":"distribution","count":N,"mean":X,
     *                 "min":X,"max":X,"lo":X,"hi":X,
     *                 "underflow":N,"overflow":N,"bins":[N,...]}
     */
    std::string snapshotJson() const;

  private:
    struct Entry
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Distribution> dist;
        const char *kindName() const;
    };

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
};

} // namespace dsv3::obs
