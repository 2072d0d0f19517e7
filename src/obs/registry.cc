#include "obs/registry.hh"

#include <cstdlib>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace dsv3::obs {

namespace {

std::atomic<bool> &
statsFlag()
{
    static std::atomic<bool> flag{[] {
        const char *env = std::getenv("DSV3_STATS");
        return !(env && std::string(env) == "0");
    }()};
    return flag;
}

} // namespace

bool
statsEnabled()
{
    return statsFlag().load(std::memory_order_relaxed);
}

void
setStatsEnabled(bool enabled)
{
    statsFlag().store(enabled, std::memory_order_relaxed);
}

void
Gauge::max(double v)
{
    if (!statsEnabled())
        return;
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
}

void
Gauge::add(double v)
{
    if (!statsEnabled())
        return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed))
        ;
}

Distribution::Distribution(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins), hist_(lo, hi, bins)
{
}

void
Distribution::add(double x)
{
    if (!statsEnabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    hist_.add(x);
    moments_.add(x);
}

std::size_t
Distribution::count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hist_.total();
}

double
Distribution::mean() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return moments_.mean();
}

double
Distribution::min() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return moments_.min();
}

double
Distribution::max() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return moments_.max();
}

std::size_t
Distribution::underflow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hist_.underflow();
}

std::size_t
Distribution::overflow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hist_.overflow();
}

std::size_t
Distribution::binCount(std::size_t bin) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hist_.count(bin);
}

void
Distribution::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    hist_ = Histogram(lo_, hi_, bins_);
    moments_ = RunningStat();
}

const char *
Registry::Entry::kindName() const
{
    if (counter)
        return "counter";
    if (gauge)
        return "gauge";
    return "distribution";
}

Registry &
Registry::global()
{
    // Leaked on purpose: instrumentation may run from worker threads
    // during static destruction (e.g. the global ThreadPool tearing
    // down), so the registry must outlive every other static.
    static Registry *registry = new Registry();
    return *registry;
}

Counter &
Registry::counter(const std::string &name)
{
    DSV3_ASSERT(!name.empty(), "stat name must be non-empty");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (!it->second.counter) {
            DSV3_PANIC("stat '", name, "' already registered as ",
                       it->second.kindName(), ", not counter");
        }
        return *it->second.counter;
    }
    Entry entry;
    entry.counter = std::make_unique<Counter>();
    return *entries_.emplace(name, std::move(entry))
                .first->second.counter;
}

Gauge &
Registry::gauge(const std::string &name)
{
    DSV3_ASSERT(!name.empty(), "stat name must be non-empty");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (!it->second.gauge) {
            DSV3_PANIC("stat '", name, "' already registered as ",
                       it->second.kindName(), ", not gauge");
        }
        return *it->second.gauge;
    }
    Entry entry;
    entry.gauge = std::make_unique<Gauge>();
    return *entries_.emplace(name, std::move(entry))
                .first->second.gauge;
}

Distribution &
Registry::distribution(const std::string &name, double lo, double hi,
                       std::size_t bins)
{
    DSV3_ASSERT(!name.empty(), "stat name must be non-empty");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        Distribution *d = it->second.dist.get();
        if (!d) {
            DSV3_PANIC("stat '", name, "' already registered as ",
                       it->second.kindName(), ", not distribution");
        }
        if (d->lo() != lo || d->hi() != hi || d->bins() != bins) {
            DSV3_PANIC("distribution '", name,
                       "' re-registered with different shape: [",
                       d->lo(), ", ", d->hi(), ")x", d->bins(),
                       " vs [", lo, ", ", hi, ")x", bins);
        }
        return *d;
    }
    Entry entry;
    entry.dist = std::make_unique<Distribution>(lo, hi, bins);
    return *entries_.emplace(name, std::move(entry))
                .first->second.dist;
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
Registry::resetAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, entry] : entries_) {
        if (entry.counter)
            entry.counter->reset();
        else if (entry.gauge)
            entry.gauge->reset();
        else
            entry.dist->reset();
    }
}

std::string
Registry::snapshotText() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t width = 0;
    for (const auto &[name, entry] : entries_)
        width = std::max(width, name.size());

    std::ostringstream os;
    for (const auto &[name, entry] : entries_) {
        os << name << std::string(width - name.size() + 2, ' ');
        if (entry.counter) {
            os << entry.counter->value();
        } else if (entry.gauge) {
            os << entry.gauge->value();
        } else {
            const Distribution &d = *entry.dist;
            os << "count=" << d.count() << " mean=" << d.mean()
               << " min=" << d.min() << " max=" << d.max()
               << " under=" << d.underflow()
               << " over=" << d.overflow();
        }
        os << "\n";
    }
    return os.str();
}

std::string
Registry::snapshotJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, entry] : entries_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":{\"kind\":\""
           << entry.kindName() << "\"";
        if (entry.counter) {
            os << ",\"value\":" << entry.counter->value();
        } else if (entry.gauge) {
            os << ",\"value\":" << jsonNumber(entry.gauge->value());
        } else {
            const Distribution &d = *entry.dist;
            os << ",\"count\":" << d.count()
               << ",\"mean\":" << jsonNumber(d.mean())
               << ",\"min\":" << jsonNumber(d.min())
               << ",\"max\":" << jsonNumber(d.max())
               << ",\"lo\":" << jsonNumber(d.lo())
               << ",\"hi\":" << jsonNumber(d.hi())
               << ",\"underflow\":" << d.underflow()
               << ",\"overflow\":" << d.overflow() << ",\"bins\":[";
            for (std::size_t b = 0; b < d.bins(); ++b) {
                if (b)
                    os << ",";
                os << d.binCount(b);
            }
            os << "]";
        }
        os << "}";
    }
    os << "}";
    return os.str();
}

} // namespace dsv3::obs
