#include "numerics/dispatch.hh"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "obs/registry.hh"

namespace dsv3::numerics {

const char *
isaName(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::SCALAR:
        return "scalar";
      case KernelIsa::AVX2:
        return "avx2";
      case KernelIsa::AVX512:
        return "avx512";
    }
    return "?";
}

namespace {

/** Whether the *CPU* can run @p isa (independent of what's compiled). */
bool
cpuSupports(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::SCALAR:
        return true;
      case KernelIsa::AVX2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
      case KernelIsa::AVX512:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512vl") &&
               __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }
    return false;
}

constexpr int kIsaCount = 4; //!< tables are indexed by KernelIsa value

struct ResolvedTables
{
    const KernelTable *table[kIsaCount] = {}; //!< null: not runnable
    KernelIsa active = KernelIsa::SCALAR;
    bool forced = false;
};

const KernelTable *
providerFor(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::SCALAR:
        return detail::scalarKernelTable();
      case KernelIsa::AVX2:
        return detail::avx2KernelTable();
      case KernelIsa::AVX512:
        return detail::avx512KernelTable();
    }
    return nullptr;
}

ResolvedTables
buildTables()
{
    ResolvedTables t;
    DSV3_ASSERT(detail::scalarKernelTable(), "scalar kernel table missing");
    unsigned mask = 0;
    for (KernelIsa isa :
         {KernelIsa::SCALAR, KernelIsa::AVX2, KernelIsa::AVX512}) {
        const int i = (int)isa;
        const KernelTable *table = providerFor(isa);
        if (!table || !cpuSupports(isa))
            continue;
        t.table[i] = table;
        mask |= 1u << i;
    }

    const char *env = std::getenv("DSV3_KERNEL_DISPATCH");
    const detail::DispatchChoice choice = detail::chooseIsa(env, mask);
    if (choice.unknown) {
        DSV3_WARN_ONCE("DSV3_KERNEL_DISPATCH=", env ? env : "",
                       " is not a known ISA (expected scalar|avx2|"
                       "avx512); using best available: ",
                       isaName(choice.isa));
    } else if (choice.unsupported) {
        DSV3_WARN_ONCE("DSV3_KERNEL_DISPATCH=", env ? env : "",
                       " is not supported on this host; using best "
                       "available: ",
                       isaName(choice.isa));
    }
    t.active = choice.isa;
    t.forced = choice.forced;

    obs::Registry::global()
        .gauge("numerics.dispatch.isa")
        .set((double)(int)choice.isa);
    obs::Registry::global()
        .gauge("numerics.dispatch.forced")
        .set(choice.forced ? 1.0 : 0.0);
    return t;
}

const ResolvedTables &
resolvedTables()
{
    static const ResolvedTables tables = buildTables();
    return tables;
}

std::atomic<const KernelTable *> g_override{nullptr};

} // namespace

unsigned
detail::availableIsaMask()
{
    const ResolvedTables &t = resolvedTables();
    unsigned mask = 0;
    for (int i = 0; i < kIsaCount; ++i)
        if (t.table[i])
            mask |= 1u << i;
    return mask;
}

detail::DispatchChoice
detail::chooseIsa(const char *env, unsigned available)
{
    available |= 1u << (int)KernelIsa::SCALAR;
    KernelIsa best = KernelIsa::SCALAR;
    for (KernelIsa isa : {KernelIsa::AVX512, KernelIsa::AVX2}) {
        if (available & (1u << (int)isa)) {
            best = isa;
            break;
        }
    }

    DispatchChoice choice;
    if (!env || !*env) {
        choice.isa = best;
        return choice;
    }

    std::string lowered(env);
    for (char &c : lowered)
        c = (char)std::tolower((unsigned char)c);
    KernelIsa requested;
    if (lowered == "scalar") {
        requested = KernelIsa::SCALAR;
    } else if (lowered == "avx2") {
        requested = KernelIsa::AVX2;
    } else if (lowered == "avx512") {
        requested = KernelIsa::AVX512;
    } else {
        choice.isa = best;
        choice.unknown = true;
        return choice;
    }

    if (available & (1u << (int)requested)) {
        choice.isa = requested;
        choice.forced = true;
    } else {
        choice.isa = best;
        choice.unsupported = true;
    }
    return choice;
}

const KernelTable &
kernels()
{
    const KernelTable *o = g_override.load(std::memory_order_acquire);
    if (o)
        return *o;
    const ResolvedTables &t = resolvedTables();
    return *t.table[(int)t.active];
}

KernelIsa
activeIsa()
{
    const KernelTable *o = g_override.load(std::memory_order_acquire);
    if (o)
        return o->isa;
    return resolvedTables().active;
}

bool
dispatchForced()
{
    return resolvedTables().forced;
}

const KernelTable *
kernelTable(KernelIsa isa)
{
    const ResolvedTables &t = resolvedTables();
    const int i = (int)isa;
    if (i < 0 || i >= kIsaCount)
        return nullptr;
    return t.table[i];
}

ScopedKernelOverride::ScopedKernelOverride(const KernelTable &table)
    : prev_(g_override.exchange(&table, std::memory_order_acq_rel))
{}

ScopedKernelOverride::~ScopedKernelOverride()
{
    g_override.store(prev_, std::memory_order_release);
}

} // namespace dsv3::numerics
