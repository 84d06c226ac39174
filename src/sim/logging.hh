/**
 * @file
 * Minimal gem5-style logging and error-termination helpers.
 *
 * panic() is for internal invariant violations (simulator bugs);
 * fatal() is for user configuration errors; warn()/inform() emit
 * status messages without stopping the simulation.
 *
 * PSYNC_DPRINTF is gem5's DPRINTF: tick-stamped debug printing
 * filtered by component at runtime. The active components come from
 * the PSYNC_DEBUG environment variable, a comma-separated list of
 * component names ("sync,bus", or "all"); with the variable unset
 * every site reduces to one branch on a cached mask. Builds
 * configured with -DPSYNC_DEBUG_LOGGING=OFF (and plain Release
 * builds) compile the sites out entirely.
 */

#ifndef PSYNC_SIM_LOGGING_HH
#define PSYNC_SIM_LOGGING_HH

#include <atomic>
#include <cstdarg>
#include <string>

#include "sim/types.hh"

namespace psync {
namespace sim {

/** Abort with a message: something that should never happen did. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit with a message: the user asked for something unsupported. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr and continue. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Format a printf-style string into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Debug components, one bit each. The PSYNC_DEBUG names are the
 * lowercase forms: "sync", "bus", "mem", "proc", "sched", "cache",
 * "net", plus "all".
 */
enum DebugComponent : unsigned
{
    DebugSync = 1u << 0,
    DebugBus = 1u << 1,
    DebugMem = 1u << 2,
    DebugProc = 1u << 3,
    DebugSched = 1u << 4,
    DebugCache = 1u << 5,
    DebugNet = 1u << 6,
    DebugAll = (1u << 7) - 1,
};

/**
 * Parse a PSYNC_DEBUG-style filter ("sync,bus", "all", "") into a
 * component mask. Unknown names are skipped; when `unknown` is
 * non-null the first unrecognized token is stored there.
 */
unsigned parseDebugFilter(const std::string &spec,
                          std::string *unknown = nullptr);

namespace detail {

/** debugMaskWord before the first debugMask() or setDebugMask(). */
constexpr unsigned debugMaskUnset = ~0u;

/**
 * The active mask, or debugMaskUnset. Atomic because parallel bench
 * sweeps (psync_bench --jobs) run simulations on several threads.
 */
inline std::atomic<unsigned> debugMaskWord{debugMaskUnset};

/**
 * Parse PSYNC_DEBUG into debugMaskWord, warning about unknown
 * names, and return the mask.
 */
unsigned initDebugMask();

} // namespace detail

/**
 * The active component mask. Initialized from PSYNC_DEBUG on first
 * use, overridable with setDebugMask(). Inline so a PSYNC_DPRINTF
 * site costs one relaxed load and a branch.
 */
inline unsigned
debugMask()
{
    unsigned mask =
        detail::debugMaskWord.load(std::memory_order_relaxed);
    return mask != detail::debugMaskUnset ? mask
                                          : detail::initDebugMask();
}

/**
 * Override the active mask (tests, programmatic enabling). Bits
 * outside DebugAll are dropped.
 */
void setDebugMask(unsigned mask);

/** True when component `c` is selected. */
inline bool
debugEnabled(DebugComponent c)
{
    return (debugMask() & c) != 0;
}

/** Backend of PSYNC_DPRINTF: "<tick>: <component>: <message>". */
void debugPrint(const char *component, Tick tick, const char *fmt,
                ...) __attribute__((format(printf, 3, 4)));

} // namespace sim
} // namespace psync

/**
 * Tick-stamped, component-filtered debug printing:
 *
 *     PSYNC_DPRINTF(eventq, Bus, "%s grant proc %u", name, who);
 *
 * `eq` is anything with a now() returning a Tick; `component` is
 * the suffix of a DebugComponent enumerator (Sync, Bus, Mem, Proc,
 * Sched, Cache, Net).
 */
#ifdef PSYNC_DEBUG_LOGGING
#define PSYNC_DPRINTF(eq, component, ...)                              \
    do {                                                               \
        if (::psync::sim::debugEnabled(::psync::sim::Debug##component)) \
            ::psync::sim::debugPrint(#component, (eq).now(),           \
                                     __VA_ARGS__);                     \
    } while (0)
#else
#define PSYNC_DPRINTF(eq, component, ...)                              \
    do {                                                               \
    } while (0)
#endif

#endif // PSYNC_SIM_LOGGING_HH
