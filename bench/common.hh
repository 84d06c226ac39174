/**
 * @file
 * Shared helpers for the bench drivers: standard machine
 * configurations and fixed-width table printing. The experiment
 * tables themselves live in bench/tables.hh.
 */

#ifndef PSYNC_BENCH_COMMON_HH
#define PSYNC_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/runtime.hh"

namespace psync {
namespace bench {

/** Default register-fabric machine (section 6 hardware). */
inline core::RunConfig
registerMachine(unsigned procs = 8, unsigned num_pcs = 16)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = procs;
    cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1u << 22;
    cfg.scheme.numPcs = num_pcs;
    cfg.scheme.numScs = 1u << 20;
    cfg.tickLimit = 2000000000ull;
    return cfg;
}

/** Default memory-fabric machine (keys live with the data). */
inline core::RunConfig
memoryMachine(unsigned procs = 8)
{
    core::RunConfig cfg = registerMachine(procs);
    cfg.machine.fabric = sim::FabricKind::memory;
    return cfg;
}

/**
 * Combining-fabric machine: sync variables in interleaved modules
 * behind a combining omega network (Ultracomputer/RP3 style). Same
 * variable capacity model as the memory machine; the network in
 * front is what changes.
 */
inline core::RunConfig
combiningMachine(unsigned procs = 8, unsigned num_pcs = 16)
{
    core::RunConfig cfg = registerMachine(procs, num_pcs);
    cfg.machine.fabric = sim::FabricKind::combining;
    return cfg;
}

/**
 * Two-level hierarchical cluster machine: per-cluster register
 * images and local buses joined by one global stage.
 */
inline core::RunConfig
hierarchicalMachine(unsigned procs = 8, unsigned clusters = 4,
                    unsigned num_pcs = 16)
{
    core::RunConfig cfg = registerMachine(procs, num_pcs);
    cfg.machine.fabric = sim::FabricKind::hierarchical;
    cfg.machine.numClusters = clusters;
    return cfg;
}

/** Pick the natural fabric for a scheme. */
inline core::RunConfig
machineFor(sync::SchemeKind kind, unsigned procs = 8,
           unsigned num_pcs = 16)
{
    if (kind == sync::SchemeKind::referenceBased ||
        kind == sync::SchemeKind::instanceBased) {
        return memoryMachine(procs);
    }
    return registerMachine(procs, num_pcs);
}

/**
 * Fixed-width table printing shared by the bench drivers. Columns
 * are declared once (name, width, alignment); every row then lines
 * up under the header without each bench repeating printf format
 * strings. Cells are pre-formatted strings — use the num() /
 * fixed() / times() helpers for the common numeric formats.
 */
class Table
{
  public:
    struct Col
    {
        const char *name;
        int width;
        /** 'l' left-aligns (labels); anything else right-aligns. */
        char align = 'r';
    };

    Table(std::initializer_list<Col> cols) : cols_(cols) {}
    explicit Table(std::vector<Col> cols) : cols_(std::move(cols)) {}

    /** Print the header row from the column names. */
    void
    header() const
    {
        for (const auto &col : cols_)
            cell(col, col.name);
        std::printf("\n");
    }

    /** Print one row; extra cells are ignored, missing ones blank. */
    void
    row(const std::vector<std::string> &cells) const
    {
        auto it = cells.begin();
        for (const auto &col : cols_) {
            cell(col, it != cells.end() ? it->c_str() : "");
            if (it != cells.end())
                ++it;
        }
        std::printf("\n");
    }

    /** Decimal integer cell. */
    static std::string
    num(std::uint64_t v)
    {
        return std::to_string(v);
    }

    /** Fixed-point cell ("0.123"). */
    static std::string
    fixed(double v, int prec = 3)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.*f", prec, v);
        return buf;
    }

    /** Ratio cell ("1.66x"). */
    static std::string
    times(double v, int prec = 2)
    {
        return fixed(v, prec) + "x";
    }

  private:
    void
    cell(const Col &col, const char *text) const
    {
        if (col.align == 'l')
            std::printf("%-*s ", col.width, text);
        else
            std::printf("%*s ", col.width, text);
    }

    std::vector<Col> cols_;
};

/** Abort the bench if a run was incorrect or deadlocked. */
inline void
require(const core::DoacrossResult &r, const char *what)
{
    if (!r.run.completed) {
        std::fprintf(stderr, "%s: DEADLOCK (tick limit)\n", what);
        std::exit(1);
    }
    if (!r.correct()) {
        std::fprintf(stderr, "%s: dependence violation: %s\n", what,
                     r.violations.front().c_str());
        std::exit(1);
    }
}

} // namespace bench
} // namespace psync

#endif // PSYNC_BENCH_COMMON_HH
