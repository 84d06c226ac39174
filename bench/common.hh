/**
 * @file
 * Shared helpers for the bench drivers: standard machine
 * configurations, fixed-width table printing, and the JSON record
 * file bench_micro writes. The experiment tables themselves live in
 * bench/tables.hh.
 */

#ifndef PSYNC_BENCH_COMMON_HH
#define PSYNC_BENCH_COMMON_HH

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/json.hh"
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

/**
 * Pull a `--json <path>` flag out of argv (compacting it in place so
 * later argument parsers — e.g. google-benchmark's — never see it).
 * @return the path, or empty when the flag is absent.
 */
inline std::string
extractJsonPath(int &argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int in = 1; in < argc; ++in) {
        if (std::string(argv[in]) == "--json" && in + 1 < argc) {
            path = argv[++in];
            continue;
        }
        argv[out++] = argv[in];
    }
    argc = out;
    return path;
}

/**
 * Collects per-run JSON records and writes them as one document:
 * `{"bench": ..., "records": [...]}`. Records embed
 * RunResult::toJson() so every row is machine-readable.
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string path, std::string bench_name)
        : path_(std::move(path)), benchName_(std::move(bench_name))
    {
    }

    bool enabled() const { return !path_.empty(); }

    /** Append one record; extra fields go in front of the result. */
    void
    add(core::json::Value record)
    {
        records_.push(std::move(record));
    }

    /** Convenience: label + scheme plan + run result. */
    void
    addRun(const std::string &workload, const std::string &scheme,
           const core::DoacrossResult &r)
    {
        core::json::Value rec = core::json::object();
        rec.set("workload", workload);
        rec.set("scheme", scheme);
        rec.set("sync_vars", r.plan.numSyncVars);
        rec.set("sync_storage_bytes", r.plan.syncStorageBytes);
        rec.set("renamed_storage_bytes", r.plan.renamedStorageBytes);
        rec.set("init_cycles",
                static_cast<std::uint64_t>(r.initCycles));
        rec.set("result", r.run.toJson());
        add(std::move(rec));
    }

    /** Write the document; call once at the end of main. */
    void
    write()
    {
        if (!enabled())
            return;
        core::json::Value doc = core::json::object();
        doc.set("bench", benchName_);
        doc.set("records", std::move(records_));
        std::ofstream os(path_);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", path_.c_str());
            std::exit(1);
        }
        doc.dump(os, 2);
        os << "\n";
    }

  private:
    std::string path_;
    std::string benchName_;
    core::json::Value records_ = core::json::array();
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
