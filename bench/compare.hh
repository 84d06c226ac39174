/**
 * @file
 * Trajectory files and the regression detector.
 *
 * A trajectory file (BENCH_PSYNC.json) is a schema-versioned JSON
 * document `{"schema_version": 1, "records": [...]}` with at most
 * one record per scenario id — rewriting it on each run and letting
 * version control keep the history makes per-PR cycle trajectories
 * diffable. Comparing two trajectory files classifies every
 * scenario as regression / improvement / unchanged / added /
 * removed; any regression beyond the threshold makes the comparison
 * fail (non-zero driver exit), which is what the CI smoke job
 * checks against the checked-in bench/baseline.json.
 */

#ifndef PSYNC_BENCH_COMPARE_HH
#define PSYNC_BENCH_COMPARE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/json.hh"

namespace psync {
namespace bench {

/** Empty trajectory document (schema header, no records). */
core::json::Value makeTrajectoryDoc();

/** Parse the JSON file at `path`; false (reason on stderr) when it
 * cannot be read or parsed. */
bool readJsonFile(const std::string &path, core::json::Value &out);

/** Pretty-print `doc` to `path`; false (reason on stderr) when the
 * file cannot be written. */
bool writeJsonFile(const std::string &path,
                   const core::json::Value &doc);

/**
 * The trajectory to append to before rewriting `path`: the file's
 * records under a current-version header, or an empty document
 * when the file is absent (or `path` is empty) or is not a
 * trajectory. A partial rerun thus keeps every other scenario's
 * record.
 */
core::json::Value openTrajectory(const std::string &path);

/**
 * Insert `record` into trajectory `doc`, replacing any existing
 * record with the same "scenario" id (appends otherwise).
 */
void mergeRecord(core::json::Value &doc, core::json::Value record);

/** Scenario-id -> cycles view of a trajectory document. */
struct Trajectory
{
    bool ok = false;
    std::string error;
    /** (scenario id, cycles), in document order. */
    std::vector<std::pair<std::string, std::uint64_t>> cycles;
};

/**
 * Validate a trajectory document and extract its cycle counts.
 * Rejects missing/foreign schema versions and records without a
 * scenario id or cycle count.
 */
Trajectory loadTrajectory(const core::json::Value &doc);

/** Comparison tunables. */
struct CompareOptions
{
    /**
     * Cycle increase (percent of baseline) beyond which a scenario
     * counts as regressed. Simulated cycles are deterministic, so
     * the default tolerance is tight.
     */
    double regressThresholdPct = 2.0;

    /**
     * Require bit-identical cycle counts: any difference — faster,
     * slower, or a scenario present on only one side — fails the
     * comparison. This is the `--exact` determinism gate: a sweep
     * run with `--jobs N` must reproduce the serial sweep exactly.
     */
    bool requireIdentical = false;
};

/** How one scenario moved between two trajectories. */
struct ScenarioDelta
{
    enum class Kind
    {
        regression,
        improvement,
        unchanged,
        /** Present only in the current trajectory. */
        added,
        /** Present only in the baseline. */
        removed,
    };

    std::string id;
    std::uint64_t baselineCycles = 0;
    std::uint64_t currentCycles = 0;
    /** Signed percent change from baseline (0 for added/removed). */
    double deltaPct = 0.0;
    Kind kind = Kind::unchanged;
};

/** Outcome of comparing two trajectories. */
struct CompareResult
{
    /** Current-trajectory order, with removed scenarios appended. */
    std::vector<ScenarioDelta> deltas;
    unsigned regressions = 0;
    unsigned improvements = 0;
    unsigned unchanged = 0;
    unsigned added = 0;
    unsigned removed = 0;

    /** True when no scenario regressed beyond the threshold. */
    bool ok() const { return regressions == 0; }
};

/**
 * Diff `current` against `baseline`. Both documents must pass
 * loadTrajectory; a malformed document yields a CompareResult with
 * one pseudo-delta carrying the error in `id` and `regressions`
 * forced non-zero so callers fail safe.
 */
CompareResult compareTrajectories(const core::json::Value &baseline,
                                  const core::json::Value &current,
                                  const CompareOptions &opts = {});

/** Aligned per-scenario table plus a verdict line. */
void printCompare(std::ostream &os, const CompareResult &result,
                  const CompareOptions &opts);

} // namespace bench
} // namespace psync

#endif // PSYNC_BENCH_COMPARE_HH
