/**
 * @file
 * The paper's experiment tables (EXPERIMENTS.md E2-E11, E13-E15).
 *
 * The paper has no numeric tables: its evaluation is the figures and
 * the comparative claims of sections 3-6. Each table regenerates one
 * of them and encodes the EXPERIMENTS.md verdict as a check over its
 * rows, so `psync_bench --table ID|all` both prints the numbers and
 * fails when a paper conclusion flips.
 *
 * A row is one JSON object: its axis labels are the top-level strings
 * (pre-formatted, e.g. "0.05"); everything else is measured — plan
 * numbers, and the RunResult record of each run ("run", or one per
 * compared variant). Doacross rows are bench::Scenarios run through
 * runScenario, so every row is trace-checked and a violation or a
 * deadlock exits exactly as in `psync_bench --all`. A row that is a
 * registered scenario runs that scenario; no row is ever registered.
 */

#ifndef PSYNC_BENCH_TABLES_HH
#define PSYNC_BENCH_TABLES_HH

#include <functional>
#include <string>
#include <vector>

#include "core/json.hh"

namespace psync {
namespace bench {

/**
 * A column: its header and the dotted path of its value in each row
 * ("scheme", "run.cycles"). Labels print as they are, left-aligned;
 * numbers as integers, or with `precision` decimals when nonzero.
 */
struct Column
{
    const char *name;
    const char *key;
    int precision = 0;
};

using Columns = std::vector<Column>;
using Rows = std::vector<core::json::Value>;

struct ExperimentTable
{
    /** The EXPERIMENTS.md section ("E3"). */
    const char *id;
    const char *title;
    /** The paper figure or section reproduced. */
    const char *artifact;
    const char *claim;
    /** Column sets; a row renders with parts[row "part", default 0]. */
    std::vector<Columns> parts;
    /** Runs the experiment: one object per printed row, in order. */
    std::function<Rows()> rows;
    /** Empty when the claim holds on the rows, else the failing row. */
    std::function<std::string(const Rows &)> check;
};

/** Every experiment table, in EXPERIMENTS.md order. */
const std::vector<ExperimentTable> &experimentTables();

/**
 * Print the banner and the rows to stdout. A header opens each part,
 * under the row's "section" line when it has one.
 */
void renderTable(const ExperimentTable &table, const Rows &rows);

} // namespace bench
} // namespace psync

#endif // PSYNC_BENCH_TABLES_HH
