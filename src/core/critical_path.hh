/**
 * @file
 * Dependence-limited lower bound on parallel execution time.
 *
 * With one processor per iteration, free synchronization and an
 * uncontended memory system, the best possible Doacross finish
 * time is the longest chain through the statement-instance graph:
 * program order within an iteration plus every cross-iteration
 * dependence arc. Benches report achieved time against this bound,
 * which also equals the "number of parallel steps" argument the
 * paper makes for Example 1 (pipelined and wavefront executions
 * share the same bound).
 */

#ifndef PSYNC_CORE_CRITICAL_PATH_HH
#define PSYNC_CORE_CRITICAL_PATH_HH

#include "dep/dep_graph.hh"
#include "sim/machine.hh"

namespace psync {
namespace core {

/** Per-access cost assumptions for the bound. */
struct CriticalPathCosts
{
    /** Cycles per uncontended memory access (bus + service). */
    sim::Tick accessCycles = 5;

    /**
     * Minimum cycles for a produced value to cross the sync fabric
     * to a waiting consumer, charged once per cross-iteration arc.
     * On the register fabric a posted write cannot wake a waiter
     * before the next sync-bus broadcast slot, so even with free
     * synchronization ops the dependence hop costs syncBusCycles.
     * Memory-resident schemes poll (or combine the key test into
     * the charged data access), so no separate floor applies and
     * this stays 0 — keeping the bound a true lower bound there.
     */
    sim::Tick syncHopCycles = 0;

    /**
     * Chain arcs access to access instead of statement to
     * statement. A statement instance then runs as emitted — one
     * step per read, its compute, one step per write — and an arc's
     * sink access waits only for its source access. Schemes that
     * order single accesses (reference-based keys) overlap the rest
     * of the sink statement with its source, so only this bound is a
     * lower bound for them; schemes that synchronize whole
     * statements keep the tighter statement-level default.
     */
    bool perAccess = false;

    /** Derive from a machine configuration. */
    static CriticalPathCosts
    fromMachine(const sim::MachineConfig &mc)
    {
        CriticalPathCosts c;
        c.accessCycles =
            mc.dataBusCycles + mc.memory.serviceCycles;
        if (mc.fabric == sim::FabricKind::registers) {
            c.syncHopCycles = mc.syncBusCycles;
        } else if (mc.fabric == sim::FabricKind::hierarchical) {
            // Even a same-cluster consumer cannot wake before the
            // producer's local-bus broadcast slot.
            c.syncHopCycles = mc.clusterBusCycles;
        } else if (mc.fabric == sim::FabricKind::combining) {
            // The raising write crosses at least one switch stage
            // before any parked waiter can be released.
            c.syncHopCycles = mc.netStageCycles;
        }
        return c;
    }
};

/** Result of the longest-path analysis. */
struct CriticalPath
{
    /** The dependence-limited lower bound, in cycles. */
    sim::Tick cycles = 0;

    /** Total work (sum over all active statement instances). */
    sim::Tick totalWork = 0;

    /** totalWork / cycles: processors the bound can keep busy. */
    double
    maxUsefulParallelism() const
    {
        return cycles ? static_cast<double>(totalWork) / cycles
                      : 0.0;
    }

    /**
     * The achievable floor on `procs` processors: dependence
     * chains or work/P, whichever binds.
     */
    sim::Tick
    achievableBound(unsigned procs) const
    {
        if (procs == 0)
            return cycles;
        sim::Tick work_bound = (totalWork + procs - 1) / procs;
        return cycles > work_bound ? cycles : work_bound;
    }
};

/**
 * Longest chain through the instance graph of `graph`'s loop, at
 * the granularity `costs.perAccess` selects. Branch guards are
 * resolved exactly as execution resolves them; covered arcs
 * contribute nothing extra (their chains are already present).
 * O(iterations x steps x arcs).
 */
CriticalPath criticalPath(const dep::DepGraph &graph,
                          const CriticalPathCosts &costs);

/**
 * Independent analytical recomputation of the critical path, in the
 * closed-form style of the barrier-combinatorics analysis: the
 * expected completion time of a synchronization DAG is the maximum
 * over sink instances of the recurrence
 *
 *   F(v) = d(v) + max over predecessors u of (F(u) + hop(u, v))
 *
 * evaluated here by memoized top-down recursion straight over the
 * raw dependence set of `dep::analyze` (duplicates, covered arcs
 * and all) rather than the DepGraph arc lists and forward DP that
 * `criticalPath` uses. Costs are deterministic (jittered statement
 * costs are already resolved in the loop), so expectation equals
 * value and the two computations must agree exactly — the fuzzer
 * gates `analytical == criticalPath().cycles` and
 * `analytical <= achieved <= simulated cycles` on every small DAG.
 */
CriticalPath analyticalCriticalPath(const dep::Loop &loop,
                                    const CriticalPathCosts &costs);

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_CRITICAL_PATH_HH
