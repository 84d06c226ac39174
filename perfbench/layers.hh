/**
 * @file
 * Outside-in layer split: core::runDoacross re-composed from its
 * public pieces, each call timed from the harness. Shared by the
 * traced sim and fuzz runs.
 */

#ifndef PSYNC_PERFBENCH_LAYERS_HH
#define PSYNC_PERFBENCH_LAYERS_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "core/runtime.hh"

namespace perf {

/** Layer accumulators over one pass (sums over its runs). */
struct LayerPass
{
    double loopMs = 0, graphMs = 0, critpathMs = 0, machineMs = 0;
    double planMs = 0, emitMs = 0, passesMs = 0, runMs = 0, checkMs = 0;
    double events = 0, heapFallback = 0, syncVars = 0;
    double waitsEliminated = 0, opsMerged = 0, checkInstances = 0;
    double spinCycles = 0, stallCycles = 0, moduleQueueDelay = 0;
    /** Fabric label -> (run ns, events), for ns/event per fabric. */
    std::map<std::string, std::pair<double, double>> fabricRunNsEvents;

    /** Scale every host time by `f` (see SpeedProbe). */
    void
    scale(double f)
    {
        for (double *t : {&loopMs, &graphMs, &critpathMs, &machineMs,
                          &planMs, &emitMs, &passesMs, &runMs, &checkMs})
            *t *= f;
        for (auto &kv : fabricRunNsEvents)
            kv.second.first *= f;
    }
};

/** Outcome of one re-composed run. */
struct Recomposed
{
    psync::core::DoacrossResult result;
    /** The IR verifier accepted the lowered programs. */
    bool verified = true;
};

/**
 * Run `kind` on the loop `make_loop` builds under `cfg` exactly as
 * bench::runScenario + core::runDoacross do — loop build, bound
 * graph + critical path, Machine with a TraceChecker sink,
 * Scheme::plan/emit, ir::runPasses, runProgramPool, verify — and
 * add each call's time and the run's counts to `lp`.
 */
Recomposed recompose(const std::function<psync::dep::Loop()> &make_loop,
                     psync::sync::SchemeKind kind,
                     psync::core::RunConfig cfg, LayerPass &lp);

/**
 * Set the layer metrics (medians over passes of the per-pass sums,
 * host times already scaled to the reference speed) of the sim,
 * sync, ir, dep and core layers.
 */
void setLayerMetrics(Result &r, const std::vector<LayerPass> &passes);

} // namespace perf

#endif // PSYNC_PERFBENCH_LAYERS_HH
