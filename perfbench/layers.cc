#include "layers.hh"

#include <memory>

#include "core/critical_path.hh"
#include "ir/passes.hh"
#include "sim/machine.hh"
#include "sync/scheme.hh"

namespace perf {

namespace {

using namespace psync;

/** Label of a fabric in the per-fabric layer metrics. */
const char *
fabricLabel(sim::FabricKind kind)
{
    switch (kind) {
      case sim::FabricKind::memory:
        return "flat-mem";
      case sim::FabricKind::registers:
        return "flat-reg";
      case sim::FabricKind::combining:
        return "combining";
      case sim::FabricKind::hierarchical:
        return "hier";
    }
    return "other";
}

} // namespace

Recomposed
recompose(const std::function<dep::Loop()> &make_loop,
          sync::SchemeKind kind, core::RunConfig cfg, LayerPass &lp)
{
    Recomposed out;
    core::DoacrossResult &result = out.result;
    dep::Loop loop;
    lp.loopMs += timeMs([&] { loop = make_loop(); });

    // bench::runScenario's bound computation.
    std::unique_ptr<dep::DepGraph> bound_graph;
    lp.graphMs += timeMs(
        [&] { bound_graph = std::make_unique<dep::DepGraph>(loop); });
    lp.critpathMs += timeMs([&] {
        core::CriticalPath cp = core::criticalPath(
            *bound_graph, core::CriticalPathCosts::fromMachine(cfg.machine));
        (void)cp.achievableBound(cfg.machine.numProcs);
    });

    core::TraceChecker checker;
    std::unique_ptr<sim::Machine> machine;
    lp.machineMs += timeMs([&] {
        machine = std::make_unique<sim::Machine>(
            cfg.machine, cfg.checkTrace ? &checker : nullptr, cfg.tracer);
    });

    // core::planDoacross, piece by piece.
    const bool eliminate_covered =
        cfg.eliminateCoveredDeps && !cfg.scheme.exactBoundaries;
    std::unique_ptr<dep::DepGraph> graph;
    std::unique_ptr<dep::DataLayout> layout;
    lp.graphMs += timeMs([&] {
        graph = std::make_unique<dep::DepGraph>(loop, eliminate_covered);
        layout = std::make_unique<dep::DataLayout>(
            loop, cfg.machine.memory.wordBytes);
    });
    std::unique_ptr<sync::Scheme> scheme;
    lp.planMs += timeMs([&] {
        scheme = sync::makeScheme(kind);
        sync::SchemeConfig scheme_cfg = cfg.scheme;
        if (scheme_cfg.tracer == nullptr)
            scheme_cfg.tracer = cfg.tracer;
        result.plan =
            scheme->plan(*graph, *layout, machine->fabric(), scheme_cfg);
    });
    std::vector<sim::Program> programs;
    lp.emitMs += timeMs([&] {
        const std::uint64_t total = loop.iterations();
        programs.reserve(total);
        for (std::uint64_t lpid = 1; lpid <= total; ++lpid)
            programs.push_back(scheme->emit(lpid));
    });
    sim::SyncFabric &fabric = machine->fabric();
    lp.passesMs += timeMs([&] {
        result.passStats = ir::runPasses(
            programs, cfg.passes,
            [&fabric](sim::SyncVarId var) { return fabric.peek(var); });
    });
    out.verified = !cfg.passes.enabled || !cfg.passes.verify ||
                   result.passStats.verified;

    const double run_ms = timeMs([&] {
        result.run = core::runProgramPool(*machine, programs, cfg.schedule,
                                          cfg.tickLimit, cfg.chunkSize);
    });
    lp.runMs += run_ms;
    if (cfg.checkTrace) {
        lp.checkMs += timeMs([&] {
            result.violations = checker.verify(loop, result.plan.depsVerified);
        });
        result.instancesChecked = checker.instancesChecked();
        lp.checkInstances += static_cast<double>(result.instancesChecked);
    }

    const core::RunResult &run = result.run;
    auto &slot = lp.fabricRunNsEvents[fabricLabel(cfg.machine.fabric)];
    slot.first += run_ms * 1e6;
    slot.second += static_cast<double>(run.eventsExecuted);
    lp.events += static_cast<double>(run.eventsExecuted);
    lp.heapFallback += static_cast<double>(run.heapFallbackEvents);
    lp.syncVars += static_cast<double>(result.plan.numSyncVars);
    lp.waitsEliminated += static_cast<double>(result.passStats.waitsEliminated);
    lp.opsMerged += static_cast<double>(result.passStats.opsMerged);
    lp.spinCycles += static_cast<double>(run.spinCycles);
    lp.stallCycles += static_cast<double>(run.stallCycles);
    lp.moduleQueueDelay += static_cast<double>(run.moduleQueueDelay);
    return out;
}

void
setLayerMetrics(Result &r, const std::vector<LayerPass> &passes)
{
    auto med = [&](double LayerPass::*field) {
        std::vector<double> v;
        for (const auto &lp : passes)
            v.push_back(lp.*field);
        return median(v);
    };
    const double events = med(&LayerPass::events);
    r.set("sim.run_ms", med(&LayerPass::runMs), "ms");
    r.set("sim.events", events, "count");
    r.set("sim.ns_per_event",
          events > 0 ? med(&LayerPass::runMs) * 1e6 / events : 0, "ns");
    for (const char *label : {"flat-mem", "flat-reg", "combining", "hier"}) {
        std::vector<double> v;
        for (const auto &lp : passes) {
            auto it = lp.fabricRunNsEvents.find(label);
            if (it != lp.fabricRunNsEvents.end() && it->second.second > 0)
                v.push_back(it->second.first / it->second.second);
        }
        r.set(std::string("sim.ns_per_event.") + label, median(v), "ns");
    }
    r.set("sim.machine_ms", med(&LayerPass::machineMs), "ms");
    r.set("sim.heap_fallback_events", med(&LayerPass::heapFallback),
          "count");
    r.set("sim.spin_cycles", med(&LayerPass::spinCycles), "cycles");
    r.set("sim.stall_cycles", med(&LayerPass::stallCycles), "cycles");
    r.set("sim.module_queue_delay", med(&LayerPass::moduleQueueDelay),
          "cycles");
    r.set("sync.plan_ms", med(&LayerPass::planMs), "ms");
    r.set("sync.emit_ms", med(&LayerPass::emitMs), "ms");
    r.set("sync.vars", med(&LayerPass::syncVars), "count");
    r.set("ir.passes_ms", med(&LayerPass::passesMs), "ms");
    r.set("ir.waits_eliminated", med(&LayerPass::waitsEliminated), "count");
    r.set("ir.ops_merged", med(&LayerPass::opsMerged), "count");
    r.set("dep.loop_ms", med(&LayerPass::loopMs), "ms");
    r.set("dep.graph_ms", med(&LayerPass::graphMs), "ms");
    r.set("core.critpath_ms", med(&LayerPass::critpathMs), "ms");
    r.set("core.check_ms", med(&LayerPass::checkMs), "ms");
    r.set("core.check_instances", med(&LayerPass::checkInstances), "count");
}

} // namespace perf
