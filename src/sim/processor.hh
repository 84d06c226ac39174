/**
 * @file
 * In-order processor model.
 *
 * A processor repeatedly fetches an iteration program from the
 * runtime's scheduler and interprets its ops. One memory or
 * synchronization operation is outstanding at a time (the machines
 * the paper targets are simple in-order designs). Cycle accounting
 * is split into compute, busy-wait (spin), synchronization
 * overhead, and data-access stall, which are the quantities the
 * paper's arguments are about.
 */

#ifndef PSYNC_SIM_PROCESSOR_HH
#define PSYNC_SIM_PROCESSOR_HH

#include <cstdint>
#include <functional>
#include <ostream>

#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/program.hh"
#include "sim/stats.hh"
#include "sim/sync_fabric.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** One simulated processor. */
class Processor
{
  public:
    /**
     * Scheduler hook: the processor asks for its next program and
     * receives it (or nullptr when the work is exhausted) through
     * the callback, possibly after simulated dispatch latency.
     */
    using Dispatch =
        std::function<void(ProcId,
                           std::function<void(const Program *)>)>;

    Processor(EventQueue &eq, ProcId id, SyncFabric &fabric,
              CacheSystem &caches, TraceSink *sink,
              Tracer *tracer = nullptr);

    /** Begin the fetch-execute loop. */
    void start(Dispatch dispatch);

    ProcId id() const { return id_; }

    /** Tick at which this processor ran out of work. */
    Tick haltTick() const { return haltTick_; }

    /** True once the processor has drained all its work. */
    bool halted() const { return halted_; }

    /**
     * What this processor is doing right now. Live state for the
     * timeline sampler, maintained only while a tracer is attached
     * (always `dispatch` otherwise); the machine refines `spin`
     * into `parked` by asking the fabric.
     */
    ProcActivity activity() const { return activity_; }

    Tick computeCycles() const { return computeCycles_; }
    Tick spinCycles() const { return spinCycles_; }
    Tick syncOverheadCycles() const { return syncOverheadCycles_; }
    Tick stallCycles() const { return stallCycles_; }

    std::uint64_t syncOpsIssued() const { return syncOpsIssued_; }
    std::uint64_t programsRun() const { return programsRun_; }
    std::uint64_t marksSkipped() const { return marksSkipped_; }

    void dumpStats(std::ostream &os) const;

  private:
    void fetchNext();
    void beginProgram(const Program *program);
    void step();

    /** Emit a non-empty phase interval to the attached tracer. */
    void
    tracePhase(TracePhase phase, Tick start, Tick end)
    {
        if (tracer && end > start)
            tracer->phaseInterval(id_, phase, start, end);
    }

    /**
     * Emit one executed-op span (issue through completion) to the
     * attached tracer. Empty spans are dropped, matching the
     * phase-interval contract.
     */
    void
    traceOpSpan(std::uint32_t op_id, OpKind kind, SyncVarId var,
                std::uint64_t iter, Tick start, Tick end)
    {
        if (tracer && end > start)
            tracer->opSpan(id_, iter, op_id, kind, var, start, end);
    }

    /** Update live activity state (no-op when untraced). */
    void
    setActivity(ProcActivity a)
    {
        if (tracer)
            activity_ = a;
    }

    /** Iteration an op belongs to (iterTag overrides program iter). */
    std::uint64_t
    opIter(const Op &op) const
    {
        return op.iterTag ? op.iterTag : current->iter;
    }

    void execCompute(const Op &op);
    void execData(const Op &op);
    void execWaitGE(const Op &op);
    void execWrite(const Op &op);
    void execFetchInc(const Op &op);
    void execPcMark(const Op &op);
    void execPcTransfer(const Op &op);
    void execCtrBarrier(const Op &op);
    void execKeyed(const Op &op);

    EventQueue &eventq;
    ProcId id_;
    SyncFabric &fabric;
    CacheSystem &caches;
    TraceSink *trace;
    Tracer *tracer;

    Dispatch dispatch_;
    /**
     * The program being run. Dispatchers hand out programs that
     * outlive the run, so op continuations capture their op by
     * reference instead of copying it into every handler.
     */
    const Program *current = nullptr;
    size_t opIndex = 0;

    /** Improved-primitive ownership flag (Fig. 4.3), per program. */
    bool ownedPc = false;

    bool halted_ = false;
    Tick haltTick_ = 0;
    ProcActivity activity_ = ProcActivity::dispatch;

    Tick computeCycles_ = 0;
    Tick spinCycles_ = 0;
    Tick syncOverheadCycles_ = 0;
    Tick stallCycles_ = 0;
    std::uint64_t syncOpsIssued_ = 0;
    std::uint64_t programsRun_ = 0;
    std::uint64_t marksSkipped_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_PROCESSOR_HH
