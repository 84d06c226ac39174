/**
 * @file
 * Cycle-level event-tracing interface.
 *
 * Simulator components (processors, buses, memory modules, the
 * synchronization fabrics) report what they are doing through an
 * optional Tracer pointer: per-processor phase intervals (the
 * compute / spin / sync-overhead / stall split the paper argues
 * about), resource occupancy, per-sync-variable access events, wait
 * edges, op spans and fixed-interval timeline samples, all stamped
 * with simulator Ticks.
 *
 * The default tracer is null and every hook site guards on the
 * pointer, so an untraced run pays one predicted-not-taken branch
 * per event and records nothing. The concrete recorder and its
 * Chrome trace-event export live in core/tracing.{hh,cc}.
 */

#ifndef PSYNC_SIM_TRACING_HH
#define PSYNC_SIM_TRACING_HH

#include <cstdint>
#include <string>

#include "ir/program.hh"
#include "sim/types.hh"

namespace psync {
namespace sim {

/** What a processor was doing over an interval. */
enum class TracePhase
{
    /** Executing statement-body work. */
    compute,
    /** Busy-waiting on a synchronization variable. */
    spin,
    /** Issuing/finishing synchronization operations. */
    syncOverhead,
    /** Waiting for a data access (bus + module + cache). */
    stall,
    /** Fetching the next program from the scheduler. */
    dispatch,
};

/** Short printable phase name ("compute", "spin", ...). */
const char *tracePhaseName(TracePhase phase);

/** What a processor did to a synchronization variable. */
enum class SyncOp : std::uint8_t
{
    /** Re-read a memory-resident variable while spinning. */
    poll,
    /** Began waiting for the variable to reach a threshold. */
    wait,
    /** Issued a store (a posted write on the register fabrics). */
    write,
    /** Issued an atomic read-modify-write (fetch-and-increment). */
    rmw,
    /** Issued a Cedar keyed access (test-and-op at the module). */
    keyed,
    /** A posted write won the sync bus and reached every copy. */
    broadcast,
    /** A posted write was covered by a newer pending write. */
    coalesced,
};

/** Short printable op name ("poll", "write", ...). */
const char *syncOpName(SyncOp op);

/**
 * Resource name memory modules report their busy intervals under
 * (Tracer::resourceBusy, indexed by module number).
 */
constexpr const char *memoryModuleResource = "memory.module";

/**
 * A fixed-interval timeline counter stream. The machine samples
 * every stream at each interval boundary (plus once before the run
 * and once at drain), so a timeline consumer can difference
 * cumulative streams and read instantaneous ones directly. The
 * `index` parameter of Tracer::sample selects the entity within a
 * stream (bus number, memory module, sync variable, processor);
 * streams describing a single global quantity use index 0.
 */
enum class SampleStream : std::uint8_t
{
    /** Cumulative busy cycles; index = bus (0 data, 1 sync). */
    busBusyCycles,
    /** Queued + in-flight transactions now; index = bus. */
    busQueueDepth,
    /** Cumulative serviced requests; index = memory module. */
    moduleAccesses,
    /** Requests queued at the module now; index = module. */
    moduleBacklog,
    /** Processors blocked on the variable now; index = sync var. */
    syncVarWaiters,
    /** Instantaneous ProcActivity code; index = processor. */
    procActivity,
    /** Cumulative events executed by the event core. */
    eventsExecuted,
    /** Events pending in the queue now. */
    pendingEvents,
    /** Occupied calendar-ring buckets now (0 on the heap core). */
    ringBuckets,
    /** Events parked in the far-future heap now. */
    farHeapEvents,
    /** Cumulative handler captures spilled to the heap. */
    heapFallbacks,
    /** Cumulative switch-conflict wait cycles; index = net stage. */
    netStageConflictCycles,
    /** Cumulative packets absorbed by combining; index = stage. */
    netStageCombines,
    /** Cumulative busy cycles; index = cluster sync bus. */
    clusterBusBusyCycles,
};

/** Short printable stream name ("bus_busy_cycles", ...). */
const char *sampleStreamName(SampleStream stream);

/**
 * True for streams whose samples are running totals (difference
 * consecutive samples to get a per-interval rate); false for
 * instantaneous state snapshots.
 */
bool sampleStreamCumulative(SampleStream stream);

/** True for streams indexed by an entity id rather than global. */
bool sampleStreamIndexed(SampleStream stream);

/**
 * What a processor is doing at one sampling instant. Unlike
 * TracePhase intervals (which are emitted retroactively at op
 * completion), this is live state, so a processor blocked across
 * many sampling boundaries shows up in every one of them.
 */
enum class ProcActivity : std::uint8_t
{
    /** Fetching the next program from the scheduler. */
    dispatch,
    /** Executing statement-body work. */
    compute,
    /** Waiting for a data access. */
    stall,
    /** Issuing or finishing a synchronization operation. */
    sync,
    /** Busy-waiting on a synchronization variable. */
    spin,
    /** Blocked on a parked (non-polling) wait. */
    parked,
    /** Out of work. */
    halted,
};

/** Number of ProcActivity states (for state-mix tabulation). */
constexpr unsigned numProcActivities = 7;

/** Short printable activity name ("compute", "parked", ...). */
const char *procActivityName(ProcActivity activity);

/**
 * Event consumer. All hooks are passive: a tracer must not
 * schedule events or otherwise perturb the simulation, so a traced
 * run and an untraced run of the same configuration produce
 * identical statistics. Every hook defaults to a no-op, so a tracer
 * overrides only the events it reads.
 */
class Tracer
{
  public:
    virtual ~Tracer();

    /**
     * Processor `who` spent [start, end) in `phase`. Intervals of
     * one processor never overlap (the modeled cores are in-order,
     * one operation outstanding at a time); components do not emit
     * empty intervals.
     */
    virtual void
    phaseInterval(ProcId who, TracePhase phase, Tick start, Tick end)
    {
        (void)who; (void)phase; (void)start; (void)end;
    }

    /**
     * Resource `resource[index]` (a bus, a memory module) was
     * occupied over [start, end) on behalf of processor `who`.
     */
    virtual void
    resourceBusy(const std::string &resource, unsigned index,
                 ProcId who, Tick start, Tick end)
    {
        (void)resource; (void)index; (void)who; (void)start;
        (void)end;
    }

    /**
     * Processor `who` performed `op` on synchronization variable
     * `var` at `at`. The profiler finds the access that satisfied a
     * wait among these; the timeline buckets them into per-variable
     * traffic.
     */
    virtual void
    syncVarOp(SyncVarId var, SyncOp op, ProcId who, Tick at)
    {
        (void)var; (void)op; (void)who; (void)at;
    }

    /**
     * Processor `who` was blocked on synchronization variable `var`
     * over [start, end): the wait began at `start` and the variable
     * reached the awaited threshold at `end`. Emitted once per
     * satisfied wait (never for waits satisfied instantly), by both
     * fabrics and by the Cedar keyed-access path. The blame reducer
     * (core/blame) turns these edges into per-variable wait-chain
     * attribution.
     */
    virtual void
    waitEdge(SyncVarId var, ProcId who, Tick start, Tick end)
    {
        (void)var; (void)who; (void)start; (void)end;
    }

    /**
     * Like waitEdge, but emitted by the processor for program ops
     * and stamped with the op's stable IR id (assigned by
     * ir::ProgramBuilder at lowering time; 0 for hand-built
     * programs). Lets blame reports attribute spin to the emitting
     * wait *site* across iterations, surviving IR passes that
     * delete or merge neighboring ops.
     */
    virtual void
    waitEdgeOp(SyncVarId var, ProcId who, std::uint32_t op_id,
               Tick start, Tick end)
    {
        (void)var; (void)who; (void)op_id; (void)start; (void)end;
    }

    /**
     * Processor `who` executed one program op over [start, end):
     * issue through completion, wait time included. Stamped with
     * the op's stable IR id (0 for hand-built programs), its kind,
     * its sync variable (0 when the op has none) and the iteration
     * it belongs to. Together with waitEdge these spans are the
     * input of the causal critical-path profiler (core/profile):
     * spans give program order per processor, wait edges give the
     * cross-processor arcs. Components do not emit empty spans.
     */
    virtual void
    opSpan(ProcId who, std::uint64_t iter, std::uint32_t op_id,
           ir::OpKind kind, SyncVarId var, Tick start, Tick end)
    {
        (void)who; (void)iter; (void)op_id; (void)kind; (void)var;
        (void)start; (void)end;
    }

    /**
     * Timeline sample: `stream[index]` had `value` at tick `at`.
     * Emitted by the machine at fixed interval boundaries when
     * MachineConfig::timelineInterval is nonzero (plus one baseline
     * sample before the run and one at drain). Cumulative streams
     * (sampleStreamCumulative) carry running totals; instantaneous
     * streams carry state snapshots. Sparse streams (per-sync-var
     * waiter counts) only report entities with nonzero values, so a
     * missing sample means zero.
     */
    virtual void
    sample(SampleStream stream, std::uint32_t index, Tick at,
           double value)
    {
        (void)stream; (void)index; (void)at; (void)value;
    }

    /**
     * Drop every timeline sample taken off the grid `origin + k *
     * stride`. The machine calls this when its series reaches
     * Machine::timelineSampleCap, doubling the interval, so
     * the series left is the one sampling at `stride` from the
     * start would have produced.
     */
    virtual void
    thinSamples(Tick origin, Tick stride)
    {
        (void)origin; (void)stride;
    }

    /**
     * Attach a human-readable label to a synchronization variable
     * (called by the schemes at plan time, e.g. "pc[3]", "key[17]").
     */
    virtual void
    nameSyncVar(SyncVarId var, const std::string &label)
    {
        (void)var; (void)label;
    }
};

} // namespace sim
} // namespace psync

/**
 * Hook-site helper: evaluates its arguments and dispatches only
 * when a tracer is attached.
 */
#define PSYNC_TRACE(tracer, call)                                   \
    do {                                                            \
        if (tracer)                                                 \
            (tracer)->call;                                         \
    } while (0)

#endif // PSYNC_SIM_TRACING_HH
