/**
 * @file
 * Synchronization-variable fabrics.
 *
 * The paper's section 6 argues that process counters can live either
 * in the coherent shared memory (where busy-wait polling consumes
 * data-bus and memory-module bandwidth) or in dedicated
 * synchronization registers with per-processor local images updated
 * over a broadcast synchronization bus (the Alliant FX/8
 * concurrency-control-bus style), where polling is local and free
 * and only updates are broadcast — with write coalescing collapsing
 * back-to-back updates to the same variable before they win bus
 * arbitration.
 *
 * Both organizations are modeled behind one interface so every
 * scheme can run on either fabric.
 */

#ifndef PSYNC_SIM_SYNC_FABRIC_HH
#define PSYNC_SIM_SYNC_FABRIC_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/bus.hh"
#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "sim/stats.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"
#include "sim/wait_set.hh"

namespace psync {
namespace sim {

/** Where synchronization variables physically live. */
enum class FabricKind
{
    /** Variables in shared memory; polls are memory transactions. */
    memory,
    /** Dedicated registers with broadcast local images. */
    registers,
    /**
     * Variables in memory modules behind a combining omega network
     * that merges matching fetch&add (and poll) packets at switch
     * nodes — the NYU Ultracomputer hot-spot fix. See
     * CombiningSyncFabric (sim/combining_fabric.hh).
     */
    combining,
    /**
     * Two-level cluster fabric: per-cluster register images on
     * local buses plus a global serialization stage, SynCron-style.
     * See HierarchicalSyncFabric (sim/cluster_fabric.hh).
     */
    hierarchical,
};

/** Convert a fabric kind to a short printable name. */
const char *fabricKindName(FabricKind kind);

/**
 * Abstract home of synchronization variables.
 *
 * All runtime operations are asynchronous: completion is delivered
 * through callbacks scheduled on the event queue, and busy-waiting
 * is reported as the number of cycles between the start of a wait
 * and its satisfaction so the processor model can account spin time.
 */
class SyncFabric
{
  public:
    using WaitHandler = InlineFunction<void(Tick waited_cycles)>;
    using DoneHandler = InlineFunction<void()>;
    using ValueHandler = InlineFunction<void(SyncWord value)>;

    virtual ~SyncFabric() = default;

    /** Fabric flavor, for reporting. */
    virtual FabricKind kind() const = 0;

    /**
     * Allocate `count` variables initialized to `init_value`.
     * Setup-time operation; the *simulated* cost of initialization
     * is modeled by the schemes (it is one of the paper's axes).
     * @return the id of the first variable of the block.
     */
    virtual SyncVarId allocate(unsigned count, SyncWord init_value) = 0;

    /** Number of variables allocated so far. */
    virtual unsigned allocated() const = 0;

    /**
     * Spin until value(var) >= threshold. PC words compare with
     * their packed lexicographic order (see PcWord); plain counters
     * compare numerically — both are the same u64 comparison.
     */
    virtual void waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                        WaitHandler on_done) = 0;

    /** Read the current value (local image where one exists). */
    virtual void read(ProcId who, SyncVarId var,
                      ValueHandler on_done) = 0;

    /**
     * Update a variable. On the register fabric the write is
     * *posted*: the issuing processor continues after `issueCost`
     * cycles while the broadcast proceeds asynchronously. On the
     * memory fabric the writer blocks until the word is globally
     * visible, per correctness requirement (1) of section 2.2.
     */
    virtual void write(ProcId who, SyncVarId var, SyncWord value,
                       DoneHandler on_done) = 0;

    /** Atomic increment, returning the pre-increment value. */
    virtual void fetchInc(ProcId who, SyncVarId var,
                          ValueHandler on_done) = 0;

    /** Instantaneous, non-simulated value inspection (tests). */
    virtual SyncWord peek(SyncVarId var) const = 0;

    /** Instantaneous, non-simulated value override (setup). */
    virtual void poke(SyncVarId var, SyncWord value) = 0;

    /** Processor-side cycles to issue one fabric operation. */
    virtual Tick issueCost() const = 0;

    /**
     * Emit per-variable timeline samples (blocked-waiter counts) to
     * `t` at tick `at`. Only variables with at least one blocked
     * waiter are reported, so a missing sample means zero. Default
     * reports nothing.
     */
    virtual void
    sampleTimeline(Tracer &t, Tick at) const
    {
        (void)t; (void)at;
    }

    /**
     * True if `who` is blocked on a parked (non-polling) wait right
     * now — a cached-spin waiter waiting for an invalidation, or a
     * keyed request parked at its module. Register-fabric waiters
     * spin on free local images and are never parked. Maintained
     * only while a tracer is attached (timeline sampling).
     */
    virtual bool
    isParked(ProcId who) const
    {
        (void)who;
        return false;
    }

    /** Register the fabric's statistics with a walker group. */
    virtual void registerStats(stats::Group &group) const = 0;
};

/**
 * Synchronization variables held in shared memory words.
 *
 * Every poll of a busy-wait loop is a full data-bus + memory-module
 * round trip, repeated every `pollIntervalCycles`. This is the
 * organization the paper attributes to data-oriented schemes (keys
 * stored with their data) and to software-only implementations.
 */
class MemorySyncFabric : public SyncFabric, private Memory::PollSink
{
  public:
    /**
     * @param eq     event queue
     * @param mem    backing memory (shared with data accesses)
     * @param base   first byte address used for sync words
     * @param poll_interval cycles between successive spin polls
     * @param cached_spin spin on a coherent cache copy: after a
     *        failed poll the waiter parks and re-fetches only when
     *        the word is written (invalidation), instead of
     *        re-polling memory every interval. Models
     *        test&test&set-style spinning; the re-fetch burst when
     *        a hot word is released still queues at its module.
     */
    MemorySyncFabric(EventQueue &eq, Memory &mem, Addr base,
                     Tick poll_interval, bool cached_spin = true,
                     Tracer *tracer = nullptr);

    FabricKind kind() const override { return FabricKind::memory; }

    SyncVarId allocate(unsigned count, SyncWord init_value) override;
    unsigned allocated() const override { return numVars; }

    void waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                WaitHandler on_done) override;
    void read(ProcId who, SyncVarId var, ValueHandler on_done) override;
    void write(ProcId who, SyncVarId var, SyncWord value,
               DoneHandler on_done) override;
    void fetchInc(ProcId who, SyncVarId var,
                  ValueHandler on_done) override;

    SyncWord peek(SyncVarId var) const override;
    void poke(SyncVarId var, SyncWord value) override;

    Tick issueCost() const override { return 1; }

    /** Total spin polls issued to memory. */
    std::uint64_t polls() const
    {
        return static_cast<std::uint64_t>(pollsStat.value());
    }

    /**
     * Cedar-style combined keyed access (the "synchronization
     * processor in each global memory module" of [26], section
     * 3.1): one interconnect transaction carries the key test, the
     * data access and the key increment to the module where key
     * and datum both live. If key < threshold the request parks
     * *at the module* — no retry traffic — and is re-serviced
     * (module-locally) whenever the key changes.
     */
    void keyedAccess(ProcId who, SyncVarId key, SyncWord threshold,
                     WaitHandler on_done);

    /** Combined keyed accesses serviced. */
    std::uint64_t keyedOps() const
    {
        return static_cast<std::uint64_t>(keyedOpsStat.value());
    }

    /** Module-local retries of parked keyed requests. */
    std::uint64_t keyedRetries() const
    {
        return static_cast<std::uint64_t>(keyedRetriesStat.value());
    }

    void sampleTimeline(Tracer &t, Tick at) const override;
    bool isParked(ProcId who) const override;

    void registerStats(stats::Group &group) const override;

  private:
    /**
     * One in-flight fabric operation (spin wait, keyed access,
     * write or fetch&inc completion), parked in a free-listed slab
     * so every event and memory callback captures only {this, slot}
     * — the user's completion handler rests here, never nested
     * inside another closure.
     */
    struct OpState
    {
        ProcId who = 0;
        SyncVarId var = 0;
        SyncWord threshold = 0;
        Tick started = 0;
        WaitHandler onWait;
        DoneHandler onDone;
        ValueHandler onValue;
    };

    Addr addrOf(SyncVarId var) const;
    /** Count and trace one poll of the wait in `slot`. */
    const OpState &notePoll(std::uint32_t slot);
    /** Issue the next memory poll of the wait parked in `slot`. */
    void pollLoop(std::uint32_t slot);
    /** A burst poll of the wait in `slot` finished. */
    void
    pollDone(std::uint32_t slot, SyncWord value, Tick done) override
    {
        pollValue(slot, value, done);
    }
    /**
     * A poll completing at tick `done` read `value`; satisfy, park
     * or re-poll.
     */
    void pollValue(std::uint32_t slot, SyncWord value, Tick done);
    /** Queue one re-fetch burst for the parked spinners of `var`. */
    void invalidate(SyncVarId var);
    /**
     * Issue the polls of the oldest queued re-fetch burst as one
     * Memory::burstPoll burst.
     */
    void refetch(std::size_t burst);
    /** Module-side key test + access + increment. */
    void keyedService(std::uint32_t slot);
    /** Re-test keyed requests parked on `key`. */
    void wakeKeyed(SyncVarId key);
    void writeDone(std::uint32_t slot);
    void fetchIncDone(std::uint32_t slot, SyncWord old_value);

    EventQueue &eventq;
    Memory &memory;
    Addr baseAddr;
    Tick pollInterval;
    bool cachedSpin;
    Tracer *tracer;
    unsigned numVars = 0;

    Slab<OpState> ops;

    /** Count a wait (poll loop or keyed) becoming blocked on var. */
    void trackWaitStart(SyncVarId var);
    /** A blocked wait on `var` was satisfied. */
    void trackWaitEnd(SyncVarId var);
    /**
     * `who` parked (cached-spin or keyed) as of tick `from`, which
     * lies ahead of now for a poll settled at its module.
     */
    void trackPark(ProcId who, Tick from);
    /** `who` resumed polling. */
    void trackUnpark(ProcId who);

    /**
     * Parked cached-spin waiters and parked keyed requests. Both
     * wake threshold-free with releaseAll. A cached spinner parks
     * at the rank of the tick its failed poll completed, so a
     * release hands spinners out in the order the polls completed
     * even when a settled poll parked before an earlier one
     * finished; keyed requests park at rank 0, FIFO.
     */
    WaitSet parked;
    WaitSet parkedKeyed;

    /**
     * Spinner slots of the re-fetch bursts waiting for their poll
     * interval, oldest burst first.
     */
    Ring<std::uint32_t> refetchSlots;

    /**
     * Timeline-sampling shadow state, maintained only while a
     * tracer is attached: blocked waiters per variable (touched once
     * per wait; samples are emitted in its iteration order) and, per
     * processor, the tick it counts as parked (as opposed to
     * polling) from, or notParked (touched twice per poll).
     */
    static constexpr Tick notParked = maxTick;
    std::unordered_map<SyncVarId, unsigned> activeWaiters;
    std::vector<Tick> parkedFrom;

    stats::Scalar pollsStat;
    stats::Scalar writesStat;
    stats::Scalar rmwsStat;
    stats::Scalar keyedOpsStat;
    stats::Scalar keyedRetriesStat;
};

/**
 * A posted register write waiting for its bus, one per (writer,
 * variable). Until the bus grants it, a newer write of the same pair
 * overwrites `value` (the coalescing of section 6); the grant closes
 * the entry and latches the value the broadcast carries. Entries are
 * never erased, so bus closures hold a pointer to theirs.
 */
struct PendingWrite
{
    SyncWord value = 0;
    /** Value captured when the broadcast won its bus. */
    SyncWord latched = 0;
    bool valid = false;

    /**
     * Post `v`. @return true if it needs a new bus transaction,
     * false if it coalesced into one still waiting for its grant.
     */
    bool
    post(SyncWord v, bool coalesce)
    {
        bool merged = coalesce && valid;
        value = v;
        valid = true;
        return !merged;
    }

    /** The bus granted: close coalescing, latch the value. */
    void
    latch()
    {
        latched = value;
        valid = false;
    }
};

/**
 * Completion slab, wait set and ready path shared by the
 * register-image fabrics (RegisterSyncFabric and
 * HierarchicalSyncFabric).
 *
 * Every waitGE, local read, posted write and fetch&inc keeps its
 * handler in one slab slot from issue to completion. A blocked wait
 * parks only its slot, keyed by the image word it spins on (a
 * variable, or a (cluster, variable) pair). A completion runs from
 * one event capturing {this, slot}, scheduled at the current tick
 * when the operation becomes ready, so completions run in the order
 * they became ready.
 */
class ImageOps
{
  public:
    /**
     * One handler type serves waits (cycles waited), reads and
     * fetch&incs (the value): Tick and SyncWord are both u64.
     */
    using ResultHandler = SyncFabric::ValueHandler;
    static_assert(std::is_same_v<ResultHandler, SyncFabric::WaitHandler>);

    explicit ImageOps(EventQueue &eq) : eventq(eq) {}

    /** Hold a completion handler until its result is known. */
    std::uint32_t hold(ResultHandler on_done);

    /**
     * A waitGE against image word `word` holding `current`: ready
     * now if it is satisfied, else parked on `word`.
     */
    void wait(ProcId who, SyncVarId word, SyncWord threshold,
              SyncWord current, ResultHandler on_done);

    /**
     * Image word `word` now holds `value`: make every satisfied
     * waiter ready, in arrival order, calling on_wake(who, started)
     * for each first.
     */
    template <typename Fn>
    void
    release(SyncVarId word, SyncWord value, Fn &&on_wake)
    {
        waits.release(word, value, [&](std::uint32_t slot) {
            const Op &op = ops[slot];
            on_wake(op.who, op.started);
            ready(slot, eventq.now() - op.started);
        });
    }

    /** Complete held `slot` with `result` from an event this tick. */
    void ready(std::uint32_t slot, std::uint64_t result);

    /** Complete held `slot` with `result` right now. */
    void run(std::uint32_t slot, std::uint64_t result);

    /** Complete a posted write from an event this tick. */
    void writeDone(SyncFabric::DoneHandler on_done);

    /** Blocked waiters per image word (timeline sampling). */
    const WaitSet &waiting() const { return waits; }

  private:
    struct Op
    {
        ProcId who = 0;
        Tick started = 0;
        std::uint64_t result = 0;
        ResultHandler onResult;
        SyncFabric::DoneHandler onDone;
    };

    /** Run and free `slot`'s handler (whichever one it holds). */
    void fire(std::uint32_t slot);

    EventQueue &eventq;
    Slab<Op> ops;
    WaitSet waits;
};

/**
 * Dedicated synchronization registers with broadcast images.
 *
 * Reads and spin polls hit the processor-local image at no bus
 * cost. Writes arbitrate for the synchronization bus and are
 * broadcast to all images in one bus transaction. A write that is
 * still waiting for the bus when the same processor writes the same
 * variable again is overwritten in place (coalesced), because each
 * later write covers all previous ones — the optimization section 6
 * describes.
 */
class RegisterSyncFabric : public SyncFabric
{
  public:
    /**
     * @param eq        event queue
     * @param sync_bus  dedicated broadcast bus
     * @param capacity  number of hardware registers available
     * @param coalesce  enable pending-write coalescing
     */
    RegisterSyncFabric(EventQueue &eq, Bus &sync_bus, unsigned capacity,
                       bool coalesce = true, Tracer *tracer = nullptr);

    FabricKind kind() const override { return FabricKind::registers; }

    SyncVarId allocate(unsigned count, SyncWord init_value) override;
    unsigned allocated() const override { return numVars; }
    unsigned capacity() const { return capacity_; }

    void waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                WaitHandler on_done) override;
    void read(ProcId who, SyncVarId var, ValueHandler on_done) override;
    void write(ProcId who, SyncVarId var, SyncWord value,
               DoneHandler on_done) override;
    void fetchInc(ProcId who, SyncVarId var,
                  ValueHandler on_done) override;

    SyncWord peek(SyncVarId var) const override;
    void poke(SyncVarId var, SyncWord value) override;

    Tick issueCost() const override { return 1; }

    /** Broadcast transactions that actually used the bus. */
    std::uint64_t broadcasts() const
    {
        return static_cast<std::uint64_t>(broadcastsStat.value());
    }

    /** Writes absorbed into a pending broadcast. */
    std::uint64_t coalescedWrites() const
    {
        return static_cast<std::uint64_t>(coalescedStat.value());
    }

    void sampleTimeline(Tracer &t, Tick at) const override;

    void registerStats(stats::Group &group) const override;

  private:
    void commit(SyncVarId var, SyncWord value);

    EventQueue &eventq;
    Bus &syncBus;
    unsigned capacity_;
    bool coalesceEnabled;
    Tracer *tracer;
    unsigned numVars = 0;

    std::vector<SyncWord> values;
    /** Handlers and waiters; waiters park on their variable. */
    ImageOps ops;
    /** Pending (not yet granted) write per (proc, var). */
    std::unordered_map<std::uint64_t, PendingWrite> pendingWrites;

    stats::Scalar broadcastsStat;
    stats::Scalar coalescedStat;
    stats::Scalar localReadsStat;
    stats::Scalar wakeupsStat;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_SYNC_FABRIC_HH
