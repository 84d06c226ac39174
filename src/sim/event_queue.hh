/**
 * @file
 * Deterministic discrete-event simulation core.
 *
 * Events are closures scheduled at absolute ticks. Ties are broken
 * by insertion order (a monotonically increasing sequence number),
 * which makes every simulation bit-for-bit reproducible regardless
 * of host scheduling.
 *
 * Two interchangeable cores implement that contract:
 *
 *  - `calendar` (default): a bucketed near-future calendar ring for
 *    the short-delta schedules that dominate simulation (issue
 *    costs, poll intervals, bus slots), falling back to the far
 *    heap for everything past the ring window. Handlers use a
 *    small-buffer-optimized callable, so the steady state does zero
 *    heap allocations.
 *  - `heap`: the classic single binary heap (the far heap alone).
 *    Kept as the reference implementation; the equivalence suite
 *    asserts both cores yield bit-identical simulations.
 *
 * Every pending handler waits in one slab slot from schedule() until
 * it runs; the ring buckets and the far heap hold only
 * {when, seq, slot} keys, so neither ever moves a handler.
 *
 * Both cores execute the same (when, seq) order, so results never
 * depend on which one runs.
 *
 * A component that knows a whole chain of future events in closed
 * form (the data bus granting a reserved spin-poll burst back to
 * back) arms a Stepper instead of scheduling them. An armed step
 * takes the (when, seq) key an event scheduled by the same call
 * would have taken and runs exactly where that event would have
 * run, but it holds no handler slot, never enters the ring or the
 * heap, and does not count as an executed event. A running step
 * whose successor would run before every pending event, and within
 * the current run's limit, takes that step's (when, seq) position
 * in place (stepInline) and runs it itself, without arming.
 */

#ifndef PSYNC_SIM_EVENT_QUEUE_HH
#define PSYNC_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"
#include "sim/wait_set.hh"

namespace psync {
namespace sim {

/** Which event-core implementation drives a simulation. */
enum class EventCoreKind
{
    /** Calendar ring + far-future heap (the fast default). */
    calendar,
    /** Single binary heap (reference for equivalence tests). */
    heap,
};

/** Printable event-core name. */
const char *eventCoreKindName(EventCoreKind kind);

/** The global event queue driving one simulation. */
class EventQueue
{
  public:
    using Handler = InlineFunction<void()>;

    /** A chain of closed-form steps, one armed at a time. */
    class Stepper
    {
      public:
        /** Run the step armed for now(); it may arm the next one. */
        virtual void step() = 0;

      protected:
        ~Stepper() = default;
    };

    explicit EventQueue(EventCoreKind core = EventCoreKind::calendar)
        : core_(core)
    {
    }

    ~EventQueue() { clear(); }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Which core this queue runs on. */
    EventCoreKind core() const { return core_; }

    /** Current simulated time. */
    Tick now() const { return curTick_; }

    /** Total events executed so far (for diagnostics). */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Steps armed so far; inline steps are not counted. */
    std::uint64_t stepsArmed() const { return armed_; }

    /** Events whose handler capture spilled to the heap. */
    std::uint64_t heapFallbackEvents() const { return heapFallbacks_; }

    /**
     * Schedule a handler at an absolute tick.
     * @pre when >= now(), except during the pre-run setup phase.
     */
    void schedule(Tick when, Handler handler);

    /** Schedule a handler `delta` ticks from now. */
    void
    scheduleIn(Tick delta, Handler handler)
    {
        schedule(curTick_ + delta, std::move(handler));
    }

    /**
     * Arm `stepper` to step at `when`, ordered as an event scheduled
     * now would be. At most one step is armed per queue.
     * @pre when >= now() and no step is armed.
     */
    void arm(Stepper &stepper, Tick when);

    /**
     * Called by a running step about to arm its successor at
     * `when`. If that step would run before every pending event
     * (an event at `when` itself was scheduled earlier, so it runs
     * first) and within the current run's limit, move now() to
     * `when`, take the seq arm() would have taken and return true:
     * the caller runs the successor in place. Otherwise return
     * false, and the caller arms it.
     * @pre called from Stepper::step, with no step armed.
     */
    bool
    stepInline(Tick when)
    {
        if (when > runLimit_ || when >= nextPendingTick())
            return false;
        curTick_ = when;
        ++nextSeq_;
        return true;
    }

    /**
     * Run until the queue drains or `limit` is reached.
     * @return true if the queue drained; false if the tick limit was
     *         hit first (usually a deadlock or livelock in the
     *         simulated synchronization).
     */
    bool run(Tick limit = maxTick);

    /**
     * Drop every pending event without executing it. A limit-hit
     * run leaves undrained handlers whose captures point into the
     * machine being torn down; Machine::~Machine calls this before
     * any component is destroyed so those captures never outlive
     * their targets.
     */
    void clear();

    /** True if no events and no step are pending. */
    bool
    empty() const
    {
        return ringCount_ == 0 && far_.empty() && !stepper_;
    }

    /** Number of pending events (diagnostics). */
    std::size_t pendingEvents() const { return ringCount_ + far_.size(); }

    /** Pending events in the calendar ring (0 on the heap core). */
    std::size_t ringEvents() const { return ringCount_; }

    /** Non-empty calendar buckets (0 on the heap core). */
    std::size_t occupiedBuckets() const;

    /** Events parked in the far-future heap. */
    std::size_t farEvents() const { return far_.size(); }

  private:
    /**
     * Ring window, in ticks. Every pending event with
     * when - now() < ringSize lives in bucket (when % ringSize);
     * the window invariant guarantees each bucket holds at most one
     * tick's events at a time.
     */
    static constexpr unsigned ringBits = 10;
    static constexpr unsigned ringSize = 1u << ringBits;
    static constexpr Tick ringMask = ringSize - 1;

    bool runCalendar(Tick limit);
    bool runHeap(Tick limit);

    /** File a key into its bucket, keeping the bucket in seq order. */
    void pushRing(SlotKey key);

    /** Move far events entering the ring window into their buckets. */
    void migrateFar();

    /** Run the handler `key` names at its tick, freeing its slot. */
    void fire(SlotKey key);

    /** Run the armed step at its tick. */
    void runStep();

    /** True if the armed step precedes event `key`. */
    bool
    stepBefore(const SlotKey &key) const
    {
        return stepWhen_ < key.rank ||
               (stepWhen_ == key.rank && stepSeq_ < key.seq);
    }

    /** Execute every event in `tick`'s bucket, in seq order. */
    void drainBucket(Tick tick);

    /**
     * Earliest tick with a ring event (maxTick when the ring is
     * empty), cached until the earliest bucket drains.
     */
    Tick
    nextRingTick()
    {
        if (ringNext_ == staleTick)
            ringNext_ = scanRing();
        return ringNext_;
    }

    /** Scan the occupancy bitmap for the earliest ring tick. */
    Tick scanRing() const;

    /** Earliest tick of any pending event (maxTick when none). */
    Tick
    nextPendingTick()
    {
        Tick far_next = far_.empty() ? maxTick : far_.top().rank;
        return std::min(nextRingTick(), far_next);
    }

    EventCoreKind core_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t armed_ = 0;
    /** Limit of the run in progress: no step may pass it. */
    Tick runLimit_ = maxTick;
    std::uint64_t heapFallbacks_ = 0;

    /** Every pending handler, named by the keys below. */
    Slab<Handler> handlers_;

    /** Calendar buckets; vectors keep their capacity across ticks. */
    std::vector<std::vector<SlotKey>> ring_{ringSize};
    /** One bit per non-empty bucket, for fast next-tick scans. */
    std::array<std::uint64_t, ringSize / 64> occupied_{};
    std::size_t ringCount_ = 0;
    /** nextRingTick()'s cache; staleTick until rescanned. */
    static constexpr Tick staleTick = maxTick - 1;
    Tick ringNext_ = maxTick;

    /**
     * Far-future events as a min-heap on (when, seq). The heap core
     * stores everything here.
     */
    KeyHeap far_;

    /** The armed step (null when none) and its (when, seq) key. */
    Stepper *stepper_ = nullptr;
    Tick stepWhen_ = maxTick;
    std::uint64_t stepSeq_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_EVENT_QUEUE_HH
