/**
 * @file
 * A FIFO-arbitrated shared bus.
 *
 * Both the main data bus and the dedicated synchronization bus of
 * section 6 are instances of this model: requesters queue, each
 * granted transaction occupies the bus for a fixed number of
 * cycles, and occupancy/queue-delay statistics are collected so the
 * benches can report traffic the way the paper argues about it.
 */

#ifndef PSYNC_SIM_BUS_HH
#define PSYNC_SIM_BUS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/event_queue.hh"
#include "sim/interconnect.hh"
#include "sim/stats.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"
#include "sim/wait_set.hh"

namespace psync {
namespace sim {

/**
 * The far side of the burst transactions a Bus carries (see
 * Bus::transactBurst). The bus grants and delivers them in FIFO
 * order, one at a time, so the sink only ever deals with its oldest
 * undelivered one.
 */
class BurstSink
{
  public:
    /** Requester of the oldest undelivered burst transaction. */
    virtual ProcId burstHead() const = 0;

    /** The oldest undelivered burst transaction arrived just now. */
    virtual void burstDelivered() = 0;

  protected:
    ~BurstSink() = default;
};

/** A single shared bus with FIFO arbitration. */
class Bus : public Interconnect, private EventQueue::Stepper
{
  public:
    /**
     * @param eq            event queue driving the simulation
     * @param bus_name      name used in statistics output
     * @param cycles_per_txn bus occupancy of one transaction
     * @param tracer        optional event tracer (may be null)
     */
    Bus(EventQueue &eq, std::string bus_name, Tick cycles_per_txn,
        Tracer *tracer = nullptr);

    /**
     * Queue a transaction. `on_done` runs when the transaction has
     * finished driving the bus.
     */
    void transact(ProcId who, GrantHandler on_done) override;

    /**
     * Queue a transaction with a grant-time hook: `on_grant` runs
     * the moment the transaction wins arbitration and starts
     * driving the bus (used for write coalescing, which is only
     * legal before the bus is gained — section 6), `on_done` when
     * it finishes.
     */
    void transact(ProcId who, GrantHandler on_grant,
                  GrantHandler on_done) override;

    /**
     * Queue one transaction of a burst delivered to `sink`. A FIFO
     * bus with a fixed transaction time knows every grant of a
     * burst when it is issued: back-to-back grants g0 + i*c. So
     * same-tick burst transactions share one queue entry and a
     * count, and each grant arms the queue's closed-form step
     * instead of scheduling a completion event. The step delivers
     * the transaction and grants the next, at exactly the (tick,
     * seq) position the completion event would have had, so every
     * statistic and every later request sees what the per-request
     * path would have left. An event queue arms one step at a time,
     * so only one bus per queue may carry bursts (the data bus).
     */
    void transactBurst(BurstSink &sink);

    /** Cycles one transaction occupies the bus. */
    Tick cyclesPerTransaction() const { return cyclesPerTxn; }

    /** Number of completed transactions. */
    std::uint64_t transactions() const override
    {
        return static_cast<std::uint64_t>(numTransactions.value());
    }

    /** Total cycles the bus was busy. */
    Tick busyCycles() const
    {
        return static_cast<Tick>(busyCyclesStat.value());
    }

    /** Total cycles transactions spent waiting for a grant. */
    Tick queueDelay() const override
    {
        return static_cast<Tick>(queueDelayStat.value());
    }

    /** Largest queue depth observed. */
    std::uint64_t maxQueueDepth() const
    {
        return static_cast<std::uint64_t>(maxQueueStat.value());
    }

    /** Fraction of time busy over [0, end_tick]. */
    double utilization(Tick end_tick) const override;

    /**
     * Emit one timeline sample pair (cumulative busy cycles,
     * instantaneous queue depth) to `t`, tagged with this bus's
     * stream index (0 = data bus, 1 = sync bus).
     */
    void sampleTimeline(Tracer &t, std::uint32_t index, Tick at) const;

    /** Register this bus's statistics with a walker group. */
    void registerStats(stats::Group &group) const override;

    const std::string &name() const override { return name_; }

  private:
    struct Request
    {
        ProcId who = 0;
        Tick issued = 0;
        /** Receiver of a burst entry's transactions, else null. */
        BurstSink *burst = nullptr;
        /** Ungranted transactions of a burst entry. */
        std::uint32_t count = 1;
        GrantHandler onGrant;
        GrantHandler onDone;
    };

    /** A transaction joined the queue: count it, grant if idle. */
    void queued();
    void grantNext();
    /** The in-flight burst transaction is done: deliver, grant. */
    void step() override;

    EventQueue &eventq;
    std::string name_;
    Tick cyclesPerTxn;
    Tracer *tracer;
    Tick freeAt = 0;
    bool granting = false;
    /**
     * Queued and in-flight requests. Handlers stay in their slot
     * until they run; the FIFO and the done event carry the slot.
     */
    Slab<Request> requests;
    /** Slots of requests waiting for a grant, FIFO. */
    std::deque<std::uint32_t> pending;
    /** Transactions waiting for a grant (bursts count each one). */
    std::uint64_t waiting = 0;
    /** Sink of the in-flight burst transaction, if one is. */
    BurstSink *stepSink = nullptr;

    stats::Scalar numTransactions;
    stats::Scalar busyCyclesStat;
    stats::Scalar queueDelayStat;
    stats::Gauge maxQueueStat;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_BUS_HH
