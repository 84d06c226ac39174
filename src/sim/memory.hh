/**
 * @file
 * Interleaved shared-memory model.
 *
 * Addresses are word-interleaved across modules. Each module
 * services one request at a time, so concentrated traffic (the
 * "hot spot" of counter-based barriers, section 6 and Example 4)
 * shows up as module queueing delay. Requests reach a module over
 * the shared data bus.
 *
 * Word values are stored so that memory-resident synchronization
 * variables (keys, full/empty bits, statement counters, shared
 * iteration counters) behave functionally, with atomic
 * read-modify-write performed at the module as on the NYU
 * Ultracomputer or Cedar.
 */

#ifndef PSYNC_SIM_MEMORY_HH
#define PSYNC_SIM_MEMORY_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/bus.hh"
#include "sim/event_queue.hh"
#include "sim/interconnect.hh"
#include "sim/stats.hh"
#include "sim/tracing.hh"
#include "sim/types.hh"
#include "sim/wait_set.hh"

namespace psync {
namespace sim {

/** Configuration of the shared memory. */
struct MemoryConfig
{
    /** Number of independent memory modules. */
    unsigned numModules = 8;
    /** Cycles a module takes to service one request. */
    Tick serviceCycles = 4;
    /** Word size used for interleaving, in bytes. */
    Addr wordBytes = 8;
};

/** The interleaved shared memory behind the data bus. */
class Memory : private BurstSink
{
  public:
    /** Completion callback for plain accesses. */
    using AccessHandler = InlineFunction<void()>;
    /** Completion callback carrying a loaded or pre-RMW value. */
    using ValueHandler = InlineFunction<void(SyncWord value)>;
    /** Value transformation applied atomically at the module. */
    using Modify = InlineFunction<SyncWord(SyncWord old_value)>;
    /** Spin-poll callback: the value read and its completion tick. */
    using PollHandler = InlineFunction<void(SyncWord value, Tick done)>;

    /** Receiver of the polls issued with burstPoll(). */
    class PollSink
    {
      public:
        /**
         * Poll `tag` read `value`, and its read completes at `done`:
         * now, or later when the poll settled at its module.
         */
        virtual void pollDone(std::uint32_t tag, SyncWord value,
                              Tick done) = 0;

      protected:
        ~PollSink() = default;
    };

    /**
     * Store-horizon table size: direct-mapped by word index, so two
     * words sharing a slot share the later horizon. That only costs
     * a poll the settle shortcut, never exactness.
     */
    static constexpr unsigned horizonSlots = 1024;

    Memory(EventQueue &eq, Interconnect &data_net,
           const MemoryConfig &cfg, Tracer *tracer = nullptr);

    /** Which module services an address. */
    unsigned
    moduleOf(Addr addr) const
    {
        return static_cast<unsigned>((addr / config.wordBytes) %
                                     config.numModules);
    }

    /** Read a word; handler receives the value at completion. */
    void read(ProcId who, Addr addr, ValueHandler on_done);

    /**
     * Read a word when only completion timing matters (cache fills
     * that model no data). Same cost as read(); avoids a value
     * adapter closure on the caller's side.
     */
    void readDiscard(ProcId who, Addr addr, AccessHandler on_done);

    /**
     * A spin poll waiting for `value >= threshold`: a read whose
     * handler also gets the read's completion tick. Modules are
     * FIFO, so when the poll reaches its module after every queued
     * request that can change the word has completed (the word's
     * store horizon), the word holds on arrival exactly the value
     * the read returns at completion. If that value fails the
     * threshold, the poll settles there: the handler runs on
     * arrival and no completion event is scheduled. Otherwise the
     * handler runs at completion, as read()'s would.
     */
    void poll(ProcId who, Addr addr, SyncWord threshold,
              PollHandler on_done);

    /**
     * One poll of a re-fetch burst: same-tick polls issued back to
     * back, as poll() would issue them, reporting to `sink` under
     * `tag`. Over a data bus the burst takes no request slot and no
     * event per poll: the bus grants it in closed form, and each
     * poll arrives at its module from the bus's step, where it
     * settles exactly as poll()'s would. A poll that cannot settle
     * (its threshold is met, or a store queued ahead of it at the
     * module completes after it arrives) becomes a real request with
     * its own completion event. Over any other interconnect this is
     * poll().
     */
    void burstPoll(ProcId who, Addr addr, SyncWord threshold,
                   PollSink &sink, std::uint32_t tag);

    /** Write a word; handler runs at completion. */
    void write(ProcId who, Addr addr, SyncWord value,
               AccessHandler on_done);

    /**
     * Atomic read-modify-write at the module. The handler receives
     * the value *before* modification (fetch&add semantics).
     */
    void rmw(ProcId who, Addr addr, Modify modify, ValueHandler on_done);

    /**
     * Occupy `addr`'s module for one service without crossing the
     * interconnect — the module-local retry path of a Cedar-style
     * synchronization processor re-testing a parked keyed request.
     */
    void serviceAtModule(Addr addr, AccessHandler on_done);

    /** Directly set a word without simulating time (setup only). */
    void poke(Addr addr, SyncWord value) { words[addr] = value; }

    /** Directly inspect a word without simulating time. */
    SyncWord
    peek(Addr addr) const
    {
        auto it = words.find(addr);
        return it == words.end() ? 0 : it->second;
    }

    std::uint64_t totalAccesses() const
    {
        return static_cast<std::uint64_t>(accessesStat.total());
    }

    /** Accesses to the single busiest module. */
    std::uint64_t hottestModuleAccesses() const
    {
        return static_cast<std::uint64_t>(accessesStat.maxValue());
    }

    /**
     * Hot-spot ratio: busiest module's share of accesses relative
     * to a perfectly uniform spread (1.0 = uniform).
     */
    double hotSpotRatio() const;

    /** Polls settled at their module without a completion event. */
    std::uint64_t settledPolls() const
    {
        return static_cast<std::uint64_t>(settledPollsStat.value());
    }

    /** Total cycles requests waited for a busy module. */
    Tick moduleQueueDelay() const
    {
        return static_cast<Tick>(queueDelayStat.value());
    }

    /**
     * Emit per-module timeline samples to `t`: cumulative serviced
     * requests and the instantaneous backlog (service-queue depth in
     * requests, from the module's reserved-until horizon).
     */
    void sampleTimeline(Tracer &t, Tick at) const;

    /** Register the memory statistics with a walker group. */
    void registerStats(stats::Group &group) const;

  private:
    /**
     * One in-flight request, parked in a free-listed slab so the
     * interconnect grant and module completion events capture only
     * {this, slot}: the user's handler rests here instead of being
     * re-wrapped (and re-allocated) at every hop.
     */
    struct Request
    {
        enum class Kind : std::uint8_t
        {
            read,
            readDiscard,
            poll,
            write,
            rmw,
        };

        Kind kind = Kind::read;
        ProcId who = 0;
        /** Servicing module, computed once at issue. */
        unsigned module = 0;
        /** The word's store-horizon slot. */
        unsigned horizon = 0;
        Addr addr = 0;
        /** Value to write, or a poll's threshold. */
        SyncWord value = 0;
        Tick serviceCycles = 0;
        Modify modify;
        ValueHandler onValue;
        AccessHandler onAccess;
        PollHandler onPoll;
    };

    /** A burstPoll() waiting for its bus grant or arrival. */
    struct BurstPoll
    {
        ProcId who;
        unsigned module;
        unsigned horizon;
        Addr addr;
        SyncWord threshold;
        PollSink *sink;
        std::uint32_t tag;
    };

    /**
     * Take a request slot for `kind` on `addr`, resolving its module
     * and store-horizon slot once.
     */
    std::uint32_t open(Request::Kind kind, ProcId who, Addr addr,
                       Tick service_cycles);
    /** Send request `slot` over the interconnect to its module. */
    void service(std::uint32_t slot);
    /** Interconnect delivered the request to its module. */
    void arrived(std::uint32_t slot);
    /** Module service finished; run the user's handler. */
    void complete(std::uint32_t slot);
    /**
     * A request of `who` needing `service_cycles` arrived at `module`
     * now: queue it there. @return its completion tick.
     */
    Tick occupy(unsigned module, ProcId who, Tick service_cycles);
    /**
     * True if a poll arriving now, reading `value` against
     * `threshold`, settles: every store queued ahead of it at the
     * module (its word's store horizon) has completed, so the word
     * holds now what the read returns at completion, and that fails.
     */
    bool
    settles(unsigned horizon, SyncWord value, SyncWord threshold) const
    {
        return storeHorizon[horizon] < eventq.now() && value < threshold;
    }

    ProcId burstHead() const override { return burstPolls.front().who; }
    void burstDelivered() override;

    EventQueue &eventq;
    Interconnect &dataNet;
    /** dataNet when it is a bus (bursts reserve it), else null. */
    Bus *dataBus;
    MemoryConfig config;
    Tracer *tracer;

    std::vector<Tick> moduleFreeAt;
    /**
     * Per-word store horizon: the latest completion tick of any
     * request queued at the module that can change the word (writes,
     * rmws, plain reads, whose handlers may poke it, and
     * module-local services). Raised with max, never lowered.
     */
    std::vector<Tick> storeHorizon;
    std::unordered_map<Addr, SyncWord> words;
    Slab<Request> requests;
    /** Burst polls on the data bus, oldest (next to arrive) first. */
    std::deque<BurstPoll> burstPolls;

    stats::Vector accessesStat;
    stats::Scalar queueDelayStat;
    stats::Scalar readsStat;
    stats::Scalar writesStat;
    stats::Scalar rmwsStat;
    stats::Scalar settledPollsStat;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_MEMORY_HH
