/**
 * @file Interleaved modules, queueing, RMW atomicity, hot spots, and
 * spin-poll bursts reserved on the data bus.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/tracing.hh"
#include "sim/bus.hh"
#include "sim/memory.hh"
#include "sim/omega_network.hh"

using namespace psync::sim;

namespace {

struct Rig
{
    EventQueue eq;
    Bus bus;
    Memory mem;

    explicit Rig(const MemoryConfig &cfg = MemoryConfig{})
        : bus(eq, "data_bus", 1), mem(eq, bus, cfg)
    {}
};

} // namespace

TEST(MemoryTest, ModuleInterleaving)
{
    Rig rig;
    EXPECT_EQ(rig.mem.moduleOf(0), 0u);
    EXPECT_EQ(rig.mem.moduleOf(8), 1u);
    EXPECT_EQ(rig.mem.moduleOf(8 * 8), 0u);
    EXPECT_EQ(rig.mem.moduleOf(8 * 9), 1u);
}

TEST(MemoryTest, ReadReturnsWrittenValue)
{
    Rig rig;
    SyncWord got = 0;
    rig.eq.schedule(0, [&]() {
        rig.mem.write(0, 64, 42, [&]() {
            rig.mem.read(0, 64, [&](SyncWord v) { got = v; });
        });
    });
    rig.eq.run();
    EXPECT_EQ(got, 42u);
}

TEST(MemoryTest, AccessLatencyBusPlusService)
{
    Rig rig;
    Tick done = 0;
    rig.eq.schedule(0, [&]() {
        rig.mem.read(0, 0, [&](SyncWord) { done = rig.eq.now(); });
    });
    rig.eq.run();
    // 1 bus cycle + 4 service cycles.
    EXPECT_EQ(done, 5u);
}

TEST(MemoryTest, SameModuleQueues)
{
    MemoryConfig cfg;
    cfg.numModules = 4;
    cfg.serviceCycles = 10;
    Rig rig(cfg);
    std::vector<Tick> done;
    rig.eq.schedule(0, [&]() {
        // Same module (addr 0 and addr 4*8*... module stride).
        rig.mem.read(0, 0, [&](SyncWord) {
            done.push_back(rig.eq.now());
        });
        rig.mem.read(1, 8 * 4, [&](SyncWord) {
            done.push_back(rig.eq.now());
        });
    });
    rig.eq.run();
    ASSERT_EQ(done.size(), 2u);
    // Second request arrives one bus cycle later but must wait for
    // the module: 1+10=11, then 2+... starts at 11, ends 21.
    EXPECT_EQ(done[0], 11u);
    EXPECT_EQ(done[1], 21u);
    EXPECT_GT(rig.mem.moduleQueueDelay(), 0u);
}

TEST(MemoryTest, DifferentModulesOverlap)
{
    MemoryConfig cfg;
    cfg.numModules = 4;
    cfg.serviceCycles = 10;
    Rig rig(cfg);
    std::vector<Tick> done;
    rig.eq.schedule(0, [&]() {
        rig.mem.read(0, 0, [&](SyncWord) {
            done.push_back(rig.eq.now());
        });
        rig.mem.read(1, 8, [&](SyncWord) {
            done.push_back(rig.eq.now());
        });
    });
    rig.eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 11u);
    EXPECT_EQ(done[1], 12u); // only bus serialization
}

TEST(MemoryTest, RmwIsAtomicAndReturnsOldValue)
{
    Rig rig;
    std::vector<SyncWord> olds;
    rig.eq.schedule(0, [&]() {
        for (int k = 0; k < 5; ++k) {
            rig.mem.rmw(0, 16,
                        [](SyncWord v) { return v + 1; },
                        [&](SyncWord old_v) { olds.push_back(old_v); });
        }
    });
    rig.eq.run();
    ASSERT_EQ(olds.size(), 5u);
    for (SyncWord k = 0; k < 5; ++k)
        EXPECT_EQ(olds[k], k);
    EXPECT_EQ(rig.mem.peek(16), 5u);
}

TEST(MemoryTest, HotSpotRatioDetectsConcentration)
{
    MemoryConfig cfg;
    cfg.numModules = 8;
    Rig rig(cfg);
    rig.eq.schedule(0, [&]() {
        for (int k = 0; k < 16; ++k)
            rig.mem.read(0, 0, [](SyncWord) {}); // all to module 0
    });
    rig.eq.run();
    EXPECT_DOUBLE_EQ(rig.mem.hotSpotRatio(), 8.0);

    // Uniform traffic has ratio 1.
    Rig uniform(cfg);
    uniform.eq.schedule(0, [&]() {
        for (int k = 0; k < 16; ++k)
            uniform.mem.read(0, static_cast<Addr>(k) * 8,
                             [](SyncWord) {});
    });
    uniform.eq.run();
    EXPECT_DOUBLE_EQ(uniform.mem.hotSpotRatio(), 1.0);
}

TEST(MemoryTest, PokePeekBypassTiming)
{
    Rig rig;
    rig.mem.poke(123 * 8, 77);
    EXPECT_EQ(rig.mem.peek(123 * 8), 77u);
    EXPECT_EQ(rig.mem.totalAccesses(), 0u);
}

namespace {

/** Outcome of one poll issued through Memory::poll. */
struct PollProbe
{
    bool ran = false;
    /** Tick the handler ran at. */
    Tick at = 0;
    /** Completion tick the handler was given. */
    Tick done = 0;
    SyncWord value = 0;

    /** Ran on arrival, ahead of its completion tick. */
    bool settled() const { return ran && at < done; }
};

/** Poll `addr` for a value of at least `threshold`. */
void
pollInto(Rig &rig, Addr addr, SyncWord threshold, PollProbe &probe)
{
    rig.mem.poll(0, addr, threshold,
                 [&rig, &probe](SyncWord value, Tick done) {
        probe.ran = true;
        probe.at = rig.eq.now();
        probe.done = done;
        probe.value = value;
    });
}

} // namespace

TEST(MemoryTest, SettledPollSchedulesNoEvent)
{
    // Same timing as a plain read, minus the completion event.
    Rig read_rig;
    read_rig.eq.schedule(10, [&]() {
        read_rig.mem.read(0, 0, [](SyncWord) {});
    });
    read_rig.eq.run();

    Rig rig;
    rig.mem.poke(0, 3);
    PollProbe probe;
    rig.eq.schedule(10, [&]() { pollInto(rig, 0, 4, probe); });
    rig.eq.run();
    EXPECT_TRUE(probe.settled());
    EXPECT_EQ(probe.value, 3u);
    // 1 bus cycle to arrive at 11, then 4 service cycles.
    EXPECT_EQ(probe.at, 11u);
    EXPECT_EQ(probe.done, 15u);
    EXPECT_EQ(rig.eq.eventsExecuted() + 1,
              read_rig.eq.eventsExecuted());
    EXPECT_EQ(rig.mem.settledPolls(), 1u);
    EXPECT_EQ(rig.mem.totalAccesses(), 1u);
}

TEST(MemoryTest, SatisfiedPollTakesTheCompletionPath)
{
    Rig rig;
    rig.mem.poke(0, 9);
    PollProbe probe;
    rig.eq.schedule(10, [&]() { pollInto(rig, 0, 9, probe); });
    rig.eq.run();
    EXPECT_TRUE(probe.ran);
    EXPECT_FALSE(probe.settled());
    EXPECT_EQ(probe.value, 9u);
    EXPECT_EQ(probe.at, 15u);
    EXPECT_EQ(probe.done, 15u);
    EXPECT_EQ(rig.mem.settledPolls(), 0u);
}

TEST(MemoryTest, StoreAheadOfPollForcesCompletionPath)
{
    Rig rig;
    PollProbe probe;
    rig.eq.schedule(10, [&]() {
        // The write reaches the module first and completes after
        // the poll arrives: the poll must read the written value
        // at its own completion, even though it still fails.
        rig.mem.write(0, 0, 5, []() {});
        pollInto(rig, 0, 6, probe);
    });
    rig.eq.run();
    EXPECT_TRUE(probe.ran);
    EXPECT_FALSE(probe.settled());
    EXPECT_EQ(probe.value, 5u);
    EXPECT_EQ(probe.at, 19u); // write [11, 15), poll [15, 19)
}

TEST(MemoryTest, RmwReadAndModuleServiceCountAsStores)
{
    // Each request ahead of the poll at its module can change the
    // word (a read's handler may poke it); only a readDiscard
    // cannot.
    enum class Ahead { rmw, read, atModule, readDiscard };
    for (Ahead ahead : {Ahead::rmw, Ahead::read, Ahead::atModule,
                        Ahead::readDiscard}) {
        Rig rig;
        PollProbe probe;
        rig.eq.schedule(10, [&]() {
            switch (ahead) {
              case Ahead::rmw:
                rig.mem.rmw(0, 0, [](SyncWord v) { return v + 1; },
                            [](SyncWord) {});
                break;
              case Ahead::read:
                rig.mem.read(0, 0, [](SyncWord) {});
                break;
              case Ahead::atModule:
                rig.mem.serviceAtModule(0, []() {});
                break;
              case Ahead::readDiscard:
                rig.mem.readDiscard(0, 0, []() {});
                break;
            }
            pollInto(rig, 0, 100, probe);
        });
        rig.eq.run();
        EXPECT_TRUE(probe.ran);
        EXPECT_EQ(probe.settled(), ahead == Ahead::readDiscard)
            << static_cast<int>(ahead);
    }
}

TEST(MemoryTest, PollAfterStoreCompletesSettles)
{
    Rig rig;
    PollProbe probe;
    rig.eq.schedule(10, [&]() { rig.mem.write(0, 0, 5, []() {}); });
    // The write completes at 15; a poll arriving at 21 settles and
    // sees its value.
    rig.eq.schedule(20, [&]() { pollInto(rig, 0, 6, probe); });
    rig.eq.run();
    EXPECT_TRUE(probe.settled());
    EXPECT_EQ(probe.value, 5u);
    EXPECT_EQ(probe.done, 25u);
}

TEST(MemoryTest, AliasedHorizonSlotIsConservative)
{
    // Words 0 and horizonSlots share a horizon slot but, with three
    // modules, not a module: the store to the alias is queued
    // nowhere near the poll, yet it still denies the shortcut, and
    // the poll reads its own word's value at completion.
    MemoryConfig cfg;
    cfg.numModules = 3;
    Rig rig(cfg);
    Addr alias = Addr(Memory::horizonSlots) * cfg.wordBytes;
    ASSERT_NE(rig.mem.moduleOf(alias), rig.mem.moduleOf(0));
    rig.mem.poke(0, 4);
    PollProbe probe;
    rig.eq.schedule(10, [&]() {
        rig.mem.write(0, alias, 7, []() {});
        pollInto(rig, 0, 5, probe);
    });
    rig.eq.run();
    EXPECT_TRUE(probe.ran);
    EXPECT_FALSE(probe.settled());
    EXPECT_EQ(probe.value, 4u);
    EXPECT_EQ(probe.at, 16u); // own module: [12, 16)
}

namespace {

/**
 * A memory whose spin polls go out either as one burst
 * (Memory::burstPoll) or one request at a time (Memory::poll). It
 * logs every handler as "@tick ..." and records every trace call, so
 * two runs of one scenario can be compared line by line.
 */
struct BurstRig : Memory::PollSink
{
    EventQueue eq;
    psync::core::TraceRecorder trace;
    std::unique_ptr<Interconnect> net;
    Memory mem;
    bool burst;
    std::vector<std::string> log;

    static std::unique_ptr<Interconnect>
    makeNet(EventQueue &eq, Tick bus_cycles, Tracer *tracer)
    {
        if (bus_cycles == 0) {
            return std::make_unique<OmegaNetwork>(eq, "data_net", 8, 3,
                                                  1, 1);
        }
        return std::make_unique<Bus>(eq, "data_bus", bus_cycles, tracer);
    }

    /** `bus_cycles` 0 puts an omega network in front of memory. */
    BurstRig(bool as_burst, Tick bus_cycles)
        : net(makeNet(eq, bus_cycles, &trace)),
          mem(eq, *net, MemoryConfig{}, &trace),
          burst(as_burst)
    {}

    void
    note(const std::string &what)
    {
        log.push_back("@" + std::to_string(eq.now()) + " " + what);
    }

    void
    pollDone(std::uint32_t tag, SyncWord value, Tick done) override
    {
        note("poll " + std::to_string(tag) + " read " +
             std::to_string(value) + " done " + std::to_string(done));
    }

    /** One spinner's poll; the tag names it in the log. */
    void
    poll(Addr addr, SyncWord threshold, std::uint32_t tag)
    {
        auto who = static_cast<ProcId>(tag % 8);
        if (burst) {
            mem.burstPoll(who, addr, threshold, *this, tag);
            return;
        }
        mem.poll(who, addr, threshold, [this, tag](SyncWord v, Tick d) {
            pollDone(tag, v, d);
        });
    }

    /** Polls tagged first..first+n-1 on `addr`, thresholds from `t`. */
    void
    polls(Addr addr, std::uint32_t first, std::uint32_t n, SyncWord t)
    {
        for (std::uint32_t k = 0; k < n; ++k)
            poll(addr, t + k, first + k);
    }

    /** A plain read that logs its completion. */
    void
    read(ProcId who, Addr addr)
    {
        mem.read(who, addr, [this, who](SyncWord v) {
            note("read proc " + std::to_string(who) + " value " +
                 std::to_string(v));
        });
    }

    /** Timeline samples of the bus and modules at this instant. */
    void
    sample()
    {
        if (auto *bus = dynamic_cast<Bus *>(net.get()))
            bus->sampleTimeline(trace, 0, eq.now());
        mem.sampleTimeline(trace, eq.now());
    }

    /** Statistics, then every trace record, one per line. */
    std::string
    observed() const
    {
        stats::Group group;
        net->registerStats(group);
        mem.registerStats(group);
        std::ostringstream os;
        group.dump(os);
        for (const auto &r : trace.resources())
            os << r.resource << r.index << " " << r.who << " ["
               << r.start << ", " << r.end << ")\n";
        for (const auto &c : trace.counters())
            os << c.counter << " @" << c.at << " " << c.value << "\n";
        for (const auto &s : trace.samples())
            os << "sample " << static_cast<int>(s.stream) << "/"
               << s.index << " @" << s.at << " " << s.value << "\n";
        return os.str();
    }
};

/**
 * Run `scenario` with its polls as a burst and one by one: the
 * handler log (ticks and order), every statistic and every trace
 * record must match. Over a bus the burst runs fewer events; over an
 * omega network, exactly as many. @return the polls that settled.
 */
template <typename Scenario>
std::uint64_t
expectBurstMatchesPolls(Tick bus_cycles, Scenario scenario)
{
    BurstRig one(false, bus_cycles);
    BurstRig burst(true, bus_cycles);
    scenario(one);
    scenario(burst);
    EXPECT_TRUE(one.eq.run());
    EXPECT_TRUE(burst.eq.run());
    EXPECT_FALSE(burst.log.empty());
    EXPECT_EQ(burst.log, one.log);
    EXPECT_EQ(burst.observed(), one.observed());
    if (bus_cycles == 0)
        EXPECT_EQ(burst.eq.eventsExecuted(), one.eq.eventsExecuted());
    else
        EXPECT_LT(burst.eq.eventsExecuted(), one.eq.eventsExecuted());
    return burst.mem.settledPolls();
}

/** Sample at every tick of [from, to), from events scheduled now. */
void
sampleEachTick(BurstRig &rig, Tick from, Tick to)
{
    for (Tick t = from; t < to; ++t)
        rig.eq.schedule(t, [&rig]() { rig.sample(); });
}

} // namespace

TEST(MemoryBurstTest, IdleBusSettlesEveryPoll)
{
    expectBurstMatchesPolls(1, [](BurstRig &rig) {
        rig.mem.poke(0, 3);
        sampleEachTick(rig, 9, 50);
        rig.eq.schedule(10, [&rig]() { rig.polls(0, 0, 8, 4); });
    });
    BurstRig rig(true, 1);
    rig.mem.poke(0, 3);
    rig.eq.schedule(10, [&rig]() { rig.polls(0, 0, 8, 4); });
    rig.eq.run();
    // One event in all: the issuing one. The polls arrive at 11..18
    // and the module serves them back to back from 11.
    EXPECT_EQ(rig.eq.eventsExecuted(), 1u);
    EXPECT_EQ(rig.mem.settledPolls(), 8u);
    EXPECT_EQ(rig.log.front(), "@11 poll 0 read 3 done 15");
    EXPECT_EQ(rig.log.back(), "@18 poll 7 read 3 done 43");
}

TEST(MemoryBurstTest, WriteToTheHotWordInFlightAhead)
{
    // The write is on the bus when the burst is issued and completes
    // at the module after the first polls arrive: those read its
    // value at their own completion; later ones settle on it.
    std::uint64_t settled = expectBurstMatchesPolls(2, [](BurstRig &rig) {
        rig.mem.poke(0, 1);
        sampleEachTick(rig, 9, 60);
        rig.eq.schedule(10, [&rig]() {
            rig.mem.write(7, 0, 5, [&rig]() { rig.note("write done"); });
        });
        rig.eq.schedule(11, [&rig]() { rig.polls(0, 0, 8, 3); });
    });
    EXPECT_GT(settled, 0u);
    EXPECT_LT(settled, 8u);
}

TEST(MemoryBurstTest, ReadOfAnotherModuleInFlightAhead)
{
    expectBurstMatchesPolls(2, [](BurstRig &rig) {
        sampleEachTick(rig, 9, 60);
        rig.eq.schedule(10, [&rig]() { rig.read(7, 8); });
        rig.eq.schedule(11, [&rig]() { rig.polls(0, 0, 8, 1); });
    });
}

TEST(MemoryBurstTest, ThresholdMetMidBurst)
{
    // Thresholds 2..9 against a word holding 5: the polls that are
    // satisfied complete through their own events.
    std::uint64_t settled = expectBurstMatchesPolls(1, [](BurstRig &rig) {
        rig.mem.poke(0, 5);
        rig.eq.schedule(10, [&rig]() { rig.polls(0, 0, 8, 2); });
    });
    EXPECT_EQ(settled, 4u);
}

TEST(MemoryBurstTest, ModuleServiceInsideTheWindow)
{
    // A module-local service lands on the hot module mid-burst and
    // pokes the word when it completes (as a keyed retry does):
    // polls arriving behind it can no longer settle, and later ones
    // read the new value.
    std::uint64_t settled = expectBurstMatchesPolls(1, [](BurstRig &rig) {
        rig.mem.poke(0, 1);
        sampleEachTick(rig, 9, 60);
        rig.eq.schedule(10, [&rig]() { rig.polls(0, 0, 10, 2); });
        rig.eq.schedule(14, [&rig]() {
            rig.mem.serviceAtModule(0, [&rig]() {
                rig.note("service done");
                rig.mem.poke(0, 100);
            });
        });
    });
    EXPECT_GT(settled, 0u);
    EXPECT_LT(settled, 10u);
}

TEST(MemoryBurstTest, RequestEntersTheBusAtAGrantTick)
{
    // Burst grants fall at 10, 12, 14, ... The read scheduled before
    // the burst runs ahead of tick 14's grant, the one scheduled
    // from tick 13 behind it; both queue behind the whole burst.
    expectBurstMatchesPolls(2, [](BurstRig &rig) {
        sampleEachTick(rig, 9, 60);
        rig.eq.schedule(14, [&rig]() { rig.read(6, 0); });
        rig.eq.schedule(10, [&rig]() { rig.polls(0, 0, 6, 1); });
        rig.eq.schedule(13, [&rig]() {
            rig.eq.schedule(14, [&rig]() { rig.read(7, 8); });
        });
    });
}

TEST(MemoryBurstTest, TwoBurstsOnDifferentVariablesBackToBack)
{
    // Word 0 and word 8 share module 0; word 1 is on module 1.
    expectBurstMatchesPolls(1, [](BurstRig &rig) {
        sampleEachTick(rig, 9, 80);
        rig.eq.schedule(10, [&rig]() {
            rig.polls(0, 0, 4, 1);
            rig.polls(8, 10, 4, 1);
        });
        rig.eq.schedule(11, [&rig]() { rig.polls(64, 20, 5, 1); });
        rig.eq.schedule(11, [&rig]() { rig.polls(8 * 8, 30, 3, 1); });
    });
}

TEST(MemoryBurstTest, OmegaDataNetPollsOneByOne)
{
    // No fixed FIFO grant to reserve: a burst is its polls.
    expectBurstMatchesPolls(0, [](BurstRig &rig) {
        rig.mem.poke(0, 5);
        rig.eq.schedule(10, [&rig]() {
            rig.mem.write(7, 0, 6, [&rig]() { rig.note("write done"); });
            rig.polls(0, 0, 8, 3);
        });
    });
}
