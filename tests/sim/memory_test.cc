/** @file Interleaved modules, queueing, RMW atomicity, hot spots. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/bus.hh"
#include "sim/memory.hh"

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
