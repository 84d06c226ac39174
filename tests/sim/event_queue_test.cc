/** @file Deterministic ordering and draining of the DES core. */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace psync::sim;

TEST(EventQueueTest, RunsInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int k = 0; k < 8; ++k)
        eq.schedule(5, [&order, k]() { order.push_back(k); });
    EXPECT_TRUE(eq.run());
    for (int k = 0; k < 8; ++k)
        EXPECT_EQ(order[k], k);
}

TEST(EventQueueTest, HandlersCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(2, chain);
    };
    eq.schedule(0, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 8u);
}

TEST(EventQueueTest, LimitStopsEarly)
{
    EventQueue eq;
    bool late = false;
    eq.schedule(5, []() {});
    eq.schedule(100, [&]() { late = true; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(late);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueueTest, ZeroDelayRunsAtSameTick)
{
    EventQueue eq;
    Tick seen = maxTick;
    eq.schedule(7, [&]() {
        eq.scheduleIn(0, [&]() { seen = eq.now(); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueueTest, CountsExecutedEvents)
{
    EventQueue eq;
    for (int k = 0; k < 10; ++k)
        eq.schedule(k, []() {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 10u);
}

TEST(EventQueueTest, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&eq]() {
        EXPECT_DEATH(eq.schedule(5, []() {}), "past");
    });
    eq.run();
}

// -- Calendar-ring specifics: the ring window is 1024 ticks, so
// these schedules force bucket wrap-around and far-heap migration.

TEST(EventQueueTest, FarFutureEventsCrossRingWindow)
{
    EventQueue eq(EventCoreKind::calendar);
    std::vector<Tick> fired;
    for (Tick when : {Tick(1000000), Tick(4096), Tick(1024),
                      Tick(1023), Tick(0)})
        eq.schedule(when, [&fired, &eq]() {
            fired.push_back(eq.now());
        });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, (std::vector<Tick>{0, 1023, 1024, 4096,
                                        1000000}));
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}

TEST(EventQueueTest, RolloverChainsAcrossManyRingWraps)
{
    EventQueue eq(EventCoreKind::calendar);
    // Steps of 700 wrap the 1024-tick ring every other event and
    // land in every bucket alignment.
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 50)
            eq.scheduleIn(700, chain);
    };
    eq.schedule(0, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 50);
    EXPECT_EQ(eq.now(), 49u * 700u);
}

TEST(EventQueueTest, SameFarTickPreservesInsertionOrder)
{
    EventQueue eq(EventCoreKind::calendar);
    std::vector<int> order;
    // All beyond the ring window, same tick: the far heap must
    // break the tie by seq, and migration must keep that order.
    for (int k = 0; k < 16; ++k)
        eq.schedule(5000, [&order, k]() { order.push_back(k); });
    EXPECT_TRUE(eq.run());
    for (int k = 0; k < 16; ++k)
        EXPECT_EQ(order[k], k);
}

TEST(EventQueueTest, NearAndFarInsertsAtOneTickKeepSeqOrder)
{
    EventQueue eq(EventCoreKind::calendar);
    std::vector<int> order;
    // The first insert lands in the far heap (delta 2000); the
    // later ones go straight into the ring bucket because now() is
    // close enough by then. The migrated far event was inserted
    // first, so it must still run first.
    eq.schedule(2000, [&order]() { order.push_back(0); });
    eq.schedule(1500, [&eq, &order]() {
        eq.schedule(2000, [&order]() { order.push_back(1); });
        eq.schedule(2000, [&order]() { order.push_back(2); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, ClearDropsPendingEvents)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(3, [&ran]() { ran = true; });
    eq.schedule(5000, [&ran]() { ran = true; });
    EXPECT_EQ(eq.pendingEvents(), 2u);
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_TRUE(eq.run());
    EXPECT_FALSE(ran);
}

TEST(EventQueueTest, LimitStopThenClearReleasesOwningCaptures)
{
    // A tick-limit stop leaves undrained handlers; clear() (also
    // called by the destructor) must destroy them so owning
    // captures release their memory — ASan fails this test on a
    // leak.
    EventQueue eq;
    auto near_payload = std::make_shared<std::vector<int>>(100, 1);
    auto far_payload = std::make_shared<std::vector<int>>(100, 2);
    eq.schedule(10, []() {});
    eq.schedule(100, [near_payload]() { (void)near_payload; });
    eq.schedule(90000, [far_payload]() { (void)far_payload; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(eq.pendingEvents(), 2u);
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(near_payload.use_count(), 1);
    EXPECT_EQ(far_payload.use_count(), 1);
}

TEST(EventQueueTest, DestructorReleasesPendingHandlers)
{
    auto payload = std::make_shared<int>(7);
    {
        EventQueue eq;
        eq.schedule(10, []() {});
        eq.schedule(123456, [payload]() { (void)payload; });
        EXPECT_FALSE(eq.run(20));
    }
    EXPECT_EQ(payload.use_count(), 1);
}

TEST(EventQueueTest, FarTiesFireInSeqOrderAfterMigration)
{
    // Far events tied on `when` sit in the far heap as keys. A
    // limit stop leaves them unmigrated, so same-tick events
    // scheduled afterwards land in the ring first; migration must
    // still file the older far keys ahead of them.
    for (auto core : {EventCoreKind::calendar, EventCoreKind::heap}) {
        EventQueue eq(core);
        std::vector<int> order;
        for (int k = 0; k < 6; ++k)
            eq.schedule(9000, [&order, k]() { order.push_back(k); });
        EXPECT_EQ(eq.farEvents(), 6u);
        EXPECT_FALSE(eq.run(8500));
        for (int k = 6; k < 9; ++k)
            eq.schedule(9000, [&order, k]() { order.push_back(k); });
        EXPECT_TRUE(eq.run());
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}))
            << eventCoreKindName(core);
    }
}

namespace {

/** Counts destructions of live (not moved-from) copies. */
struct DestroyCounter
{
    int *destroyed;
    bool live = true;

    explicit DestroyCounter(int *counter) : destroyed(counter) {}
    DestroyCounter(DestroyCounter &&o) noexcept
        : destroyed(o.destroyed), live(o.live)
    {
        o.live = false;
    }
    DestroyCounter(const DestroyCounter &) = delete;
    ~DestroyCounter()
    {
        if (live)
            ++*destroyed;
    }
};

} // namespace

TEST(EventQueueTest, ClearDestroysFarSlabHandlersExactlyOnce)
{
    for (auto core : {EventCoreKind::calendar, EventCoreKind::heap}) {
        int destroyed = 0;
        int ran = 0;
        {
            EventQueue eq(core);
            for (int k = 0; k < 8; ++k) {
                DestroyCounter counter(&destroyed);
                eq.schedule(5000 + 10 * k,
                            [c = std::move(counter), &ran]() {
                    (void)c;
                    ++ran;
                });
            }
            // Run past the first two so their slots are freed and
            // reused by the rest of the far heap's lifetime.
            EXPECT_FALSE(eq.run(5015));
            EXPECT_EQ(ran, 2);
            EXPECT_EQ(destroyed, 2);
            EXPECT_EQ(eq.pendingEvents(), 6u);
            eq.clear();
            EXPECT_EQ(destroyed, 8) << eventCoreKindName(core);
            EXPECT_TRUE(eq.empty());
        }
        EXPECT_EQ(destroyed, 8) << eventCoreKindName(core);
        EXPECT_EQ(ran, 2);
    }
}

TEST(EventQueueTest, CountsHeapFallbackCaptures)
{
    EventQueue eq;
    std::array<char, handlerInlineBytes + 16> big{};
    eq.schedule(1, [big]() { (void)big; });
    eq.schedule(2, []() {});
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.heapFallbackEvents(), 1u);
    EXPECT_EQ(eq.eventsExecuted(), 2u);
}

TEST(EventQueueTest, SimulatorHandlersFitInline)
{
    // The de-nesting rule: every hot-path handler captures at most
    // {this, slot} plus a couple of ticks. A full machine run is
    // asserted allocation-free elsewhere; here, pin the contract
    // that a generous capture still fits.
    struct BigCapture
    {
        void *self;
        std::uint64_t ticks[8];
        std::uint32_t slots[4];
    };
    static_assert(sizeof(BigCapture) <= handlerInlineBytes,
                  "hot-path captures must stay inline");
    EventQueue eq;
    BigCapture c{};
    eq.schedule(1, [c]() { (void)c; });
    eq.run();
    EXPECT_EQ(eq.heapFallbackEvents(), 0u);
}

// -- Core equivalence at the unit level: a randomized schedule must
// execute in the identical (when, seq) order on both cores.

namespace {

struct FiredEvent
{
    Tick when;
    int id;
    bool operator==(const FiredEvent &o) const
    {
        return when == o.when && id == o.id;
    }
};

std::vector<FiredEvent>
runRandomSchedule(EventCoreKind core)
{
    EventQueue eq(core);
    Rng rng(2024);
    std::vector<FiredEvent> fired;
    int next_id = 0;

    // Handlers reschedule with deltas straddling the ring window
    // (0..5000 ticks), plus same-tick ties.
    std::function<void(int)> fire = [&](int depth) {
        fired.push_back({eq.now(), next_id});
        ++next_id;
        if (depth <= 0)
            return;
        unsigned fanout = 1 + rng.below(2);
        for (unsigned k = 0; k < fanout; ++k) {
            Tick delta = rng.below(5000);
            eq.scheduleIn(delta, [&fire, depth]() {
                fire(depth - 1);
            });
        }
    };
    for (int k = 0; k < 20; ++k) {
        Tick when = rng.below(3000);
        eq.schedule(when, [&fire]() { fire(4); });
    }
    EXPECT_TRUE(eq.run());
    return fired;
}

} // namespace

TEST(EventCoreEquivalence, RandomScheduleIdenticalOnBothCores)
{
    auto calendar = runRandomSchedule(EventCoreKind::calendar);
    auto heap = runRandomSchedule(EventCoreKind::heap);
    ASSERT_EQ(calendar.size(), heap.size());
    for (std::size_t i = 0; i < calendar.size(); ++i) {
        EXPECT_EQ(calendar[i].when, heap[i].when) << "at event " << i;
        EXPECT_EQ(calendar[i].id, heap[i].id) << "at event " << i;
    }
}

namespace {

/** Steps every `period` ticks, `left` more times, logging each. */
struct Ticker : EventQueue::Stepper
{
    EventQueue &eq;
    Tick period;
    int left;
    std::vector<std::string> &log;

    Ticker(EventQueue &q, Tick p, int n, std::vector<std::string> &out)
        : eq(q), period(p), left(n), log(out)
    {}

    void
    step() override
    {
        log.push_back("step@" + std::to_string(eq.now()));
        if (--left > 0)
            eq.arm(*this, eq.now() + period);
    }
};

} // namespace

TEST(EventQueueTest, StepsRunWhereTheirEventsWould)
{
    // A chain of steps and the same chain as events must interleave
    // identically with other events, same-tick ones included, on
    // both cores.
    for (auto core : {EventCoreKind::calendar, EventCoreKind::heap}) {
        std::vector<std::string> logs[2];
        std::uint64_t executed[2] = {0, 0};
        for (int as_steps = 0; as_steps < 2; ++as_steps) {
            EventQueue eq(core);
            std::vector<std::string> &log = logs[as_steps];
            Ticker ticker(eq, 3, 4, log);
            std::function<void(int)> chain = [&](int left) {
                log.push_back("step@" + std::to_string(eq.now()));
                if (left > 1)
                    eq.scheduleIn(3, [&chain, left]() { chain(left - 1); });
            };
            auto note = [&](const char *what) {
                log.push_back(std::string(what) + "@" +
                              std::to_string(eq.now()));
            };
            // Chain ticks: 5, 8, 11, 14.
            eq.schedule(8, [&]() { note("early"); });
            eq.schedule(2, [&]() {
                if (as_steps)
                    eq.arm(ticker, 5);
                else
                    eq.schedule(5, [&chain]() { chain(4); });
            });
            eq.schedule(7, [&]() {
                eq.schedule(8, [&]() { note("late"); });
            });
            eq.schedule(11, [&]() { note("same"); });
            eq.schedule(2000, [&]() { note("far"); });
            EXPECT_TRUE(eq.run());
            EXPECT_TRUE(eq.empty());
            executed[as_steps] = eq.eventsExecuted();
        }
        EXPECT_EQ(logs[1], logs[0]) << eventCoreKindName(core);
        EXPECT_EQ(logs[1], (std::vector<std::string>{
                               "step@5", "early@8", "step@8", "late@8",
                               "same@11", "step@11", "step@14",
                               "far@2000"}));
        // The four steps cost no event.
        EXPECT_EQ(executed[1] + 4, executed[0]);
    }
}

TEST(EventQueueTest, RunLimitAndClearCoverTheArmedStep)
{
    for (auto core : {EventCoreKind::calendar, EventCoreKind::heap}) {
        EventQueue eq(core);
        std::vector<std::string> log;
        Ticker ticker(eq, 10, 3, log);
        eq.arm(ticker, 5);
        EXPECT_FALSE(eq.empty());
        EXPECT_FALSE(eq.run(14));
        EXPECT_EQ(log, (std::vector<std::string>{"step@5"}));
        EXPECT_EQ(eq.now(), 14u);
        EXPECT_FALSE(eq.empty());
        eq.clear();
        EXPECT_TRUE(eq.empty());
        EXPECT_TRUE(eq.run());
        EXPECT_EQ(log.size(), 1u);
    }
}
