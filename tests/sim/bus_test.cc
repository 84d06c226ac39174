/**
 * @file FIFO bus arbitration, occupancy and queue statistics, and
 * burst transactions granted in closed form.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "core/tracing.hh"
#include "sim/bus.hh"

using namespace psync::sim;

TEST(BusTest, SingleTransactionTiming)
{
    EventQueue eq;
    Bus bus(eq, "bus", 3);
    Tick done = 0;
    eq.schedule(10, [&]() {
        bus.transact(0, [&](Tick grant) {
            EXPECT_EQ(grant, 10u);
            done = eq.now();
        });
    });
    eq.run();
    EXPECT_EQ(done, 13u);
    EXPECT_EQ(bus.transactions(), 1u);
    EXPECT_EQ(bus.busyCycles(), 3u);
}

TEST(BusTest, BackToBackSerializes)
{
    EventQueue eq;
    Bus bus(eq, "bus", 2);
    std::vector<Tick> grants;
    eq.schedule(0, [&]() {
        for (int k = 0; k < 4; ++k)
            bus.transact(0, [&](Tick g) { grants.push_back(g); });
    });
    eq.run();
    ASSERT_EQ(grants.size(), 4u);
    EXPECT_EQ(grants[0], 0u);
    EXPECT_EQ(grants[1], 2u);
    EXPECT_EQ(grants[2], 4u);
    EXPECT_EQ(grants[3], 6u);
    EXPECT_EQ(bus.queueDelay(), 0u + 2u + 4u + 6u);
    EXPECT_GE(bus.maxQueueDepth(), 3u);
}

TEST(BusTest, FifoOrderAcrossRequesters)
{
    EventQueue eq;
    Bus bus(eq, "bus", 1);
    std::vector<int> order;
    eq.schedule(0, [&]() {
        bus.transact(2, [&](Tick) { order.push_back(2); });
    });
    eq.schedule(0, [&]() {
        bus.transact(1, [&](Tick) { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(BusTest, UtilizationFraction)
{
    EventQueue eq;
    Bus bus(eq, "bus", 5);
    eq.schedule(0, [&]() { bus.transact(0, [](Tick) {}); });
    eq.schedule(20, [&]() { bus.transact(0, [](Tick) {}); });
    eq.run();
    EXPECT_DOUBLE_EQ(bus.utilization(25), 10.0 / 25.0);
}

TEST(BusTest, IdleGapThenNewGrant)
{
    EventQueue eq;
    Bus bus(eq, "bus", 2);
    Tick second_done = 0;
    eq.schedule(0, [&]() { bus.transact(0, [](Tick) {}); });
    eq.schedule(50, [&]() {
        bus.transact(0, [&](Tick g) {
            EXPECT_EQ(g, 50u);
            second_done = eq.now();
        });
    });
    eq.run();
    EXPECT_EQ(second_done, 52u);
}

namespace {

/**
 * One requester's view of a bus carrying its transactions either as
 * a burst (Bus::transactBurst) or one request at a time; both log
 * every delivery as "@tick who".
 */
struct Requester : BurstSink
{
    EventQueue &eq;
    Bus &bus;
    bool burst;
    std::vector<std::string> &log;
    std::deque<ProcId> heads;

    Requester(EventQueue &q, Bus &b, bool as_burst,
              std::vector<std::string> &out)
        : eq(q), bus(b), burst(as_burst), log(out)
    {}

    void
    note(ProcId who)
    {
        log.push_back("@" + std::to_string(eq.now()) + " proc " +
                      std::to_string(who));
    }

    void
    issue(ProcId who)
    {
        if (!burst) {
            bus.transact(who, [this, who](Tick) { note(who); });
            return;
        }
        heads.push_back(who);
        bus.transactBurst(*this);
    }

    ProcId burstHead() const override { return heads.front(); }

    void
    burstDelivered() override
    {
        note(heads.front());
        heads.pop_front();
    }
};

/** A bus, its statistics and a log, run one way or the other. */
struct BurstBusRig
{
    EventQueue eq;
    psync::core::TraceRecorder trace;
    Bus bus;
    std::vector<std::string> log;
    Requester a;
    Requester b;

    BurstBusRig(bool as_burst, Tick cycles)
        : bus(eq, "bus", cycles, &trace),
          a(eq, bus, as_burst, log),
          b(eq, bus, as_burst, log)
    {}

    /** Log a plain request's completion (never part of a burst). */
    void
    plain(ProcId who)
    {
        bus.transact(who, [this, who](Tick grant) {
            log.push_back("@" + std::to_string(eq.now()) + " plain " +
                          std::to_string(who) + " granted " +
                          std::to_string(grant));
        });
    }

    /** Log the queue as a newcomer would see it right now. */
    void
    probe(const char *what)
    {
        log.push_back("@" + std::to_string(eq.now()) + " " + what +
                      " busy " + std::to_string(bus.busyCycles()) +
                      " max " + std::to_string(bus.maxQueueDepth()));
        bus.sampleTimeline(trace, 0, eq.now());
    }

    /** Statistics, then every trace record, one per line. */
    std::string
    stats() const
    {
        stats::Group group;
        bus.registerStats(group);
        std::ostringstream os;
        group.dump(os);
        for (const auto &r : trace.resources())
            os << r.resource << " " << r.who << " [" << r.start << ", "
               << r.end << ")\n";
        for (const auto &c : trace.counters())
            os << c.counter << " @" << c.at << " " << c.value << "\n";
        for (const auto &t : trace.samples())
            os << "sample " << static_cast<int>(t.stream) << " @" << t.at
               << " " << t.value << "\n";
        return os.str();
    }
};

/**
 * Run `scenario` on a burst rig and a one-request-at-a-time rig and
 * require identical logs and statistics, with fewer events for the
 * burst.
 */
template <typename Scenario>
void
expectBurstMatchesRequests(Tick cycles, Scenario scenario)
{
    BurstBusRig one(false, cycles);
    BurstBusRig burst(true, cycles);
    scenario(one);
    scenario(burst);
    EXPECT_TRUE(one.eq.run());
    EXPECT_TRUE(burst.eq.run());
    EXPECT_EQ(burst.log, one.log);
    EXPECT_EQ(burst.stats(), one.stats());
    EXPECT_LT(burst.eq.eventsExecuted(), one.eq.eventsExecuted());
    EXPECT_FALSE(burst.trace.counters().empty());
}

} // namespace

TEST(BusBurstTest, IdleBusGrantsBackToBack)
{
    expectBurstMatchesRequests(3, [](BurstBusRig &rig) {
        rig.eq.schedule(10, [&rig]() {
            for (ProcId who = 0; who < 6; ++who)
                rig.a.issue(who);
        });
    });
    BurstBusRig rig(true, 3);
    rig.eq.schedule(10, [&rig]() {
        for (ProcId who = 0; who < 6; ++who)
            rig.a.issue(who);
    });
    rig.eq.run();
    // Six grants at 10 + 3i, one event (the issuing one) in all.
    EXPECT_EQ(rig.log.front(), "@13 proc 0");
    EXPECT_EQ(rig.log.back(), "@28 proc 5");
    EXPECT_EQ(rig.eq.eventsExecuted(), 1u);
    EXPECT_EQ(rig.bus.queueDelay(), 3u * (0 + 1 + 2 + 3 + 4 + 5));
    EXPECT_EQ(rig.bus.maxQueueDepth(), 5u);
}

TEST(BusBurstTest, WaitsBehindTheTransactionInFlight)
{
    expectBurstMatchesRequests(2, [](BurstBusRig &rig) {
        rig.eq.schedule(9, [&rig]() { rig.plain(40); });
        rig.eq.schedule(10, [&rig]() {
            for (ProcId who = 0; who < 5; ++who)
                rig.a.issue(who);
        });
    });
}

TEST(BusBurstTest, RequestAtAGrantTickQueuesInEventOrder)
{
    // Grants of the burst fall at 10, 12, 14, ... A request issued
    // at 14 by an event scheduled before the burst runs ahead of
    // that tick's grant and sees one more transaction queued; one
    // scheduled at 13 runs after it. Both wait for the whole burst.
    expectBurstMatchesRequests(2, [](BurstBusRig &rig) {
        rig.eq.schedule(14, [&rig]() {
            rig.probe("before");
            rig.plain(40);
        });
        rig.eq.schedule(10, [&rig]() {
            for (ProcId who = 0; who < 6; ++who)
                rig.a.issue(who);
        });
        rig.eq.schedule(13, [&rig]() {
            rig.eq.schedule(14, [&rig]() {
                rig.probe("after");
                rig.plain(41);
            });
        });
        rig.eq.schedule(22, [&rig]() { rig.plain(42); });
    });
}

TEST(BusBurstTest, TwoBurstsBackToBack)
{
    expectBurstMatchesRequests(2, [](BurstBusRig &rig) {
        rig.eq.schedule(10, [&rig]() {
            for (ProcId who = 0; who < 3; ++who)
                rig.a.issue(who);
            for (ProcId who = 10; who < 13; ++who)
                rig.b.issue(who);
        });
        // b's burst from tick 10 is still the queue's tail: its
        // tick-11 transactions wait from 11, not from 10.
        rig.eq.schedule(11, [&rig]() {
            for (ProcId who = 30; who < 32; ++who)
                rig.b.issue(who);
        });
        rig.eq.schedule(11, [&rig]() {
            for (ProcId who = 20; who < 24; ++who)
                rig.a.issue(who);
        });
        rig.eq.schedule(11, [&rig]() { rig.plain(40); });
    });
}

TEST(BusBurstTest, RunLimitStopsBeforeAStep)
{
    // A chunked run pauses between steps exactly as it would
    // between completion events.
    BurstBusRig rig(true, 2);
    rig.eq.schedule(10, [&rig]() {
        for (ProcId who = 0; who < 4; ++who)
            rig.a.issue(who);
    });
    EXPECT_FALSE(rig.eq.run(13));
    EXPECT_EQ(rig.log, (std::vector<std::string>{"@12 proc 0"}));
    // Only the armed step is pending, and it keeps the queue live.
    EXPECT_EQ(rig.eq.pendingEvents(), 0u);
    EXPECT_FALSE(rig.eq.empty());
    EXPECT_TRUE(rig.eq.run());
    EXPECT_EQ(rig.log.back(), "@18 proc 3");
}
