/** @file Wake order, partial release and slot reuse of sim::WaitSet. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/wait_set.hh"

using namespace psync::sim;

namespace {

std::vector<std::uint32_t>
released(WaitSet &waits, SyncVarId var, SyncWord value)
{
    std::vector<std::uint32_t> slots;
    waits.release(var, value,
                  [&](std::uint32_t slot) { slots.push_back(slot); });
    return slots;
}

} // namespace

TEST(WaitSetTest, EqualThresholdsWakeFifo)
{
    WaitSet waits;
    for (std::uint32_t slot : {7u, 3u, 9u, 1u, 4u})
        waits.park(0, 5, slot);
    EXPECT_EQ(released(waits, 0, 5),
              (std::vector<std::uint32_t>{7, 3, 9, 1, 4}));
    EXPECT_EQ(waits.size(), 0u);
}

TEST(WaitSetTest, MixedThresholdsWakeInArrivalOrder)
{
    // One value satisfies all of them: arrival order wins over
    // threshold order, as a scan of a FIFO wait list would wake.
    WaitSet waits;
    waits.park(2, 30, 0);
    waits.park(2, 10, 1);
    waits.park(2, 20, 2);
    waits.park(2, 10, 3);
    waits.park(2, 5, 4);
    EXPECT_EQ(released(waits, 2, 30),
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(WaitSetTest, PartialReleaseKeepsExactlyTheUnsatisfied)
{
    WaitSet waits;
    waits.park(1, 8, 0);
    waits.park(1, 3, 1);
    waits.park(1, 12, 2);
    waits.park(1, 3, 3);
    waits.park(1, 6, 4);
    EXPECT_EQ(released(waits, 1, 6),
              (std::vector<std::uint32_t>{1, 3, 4}));
    EXPECT_EQ(waits.size(), 2u);
    // The survivors keep their arrival order too.
    EXPECT_EQ(released(waits, 1, 100),
              (std::vector<std::uint32_t>{0, 2}));
    EXPECT_EQ(waits.size(), 0u);
}

TEST(WaitSetTest, ReleaseAllKeepsParkOrderFifo)
{
    WaitSet waits;
    waits.park(4, 0, 11);
    waits.park(4, 0, 2);
    waits.park(4, 0, 8);
    std::vector<std::uint32_t> slots;
    waits.releaseAll(4, [&](std::uint32_t s) { slots.push_back(s); });
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{11, 2, 8}));
    EXPECT_EQ(waits.size(), 0u);

    // Mixed ranks hand out by rank first, FIFO within a rank.
    waits.park(4, 0, 11);
    waits.park(4, 0, 2);
    waits.park(4, 50, 5);
    waits.park(4, 1, 6);
    waits.park(4, 0, 8);
    slots.clear();
    waits.releaseAll(4, [&](std::uint32_t s) { slots.push_back(s); });
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{11, 2, 8, 6, 5}));
    EXPECT_EQ(waits.size(), 0u);
}

TEST(WaitSetTest, ReleaseAllHandsOutLateParkWithEarlierRankFirst)
{
    // A spinner whose poll settled at its module parks on arrival,
    // ranked by the tick its poll completes; an earlier poll still
    // in service parks later but with an earlier completion tick,
    // and must be handed out first.
    WaitSet waits;
    waits.park(1, 40, 7); // settled on arrival, completes at 40
    waits.park(1, 36, 3); // completed at 36, parked afterwards
    waits.park(1, 44, 9);
    std::vector<std::uint32_t> slots;
    waits.releaseAll(1, [&](std::uint32_t s) { slots.push_back(s); });
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{3, 7, 9}));
}

TEST(WaitSetTest, WaitersParkedDuringReleaseWaitForTheNextOne)
{
    WaitSet waits;
    waits.park(0, 1, 0);
    waits.park(0, 1, 1);
    std::vector<std::uint32_t> slots;
    waits.release(0, 1, [&](std::uint32_t slot) {
        slots.push_back(slot);
        waits.park(0, 1, slot + 10);
    });
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(released(waits, 0, 1),
              (std::vector<std::uint32_t>{10, 11}));
}

TEST(WaitSetTest, VariablesAreIndependent)
{
    WaitSet waits;
    waits.park(0, 1, 0);
    waits.park(3, 1, 1);
    EXPECT_EQ(released(waits, 3, 1), (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(waits.size(), 1u);
    std::vector<std::pair<SyncVarId, std::size_t>> seen;
    waits.forEachVar([&](SyncVarId var, std::size_t count) {
        seen.emplace_back(var, count);
    });
    EXPECT_EQ(seen,
              (std::vector<std::pair<SyncVarId, std::size_t>>{{0, 1}}));
}

TEST(WaitSetTest, EmptyUnknownOrBelowThresholdIsNoOp)
{
    WaitSet waits;
    int calls = 0;
    auto count = [&](std::uint32_t) { ++calls; };
    waits.release(0, 100, count);
    waits.releaseAll(0, count);
    waits.release(1000, 100, count);
    waits.park(2, 10, 0);
    waits.release(2, 9, count);
    waits.release(7, 100, count);
    waits.releaseAll(7, count);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(waits.size(), 1u);
}

TEST(WaitSetTest, SlabSlotsAreReusedWithoutGrowth)
{
    Slab<std::vector<int>> slab;
    WaitSet waits;
    constexpr unsigned waiters = 16;
    std::size_t capacity = 0;
    for (unsigned round = 0; round < 10000; ++round) {
        for (unsigned k = 0; k < waiters; ++k) {
            std::uint32_t slot = slab.alloc();
            EXPECT_TRUE(slab[slot].empty());
            slab[slot].push_back(static_cast<int>(round));
            waits.park(k % 4, round + k, slot);
        }
        for (SyncVarId var = 0; var < 4; ++var) {
            waits.release(var, round + waiters, [&](std::uint32_t s) {
                slab.free(s);
            });
        }
        ASSERT_EQ(waits.size(), 0u);
        if (round == 0)
            capacity = slab.capacity();
        ASSERT_EQ(slab.capacity(), capacity) << "round " << round;
    }
    EXPECT_EQ(capacity, waiters);
}

TEST(WaitSetTest, HotSpotParksComeOutOfReleaseAllByRankThenArrival)
{
    // A hot spot's re-fetch burst: polls that settle at the module
    // park on arrival, ranked by their later completion tick, while
    // polls still in service park when they complete, at an earlier
    // rank. The run takes the late parks out of order.
    WaitSet waits;
    std::vector<std::pair<SyncWord, std::uint32_t>> parks = {
        {40, 0}, {44, 1}, {36, 2}, {48, 3}, {40, 4}, {52, 5},
        {37, 6}, {52, 7}, {30, 8}, {56, 9}, {44, 10}, {60, 11},
    };
    for (auto [rank, slot] : parks)
        waits.park(3, rank, slot);
    std::vector<std::uint32_t> slots;
    waits.releaseAll(3, [&](std::uint32_t s) { slots.push_back(s); });
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{8, 2, 6, 0, 4, 1, 10,
                                                 3, 5, 7, 9, 11}));
    EXPECT_EQ(waits.size(), 0u);
}

TEST(WaitSetTest, ReleaseHandsOutArrivalOrderWithParksFromFn)
{
    // fn parks new waiters, some already satisfied by the value
    // being released; they wait for the next release, which again
    // hands out by arrival, not by threshold.
    WaitSet waits;
    waits.park(0, 9, 0);
    waits.park(0, 2, 1);
    waits.park(0, 7, 2);
    waits.park(0, 4, 3);
    std::vector<std::uint32_t> slots;
    waits.release(0, 8, [&](std::uint32_t slot) {
        slots.push_back(slot);
        waits.park(0, 10 - slot, slot + 10);
    });
    EXPECT_EQ(slots, (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(waits.size(), 4u);
    EXPECT_EQ(released(waits, 0, 9),
              (std::vector<std::uint32_t>{0, 11, 12, 13}));
    EXPECT_EQ(waits.size(), 0u);
}

TEST(WaitSetTest, CompactingTheHeadCursorPreservesOrder)
{
    // Partial releases walk the head cursor far into the run and
    // compact it; later parks, including out-of-order ones, land
    // among the survivors as if nothing had been released.
    WaitSet waits;
    for (std::uint32_t slot = 0; slot < 100; ++slot)
        waits.park(5, slot, slot);
    for (SyncWord value = 9; value < 80; value += 10) {
        std::vector<std::uint32_t> slots = released(waits, 5, value);
        ASSERT_EQ(slots.size(), 10u);
        EXPECT_EQ(slots.front(), value - 9);
        EXPECT_EQ(slots.back(), value);
    }
    EXPECT_EQ(waits.size(), 20u);
    waits.park(5, 85, 200);
    waits.park(5, 120, 201);
    waits.park(5, 85, 202);
    std::vector<std::uint32_t> slots;
    waits.releaseAll(5, [&](std::uint32_t s) { slots.push_back(s); });
    std::vector<std::uint32_t> want;
    for (std::uint32_t slot = 80; slot < 100; ++slot) {
        want.push_back(slot);
        if (slot == 85) {
            want.push_back(200);
            want.push_back(202);
        }
    }
    want.push_back(201);
    EXPECT_EQ(slots, want);
}

TEST(WaitSetTest, MatchesAFifoWaitListUnderRandomTraffic)
{
    // The contract against its reference: a FIFO list per variable,
    // where release wakes the satisfied waiters in list order and
    // releaseAll wakes everyone stably sorted by rank.
    struct Waiter
    {
        SyncWord rank;
        std::uint32_t slot;
    };
    WaitSet waits;
    std::vector<std::vector<Waiter>> lists(3);
    std::uint64_t state = 12345;
    auto next = [&](std::uint64_t bound) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % bound;
    };
    std::uint32_t slot = 0;
    for (int op = 0; op < 5000; ++op) {
        auto var = static_cast<SyncVarId>(next(3));
        std::vector<Waiter> &list = lists[var];
        std::uint64_t kind = next(10);
        if (kind < 7) {
            // Mostly rising ranks, sometimes a step back.
            SyncWord rank = op / 4 + next(8);
            waits.park(var, rank, slot);
            list.push_back({rank, slot++});
            continue;
        }
        std::vector<std::uint32_t> want;
        std::vector<std::uint32_t> got;
        if (kind < 9) {
            SyncWord value = op / 4 + next(8);
            std::vector<Waiter> kept;
            for (const Waiter &w : list) {
                if (w.rank <= value)
                    want.push_back(w.slot);
                else
                    kept.push_back(w);
            }
            list.swap(kept);
            got = released(waits, var, value);
        } else {
            std::stable_sort(list.begin(), list.end(),
                             [](const Waiter &a, const Waiter &b) {
                return a.rank < b.rank;
            });
            for (const Waiter &w : list)
                want.push_back(w.slot);
            list.clear();
            waits.releaseAll(var,
                             [&](std::uint32_t s) { got.push_back(s); });
        }
        ASSERT_EQ(got, want) << "op " << op;
        std::size_t total = 0;
        for (const auto &l : lists)
            total += l.size();
        ASSERT_EQ(waits.size(), total) << "op " << op;
    }
}
