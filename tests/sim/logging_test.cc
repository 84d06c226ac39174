/** @file Logging and error-termination helpers. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/logging.hh"

using namespace psync::sim;

TEST(LoggingTest, CsprintfFormats)
{
    EXPECT_EQ(csprintf("x=%d y=%s", 7, "ok"), "x=7 y=ok");
    EXPECT_EQ(csprintf("%05u", 42u), "00042");
    EXPECT_EQ(csprintf("plain"), "plain");
}

TEST(LoggingTest, CsprintfLongStrings)
{
    std::string big(5000, 'a');
    std::string out = csprintf("<%s>", big.c_str());
    EXPECT_EQ(out.size(), big.size() + 2);
    EXPECT_EQ(out.front(), '<');
    EXPECT_EQ(out.back(), '>');
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("invariant %d broken", 3),
                 "invariant 3 broken");
}

TEST(LoggingDeathTest, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

TEST(LoggingTest, WarnAndInformDoNotTerminate)
{
    warn("just a warning %d", 1);
    inform("just info %d", 2);
    SUCCEED();
}

TEST(DebugFilterTest, SingleComponent)
{
    EXPECT_EQ(parseDebugFilter("sync"), DebugSync);
    EXPECT_EQ(parseDebugFilter("bus"), DebugBus);
    EXPECT_EQ(parseDebugFilter("sched"), DebugSched);
}

TEST(DebugFilterTest, CommaSeparatedList)
{
    EXPECT_EQ(parseDebugFilter("sync,bus"), DebugSync | DebugBus);
    EXPECT_EQ(parseDebugFilter("mem,proc,net"),
              DebugMem | DebugProc | DebugNet);
}

TEST(DebugFilterTest, AllSelectsEverything)
{
    unsigned mask = parseDebugFilter("all");
    EXPECT_EQ(mask, DebugAll);
    EXPECT_TRUE(mask & DebugSync);
    EXPECT_TRUE(mask & DebugCache);
}

TEST(DebugFilterTest, EmptyIsNoComponents)
{
    EXPECT_EQ(parseDebugFilter(""), 0u);
}

TEST(DebugFilterTest, WhitespaceAroundNamesIsIgnored)
{
    EXPECT_EQ(parseDebugFilter(" sync , bus "),
              DebugSync | DebugBus);
}

TEST(DebugFilterTest, UnknownNamesAreSkippedAndReported)
{
    std::string unknown;
    unsigned mask = parseDebugFilter("sync,tubrolift,bus", &unknown);
    EXPECT_EQ(mask, DebugSync | DebugBus);
    EXPECT_EQ(unknown, "tubrolift");
}

TEST(DebugFilterTest, SetDebugMaskControlsDebugEnabled)
{
    unsigned saved = debugMask();
    setDebugMask(DebugBus | DebugSched);
    EXPECT_TRUE(debugEnabled(DebugBus));
    EXPECT_TRUE(debugEnabled(DebugSched));
    EXPECT_FALSE(debugEnabled(DebugSync));
    EXPECT_FALSE(debugEnabled(DebugMem));
    setDebugMask(0);
    EXPECT_FALSE(debugEnabled(DebugBus));
    setDebugMask(saved);
}

TEST(DebugFilterTest, SetDebugMaskDropsUnknownBits)
{
    unsigned saved = debugMask();
    setDebugMask(~0u);
    EXPECT_EQ(debugMask(), static_cast<unsigned>(DebugAll));
    setDebugMask(saved);
}

TEST(DebugFilterDeathTest, EnvironmentParsedOnFirstUseWithWarning)
{
    // In a child process: set PSYNC_DEBUG, forget any mask read so
    // far, and read it again as the first PSYNC_DPRINTF site would.
    EXPECT_EXIT(
        {
            setenv("PSYNC_DEBUG", "bus,tubrolift", 1);
            detail::debugMaskWord.store(detail::debugMaskUnset);
            bool ok = debugEnabled(DebugBus) &&
                      !debugEnabled(DebugSync) &&
                      debugMask() == DebugBus;
            std::exit(ok ? 0 : 1);
        },
        ::testing::ExitedWithCode(0),
        "warn: PSYNC_DEBUG: unknown component 'tubrolift'");
}
