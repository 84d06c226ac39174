/**
 * @file
 * Pinned RunResults for memory-fabric hot spots. Cached spinners
 * whose polls settle at their module park before earlier polls
 * finish, and the re-fetch burst of each invalidation must still
 * issue in poll-completion order. These goldens pin every RunResult
 * field but `events_executed` (settled polls and batched re-fetches
 * legitimately cut events) for two runs where that order decides
 * the cycles: the fig32-jitter statement-counter scenario, a P=64
 * Fig. 2.1 statement-counter run on the flat memory fabric and the
 * P=256 flat-memory hot spot. A fourth golden pins the full
 * Machine::dumpStats text of a flat-memory run, so every bus, memory
 * and fabric statistic (not only the RunResult summary) is held.
 *
 * Set PSYNC_REGEN_GOLDEN=1 to rewrite the files from the current
 * build instead of comparing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/registry.hh"
#include "core/runtime.hh"
#include "sim/machine.hh"
#include "workloads/fig21.hh"

using namespace psync;

namespace {

std::string
pinned(const core::RunResult &r)
{
    std::ostringstream os;
    r.toJson().dump(os, 2);
    std::string text = os.str();
    std::size_t key = text.find("\"events_executed\": ");
    if (key != std::string::npos) {
        std::size_t line = text.rfind('\n', key) + 1;
        text.erase(line, text.find('\n', key) + 1 - line);
    }
    return text + "\n";
}

/** Compare `got` with golden file `file`, or rewrite it. */
void
expectGoldenText(const std::string &got, const std::string &file)
{
    std::string path =
        std::string(PSYNC_INTEGRATION_GOLDEN_DIR) + "/" + file;
    if (std::getenv("PSYNC_REGEN_GOLDEN")) {
        std::ofstream(path) << got;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden " << path;
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str()) << file;
}

void
expectGolden(const core::RunResult &r, const std::string &name)
{
    ASSERT_TRUE(r.completed) << name;
    expectGoldenText(pinned(r), name + ".json");
}

} // namespace

TEST(MemoryFabricGoldenTest, Fig32JitterStatementMem)
{
    const bench::Scenario *s =
        bench::findScenario("fig32-jitter/statement-mem");
    ASSERT_NE(s, nullptr);
    bench::ScenarioRecord record = bench::runScenario(*s);
    expectGolden(record.result.run, "fig32-jitter-statement-mem");
}

TEST(MemoryFabricGoldenTest, Fig21StatementFlatMemAtP64)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = 64;
    cfg.machine.fabric = sim::FabricKind::memory;
    auto result =
        core::runDoacross(workloads::makeFig21Loop(256),
                          sync::SchemeKind::statementOriented, cfg);
    EXPECT_TRUE(result.correct());
    expectGolden(result.run, "fig21-p64-statement-flat-mem");
}

TEST(MemoryFabricGoldenTest, P256FlatMemHotSpot)
{
    // The hot-spot re-fetch bursts at P=256: a few hundred spinners
    // released by each invalidation queue at one module.
    const bench::Scenario *s =
        bench::findScenario("scale-1024/p256-flat-mem");
    ASSERT_NE(s, nullptr);
    bench::ScenarioRecord record = bench::runScenario(*s);
    expectGolden(record.result.run, "scale-1024-p256-flat-mem");
}

TEST(MemoryFabricGoldenTest, FlatMemMachineStats)
{
    // Every statistic the machine keeps (data_bus.*, memory.*,
    // syncfab.mem.* and the per-processor lines) for a Fig. 2.1
    // statement-counter run on the flat memory fabric, driven
    // through the program pool rather than a registry scenario.
    core::RunConfig cfg;
    cfg.machine.numProcs = 32;
    cfg.machine.fabric = sim::FabricKind::memory;
    dep::Loop loop = workloads::makeFig21Loop(128);
    sim::Machine machine(cfg.machine);
    core::PlannedDoacross planned =
        core::planDoacross(loop, sync::SchemeKind::statementOriented,
                           cfg, machine.fabric());
    core::RunResult run = core::runProgramPool(
        machine, planned.programs, cfg.schedule, cfg.tickLimit,
        cfg.chunkSize);
    ASSERT_TRUE(run.completed);

    std::ostringstream os;
    machine.dumpStats(os);
    std::string got = os.str();
    EXPECT_NE(got.find("data_bus.transactions"), std::string::npos);
    EXPECT_NE(got.find("memory.settled_polls"), std::string::npos);
    EXPECT_NE(got.find("syncfab.mem.polls"), std::string::npos);
    expectGoldenText(got, "fig21-p32-statement-flat-mem-stats.txt");
}

TEST(MemoryFabricGoldenTest, P1024FlatMemRefetchBurstsCostNoEventPerPoll)
{
    // About 1.57M of the hot spot's polls are re-fetches; as bus
    // bursts they run without an event each, so the whole scenario
    // stays under 200k events (1.67M with an event per poll).
    const bench::Scenario *s =
        bench::findScenario("scale-1024/p1024-flat-mem");
    ASSERT_NE(s, nullptr);
    bench::ScenarioRecord record = bench::runScenario(*s);
    ASSERT_TRUE(record.result.run.completed);
    EXPECT_LT(record.result.run.eventsExecuted, 200000u);
}
