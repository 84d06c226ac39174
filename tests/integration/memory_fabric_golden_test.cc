/**
 * @file
 * Pinned RunResults for memory-fabric hot spots. Cached spinners
 * whose polls settle at their module park before earlier polls
 * finish, and the re-fetch burst of each invalidation must still
 * issue in poll-completion order. These goldens pin every RunResult
 * field but `events_executed` (settled polls and batched re-fetches
 * legitimately cut events) for two runs where that order decides
 * the cycles: the fig32-jitter statement-counter scenario and a
 * P=64 Fig. 2.1 statement-counter run on the flat memory fabric.
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

void
expectGolden(const core::RunResult &r, const std::string &name)
{
    ASSERT_TRUE(r.completed) << name;
    std::string path =
        std::string(PSYNC_INTEGRATION_GOLDEN_DIR) + "/" + name + ".json";
    std::string got = pinned(r);
    if (std::getenv("PSYNC_REGEN_GOLDEN")) {
        std::ofstream(path) << got;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden " << path;
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str()) << name;
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
