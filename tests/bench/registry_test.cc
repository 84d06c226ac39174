/** @file Scenario registry: ids, matching, and record contents. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench/registry.hh"
#include "core/tracing.hh"
#include "sim/machine.hh"

using namespace psync;

TEST(RegistryTest, IdsAreUniqueAndGroupSlashVariant)
{
    const auto &scenarios = bench::allScenarios();
    ASSERT_GE(scenarios.size(), 20u);
    std::set<std::string> ids;
    for (const auto &s : scenarios) {
        EXPECT_TRUE(ids.insert(s.id).second)
            << "duplicate id " << s.id;
        EXPECT_NE(s.id.find('/'), std::string::npos) << s.id;
        EXPECT_FALSE(s.workload.empty()) << s.id;
        EXPECT_FALSE(s.scheme.empty()) << s.id;
        EXPECT_TRUE(s.loop != nullptr) << s.id;
    }
}

TEST(RegistryTest, FindAndMatch)
{
    const bench::Scenario *s =
        bench::findScenario("fig21-n64/statement");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind, sync::SchemeKind::statementOriented);
    EXPECT_EQ(bench::findScenario("no/such"), nullptr);

    // An exact id match selects just that scenario even though the
    // id is also a substring of nothing else.
    auto exact = bench::matchScenarios("fig21-n64/statement");
    ASSERT_EQ(exact.size(), 1u);
    EXPECT_EQ(exact[0], s);

    // A group prefix matches the whole group.
    auto group = bench::matchScenarios("fig21-n64");
    EXPECT_EQ(group.size(), 3u);

    // Empty pattern matches everything.
    EXPECT_EQ(bench::matchScenarios("").size(),
              bench::allScenarios().size());
    EXPECT_TRUE(bench::matchScenarios("zzz-nothing").empty());
}

TEST(RegistryTest, RunProducesBoundAndSchemaVersionedRecord)
{
    const bench::Scenario *s =
        bench::findScenario("fig21-n64/process-improved");
    ASSERT_NE(s, nullptr);

    bench::ScenarioRecord record = bench::runScenario(*s);
    EXPECT_TRUE(record.result.run.completed);
    EXPECT_GT(record.result.run.cycles, 0u);
    EXPECT_GT(record.depBoundCycles, 0u);
    EXPECT_GE(record.boundCycles, record.depBoundCycles > 0 ? 1u
                                                           : 0u);
    // The run can never beat the dependence-or-work bound.
    EXPECT_GE(record.result.run.cycles, record.boundCycles);

    core::json::Value j = record.toJson();
    const core::json::Value *version = j.find("schema_version");
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->asNumber(), bench::kTrajectorySchemaVersion);
    EXPECT_EQ(j.find("scenario")->asString(), s->id);
    EXPECT_EQ(j.find("scheme")->asString(), s->scheme);
    EXPECT_GT(j.find("cycles")->asNumber(), 0);
    EXPECT_GT(j.find("bound_cycles")->asNumber(), 0);
    const core::json::Value *split = j.find("cycle_split");
    ASSERT_NE(split, nullptr);
    ASSERT_TRUE(split->isObject());
    EXPECT_NE(split->find("compute_cycles"), nullptr);
    EXPECT_NE(split->find("spin_cycles"), nullptr);
    EXPECT_NE(split->find("sync_overhead_cycles"), nullptr);
    EXPECT_NE(split->find("stall_cycles"), nullptr);
    ASSERT_NE(j.find("result"), nullptr);
    EXPECT_TRUE(j.find("result")->isObject());
}

TEST(RegistryTest, TracedRunRecordsWaitEdges)
{
    const bench::Scenario *s =
        bench::findScenario("fig21-n64/reference");
    ASSERT_NE(s, nullptr);
    core::TraceRecorder rec;
    bench::ScenarioRecord record = bench::runScenario(*s, &rec);
    EXPECT_TRUE(record.result.run.completed);
    EXPECT_FALSE(rec.waitEdges().empty());
}

TEST(RegistryTest, GlobMatchSemantics)
{
    EXPECT_TRUE(bench::globMatch("fig32-*", "fig32-jitter/statement"));
    EXPECT_TRUE(bench::globMatch("*statement", "fig32-jitter/statement"));
    EXPECT_TRUE(bench::globMatch("*/statement", "fig21-n64/statement"));
    EXPECT_TRUE(bench::globMatch("fig21-n6?/*", "fig21-n64/reference"));
    EXPECT_TRUE(bench::globMatch("*", "anything/at-all"));
    EXPECT_TRUE(bench::globMatch("", ""));

    // Whole-string match, not substring.
    EXPECT_FALSE(bench::globMatch("fig32", "fig32-jitter/statement"));
    EXPECT_FALSE(bench::globMatch("?", "ab"));
    EXPECT_FALSE(bench::globMatch("a*c", "abd"));

    // '*' crosses '/' (scenario ids are flat strings).
    EXPECT_TRUE(bench::globMatch("fig21*reference",
                                 "fig21-n64/reference"));
}

TEST(RegistryTest, MatchScenariosGlobSelectsGroups)
{
    auto group = bench::matchScenariosGlob("fig21-n64/*");
    EXPECT_EQ(group.size(), 3u);
    for (const auto *s : group)
        EXPECT_EQ(s->id.rfind("fig21-n64/", 0), 0u) << s->id;

    auto schemes = bench::matchScenariosGlob("*/statement");
    EXPECT_GE(schemes.size(), 2u);
    for (const auto *s : schemes)
        EXPECT_NE(s->id.find("/statement"), std::string::npos)
            << s->id;

    // Without metacharacters, globs degrade to substring matching
    // so --scenarios accepts the same patterns --run does.
    EXPECT_EQ(bench::matchScenariosGlob("fig21-n64").size(), 3u);
    EXPECT_TRUE(bench::matchScenariosGlob("zzz-*").empty());
}

TEST(RegistryTest, SampledRunAttachesTimelineSummary)
{
    const bench::Scenario *s =
        bench::findScenario("fig21-n64/statement");
    ASSERT_NE(s, nullptr);

    // Unsampled record: no timeline field (byte-comparable with
    // v5 output apart from the version stamp).
    bench::ScenarioRecord plain = bench::runScenario(*s);
    EXPECT_EQ(plain.timeline, nullptr);
    EXPECT_FALSE(plain.toJson().has("timeline"));

    core::TraceRecorder rec;
    bench::ScenarioRecord sampled = bench::runScenario(
        *s, &rec, nullptr, /*profile=*/false,
        bench::kTimelineAutoInterval);

    // Sampling is passive: identical cycles.
    EXPECT_EQ(sampled.result.run.cycles, plain.result.run.cycles);

    ASSERT_NE(sampled.timeline, nullptr);
    EXPECT_FALSE(sampled.timeline->empty());
    EXPECT_EQ(sampled.timeline->boundaries.back(),
              sampled.result.run.cycles);

    core::json::Value j = sampled.toJson();
    EXPECT_EQ(j.find("schema_version")->asNumber(),
              bench::kTrajectorySchemaVersion);
    const core::json::Value *tl = j.find("timeline");
    ASSERT_NE(tl, nullptr);
    ASSERT_TRUE(tl->isObject());
    EXPECT_GT(tl->find("samples")->asNumber(), 1);
    EXPECT_NE(tl->find("peak_bus_occupancy"), nullptr);
    EXPECT_NE(tl->find("hotspots"), nullptr);
}

namespace {

/**
 * Keeps only the tick of each timeline sample batch, so a sampled
 * P=1024 run costs no per-event trace memory.
 */
class BatchTicks : public sim::Tracer
{
  public:
    std::vector<sim::Tick> ticks;

    void
    sample(sim::SampleStream, std::uint32_t, sim::Tick at,
           double) override
    {
        if (ticks.empty() || ticks.back() != at)
            ticks.push_back(at);
    }

    void
    thinSamples(sim::Tick origin, sim::Tick stride) override
    {
        std::erase_if(ticks, [&](sim::Tick at) {
            return (at - origin) % stride != 0;
        });
    }
};

} // namespace

TEST(RegistryTest, HotSpotTimelineStaysUnderSampleCap)
{
    // The auto interval samples p1024-flat-mem (a 130-cycle bound,
    // ~6.3M cycles) every 16 cycles; the machine's sample cap must
    // thin that to a bounded series without touching the cycles.
    const bench::Scenario *s =
        bench::findScenario("scale-1024/p1024-flat-mem");
    ASSERT_NE(s, nullptr);
    bench::ScenarioRecord plain = bench::runScenario(*s);

    BatchTicks batches;
    bench::ScenarioRecord sampled = bench::runScenario(
        *s, &batches, nullptr, /*profile=*/false,
        bench::kTimelineAutoInterval);
    EXPECT_EQ(sampled.result.run.cycles, plain.result.run.cycles);
    ASSERT_GE(batches.ticks.size(), 3u);
    EXPECT_LT(batches.ticks.size(), sim::Machine::timelineSampleCap);
    EXPECT_GT(batches.ticks[1] - batches.ticks[0], 16u);
    EXPECT_EQ(batches.ticks.back(), sampled.result.run.cycles);
}
