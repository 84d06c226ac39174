/** @file Trajectory merge/load and the regression detector. */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "bench/compare.hh"
#include "bench/registry.hh"
#include "bench/serve_bench.hh"

using namespace psync;

namespace {

core::json::Value
record(const std::string &id, std::uint64_t cycles)
{
    core::json::Value r = core::json::object();
    r.set("scenario", id);
    r.set("cycles", cycles);
    return r;
}

core::json::Value
trajectory(
    std::initializer_list<std::pair<const char *, std::uint64_t>>
        entries)
{
    core::json::Value doc = bench::makeTrajectoryDoc();
    for (const auto &entry : entries)
        bench::mergeRecord(doc, record(entry.first, entry.second));
    return doc;
}

/** `doc` with its header restamped to schema version `v`. */
core::json::Value
stamped(core::json::Value doc, int v)
{
    for (auto &member : doc.asObject()) {
        if (member.first == "schema_version")
            member.second = v;
    }
    return doc;
}

const bench::ScenarioDelta &
deltaFor(const bench::CompareResult &result, const std::string &id)
{
    for (const auto &delta : result.deltas) {
        if (delta.id == id)
            return delta;
    }
    static bench::ScenarioDelta missing;
    ADD_FAILURE() << "no delta for " << id;
    return missing;
}

} // namespace

TEST(CompareTest, MergeReplacesSameScenarioId)
{
    core::json::Value doc = bench::makeTrajectoryDoc();
    bench::mergeRecord(doc, record("a/x", 100));
    bench::mergeRecord(doc, record("a/y", 200));
    bench::mergeRecord(doc, record("a/x", 150));

    bench::Trajectory t = bench::loadTrajectory(doc);
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_EQ(t.cycles.size(), 2u);
    EXPECT_EQ(t.cycles[0].first, "a/x");
    EXPECT_EQ(t.cycles[0].second, 150u);
    EXPECT_EQ(t.cycles[1].first, "a/y");
}

TEST(CompareTest, LoadRejectsMalformedDocuments)
{
    core::json::Value empty = core::json::object();
    EXPECT_FALSE(bench::loadTrajectory(empty).ok);

    core::json::Value wrong_version = core::json::object();
    wrong_version.set("schema_version", 999);
    wrong_version.set("records", core::json::array());
    EXPECT_FALSE(bench::loadTrajectory(wrong_version).ok);

    core::json::Value bad_record = bench::makeTrajectoryDoc();
    core::json::Value no_cycles = core::json::object();
    no_cycles.set("scenario", "a/x");
    bench::mergeRecord(bad_record, std::move(no_cycles));
    EXPECT_FALSE(bench::loadTrajectory(bad_record).ok);

    EXPECT_TRUE(
        bench::loadTrajectory(bench::makeTrajectoryDoc()).ok);
}

TEST(CompareTest, LoadAcceptsOlderSchemaVersions)
{
    // v1 trajectory files (no host-timing fields) predate the
    // current layout and must keep loading — the checked-in
    // baseline history spans both.
    core::json::Value doc = stamped(trajectory({{"a/x", 100}}),
                                    bench::kMinTrajectorySchemaVersion);
    bench::Trajectory t = bench::loadTrajectory(doc);
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_EQ(t.cycles.size(), 1u);
    EXPECT_EQ(t.cycles[0].second, 100u);
}

TEST(CompareTest, LoadAcceptsEverySchemaVersionInHistory)
{
    // Each schema bump so far only added record kinds/fields; a file
    // stamped with any version from v1 through the current one must
    // load with its sim cycles intact. v10 and v11 reshaped the
    // serve records, which the loader skips, so they load the same
    // way.
    EXPECT_EQ(bench::kTrajectorySchemaVersion, 11);
    for (int v = bench::kMinTrajectorySchemaVersion;
         v <= bench::kTrajectorySchemaVersion; ++v) {
        core::json::Value doc = stamped(trajectory({{"a/x", 100}}), v);
        bench::Trajectory t = bench::loadTrajectory(doc);
        ASSERT_TRUE(t.ok) << "schema v" << v << ": " << t.error;
        ASSERT_EQ(t.cycles.size(), 1u) << "schema v" << v;
        EXPECT_EQ(t.cycles[0].second, 100u) << "schema v" << v;
    }
}

TEST(CompareTest, OpenTrajectoryKeepsRecordsAndRestampsOnce)
{
    const std::string path =
        ::testing::TempDir() + "compare_test_open_trajectory.json";
    ASSERT_TRUE(bench::writeJsonFile(
        path, stamped(trajectory({{"a/x", 100}, {"b/y", 7}}), 2)));

    core::json::Value doc = bench::openTrajectory(path);
    unsigned stamps = 0;
    for (const auto &member : doc.asObject())
        stamps += member.first == "schema_version";
    EXPECT_EQ(stamps, 1u);
    EXPECT_EQ(doc.find("schema_version")->asNumber(),
              bench::kTrajectorySchemaVersion);
    bench::Trajectory t = bench::loadTrajectory(doc);
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_EQ(t.cycles.size(), 2u);
    EXPECT_EQ(t.cycles[1].first, "b/y");

    // A missing file starts an empty trajectory.
    std::remove(path.c_str());
    EXPECT_EQ(bench::loadTrajectory(bench::openTrajectory(path))
                  .cycles.size(),
              0u);
}

TEST(CompareTest, ServeRecordsAreIgnoredByCycleComparison)
{
    // v8 serve records carry wall-time throughput, not simulated
    // cycles — the loader must skip them (like native records), so
    // mixed files still compare on the sim subset alone.
    core::json::Value doc = trajectory({{"a/x", 100}});
    core::json::Value serve = core::json::object();
    serve.set("scenario", "serve/uniform#g2x4");
    serve.set("kind", "serve");
    serve.set("programs_per_sec", 123456.0);
    bench::mergeRecord(doc, std::move(serve));

    bench::Trajectory t = bench::loadTrajectory(doc);
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_EQ(t.cycles.size(), 1u);
    EXPECT_EQ(t.cycles[0].first, "a/x");

    // And the regression detector treats two such files as equal.
    bench::CompareOptions exact;
    exact.requireIdentical = true;
    EXPECT_TRUE(bench::compareTrajectories(doc, doc, exact).ok());
}

TEST(CompareTest, ServeCellReportsTheMedianOfItsTrials)
{
    // Five trials of one cell, the first a slow outlier: the record
    // keeps the median and the quartiles, adds up failures and host
    // time, and says how many trials and host CPUs it saw.
    bench::ServeCellResult cell;
    const double rates[] = {166e3, 460e3, 500e3, 480e3, 440e3};
    for (double rate : rates) {
        bench::ServeCellResult trial;
        trial.mix = "uniform";
        trial.requests = 800;
        trial.programsRun = 204800;
        trial.failed = rate < 200e3 ? 1 : 0;
        trial.hostNanos = 1000;
        trial.hostCpus = 4;
        trial.trialRates = {rate};
        cell.addTrial(trial);
    }
    EXPECT_DOUBLE_EQ(cell.programsPerSec(), 460e3);
    EXPECT_DOUBLE_EQ(cell.rateQuantile(0.25), 440e3);
    EXPECT_DOUBLE_EQ(cell.rateQuantile(0.75), 480e3);
    EXPECT_EQ(cell.failed, 1u);
    EXPECT_EQ(cell.hostNanos, 5000u);
    EXPECT_EQ(cell.requests, 800u);

    core::json::Value rec = cell.toJson();
    EXPECT_EQ(rec.find("trials")->asNumber(), 5);
    EXPECT_EQ(rec.find("host_cpus")->asNumber(), 4);
    EXPECT_DOUBLE_EQ(rec.find("programs_per_sec")->asNumber(), 460e3);
    EXPECT_DOUBLE_EQ(rec.find("programs_per_sec_q1")->asNumber(),
                     440e3);
    EXPECT_DOUBLE_EQ(rec.find("programs_per_sec_q3")->asNumber(),
                     480e3);
}

TEST(CompareTest, ExactModeFlagsAnyCycleDifference)
{
    bench::CompareOptions exact;
    exact.requireIdentical = true;

    // One cycle slower AND one cycle faster both fail; the default
    // 2% threshold would call these unchanged.
    auto base = trajectory({{"a/x", 1000}, {"a/y", 1000}});
    auto cur = trajectory({{"a/x", 1001}, {"a/y", 999}});
    bench::CompareResult result =
        bench::compareTrajectories(base, cur, exact);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.regressions, 2u);
    EXPECT_EQ(deltaFor(result, "a/x").kind,
              bench::ScenarioDelta::Kind::regression);
    EXPECT_EQ(deltaFor(result, "a/y").kind,
              bench::ScenarioDelta::Kind::regression);

    bench::CompareResult loose =
        bench::compareTrajectories(base, cur, {});
    EXPECT_TRUE(loose.ok());
}

TEST(CompareTest, ExactModeRequiresSameScenarioSet)
{
    bench::CompareOptions exact;
    exact.requireIdentical = true;
    auto base = trajectory({{"a/x", 100}, {"a/y", 200}});
    auto cur = trajectory({{"a/x", 100}, {"a/z", 300}});
    bench::CompareResult result =
        bench::compareTrajectories(base, cur, exact);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.added, 1u);
    EXPECT_EQ(result.removed, 1u);
}

TEST(CompareTest, ExactModePassesOnIdenticalTrajectories)
{
    bench::CompareOptions exact;
    exact.requireIdentical = true;
    auto base = trajectory({{"a/x", 100}, {"a/y", 200}});
    auto cur = trajectory({{"a/x", 100}, {"a/y", 200}});
    bench::CompareResult result =
        bench::compareTrajectories(base, cur, exact);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.unchanged, 2u);
}

TEST(CompareTest, ClassifiesRegressionImprovementUnchanged)
{
    auto baseline = trajectory(
        {{"a/slower", 1000}, {"a/faster", 1000}, {"a/same", 1000}});
    auto current = trajectory(
        {{"a/slower", 1100}, {"a/faster", 800}, {"a/same", 1005}});

    bench::CompareOptions opts;
    opts.regressThresholdPct = 2.0;
    auto result =
        bench::compareTrajectories(baseline, current, opts);

    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.regressions, 1u);
    EXPECT_EQ(result.improvements, 1u);
    EXPECT_EQ(result.unchanged, 1u);
    EXPECT_EQ(deltaFor(result, "a/slower").kind,
              bench::ScenarioDelta::Kind::regression);
    EXPECT_NEAR(deltaFor(result, "a/slower").deltaPct, 10.0, 1e-9);
    EXPECT_EQ(deltaFor(result, "a/faster").kind,
              bench::ScenarioDelta::Kind::improvement);
    EXPECT_EQ(deltaFor(result, "a/same").kind,
              bench::ScenarioDelta::Kind::unchanged);
}

TEST(CompareTest, ThresholdGatesTheVerdict)
{
    auto baseline = trajectory({{"a/x", 1000}});
    auto current = trajectory({{"a/x", 1100}});

    bench::CompareOptions loose;
    loose.regressThresholdPct = 15.0;
    EXPECT_TRUE(
        bench::compareTrajectories(baseline, current, loose).ok());

    bench::CompareOptions tight;
    tight.regressThresholdPct = 5.0;
    EXPECT_FALSE(
        bench::compareTrajectories(baseline, current, tight).ok());
}

TEST(CompareTest, NewAndRemovedScenariosAreNotRegressions)
{
    auto baseline = trajectory({{"a/kept", 1000}, {"a/gone", 500}});
    auto current = trajectory({{"a/kept", 1000}, {"a/new", 700}});

    auto result = bench::compareTrajectories(baseline, current, {});
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.added, 1u);
    EXPECT_EQ(result.removed, 1u);
    EXPECT_EQ(deltaFor(result, "a/new").kind,
              bench::ScenarioDelta::Kind::added);
    EXPECT_EQ(deltaFor(result, "a/gone").kind,
              bench::ScenarioDelta::Kind::removed);
}

TEST(CompareTest, MalformedInputFailsSafe)
{
    core::json::Value bogus = core::json::object();
    auto current = trajectory({{"a/x", 100}});
    auto result = bench::compareTrajectories(bogus, current, {});
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.deltas.size(), 1u);
    EXPECT_NE(result.deltas[0].id.find("malformed baseline"),
              std::string::npos);
}

TEST(CompareTest, PrintedTableNamesEveryVerdict)
{
    auto baseline = trajectory({{"a/slower", 1000}, {"a/gone", 10}});
    auto current = trajectory({{"a/slower", 2000}, {"a/new", 20}});
    auto result = bench::compareTrajectories(baseline, current, {});

    std::ostringstream os;
    bench::printCompare(os, result, {});
    EXPECT_NE(os.str().find("REGRESSION"), std::string::npos);
    EXPECT_NE(os.str().find("added"), std::string::npos);
    EXPECT_NE(os.str().find("removed"), std::string::npos);
    EXPECT_NE(os.str().find("FAIL"), std::string::npos);
    EXPECT_NE(os.str().find("+100.0%"), std::string::npos);
}
