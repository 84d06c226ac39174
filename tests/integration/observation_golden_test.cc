/**
 * @file
 * Golden snapshots of every reader of a recorded trace.
 *
 * Three registry scenarios are run once each with a TraceRecorder,
 * profiling on and the timeline sampled at a fixed interval. Their
 * traces exercise every sync-op kind the readers distinguish:
 * sync-bus broadcasts (fig32-jitter/statement), coalesced pending
 * writes (coalescing-fig21/on), memory polls and Cedar keyed
 * accesses (fig21-n256/reference+cedar). For each run the critical
 * path profile, the blame report, the timeline and the Chrome trace
 * export must match the checked-in digest under
 * tests/integration/golden/observation/: the byte size and FNV-1a
 * hash of each JSON document, the Chrome trace's event count per
 * category and its track names. The full documents run to megabytes,
 * so only their hashes are checked in. The Chrome trace is pinned
 * without its "counter" and "instant" categories, so it holds the
 * tracks a change to the recorder's event vocabulary must keep.
 *
 * Regenerate after an intentional change with:
 *   PSYNC_UPDATE_GOLDEN=1 ./build/tests/observation_golden_test
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench/registry.hh"
#include "core/blame.hh"
#include "core/profile.hh"
#include "core/timeline.hh"
#include "core/tracing.hh"

using namespace psync;

namespace {

/** Timeline interval shared by every pinned run. */
constexpr sim::Tick kInterval = 64;

/** "<name> <bytes> <fnv1a-64>" for one JSON document. */
std::string
digest(const char *name, const core::json::Value &v)
{
    std::string text = v.dump(1);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(name) + " " + std::to_string(text.size()) +
           " " + hex + "\n";
}

/** Chrome trace minus the counter and instant categories. */
core::json::Value
pinnedChromeTrace(const core::TraceRecorder &recorder)
{
    core::json::Value doc = recorder.chromeTrace();
    for (auto &member : doc.asObject()) {
        if (member.first != "traceEvents")
            continue;
        std::erase_if(member.second.asArray(),
                      [](const core::json::Value &ev) {
                          const core::json::Value *cat = ev.find("cat");
                          return cat && (cat->asString() == "counter" ||
                                         cat->asString() == "instant");
                      });
    }
    return doc;
}

void
checkGolden(const std::string &actual, const std::string &file)
{
    std::string path =
        std::string(PSYNC_OBSERVATION_GOLDEN_DIR) + "/" + file;

    if (std::getenv("PSYNC_UPDATE_GOLDEN")) {
        std::ofstream os(path);
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        os << actual;
        return;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is.good())
        << "missing golden file " << path
        << " (run with PSYNC_UPDATE_GOLDEN=1 to create it)";
    std::ostringstream expected;
    expected << is.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << file << " diverged from " << path
        << " (rerun with PSYNC_UPDATE_GOLDEN=1 if intended)";
}

void
checkScenario(const std::string &id)
{
    const bench::Scenario *scenario = bench::findScenario(id);
    ASSERT_NE(scenario, nullptr) << id;

    core::TraceRecorder recorder;
    bench::ScenarioRecord record = bench::runScenario(
        *scenario, &recorder, nullptr, /*profile=*/true, kInterval);
    ASSERT_TRUE(record.profile);
    ASSERT_TRUE(record.timeline);
    core::BlameReport blame = core::buildBlameReport(
        recorder, record.result.run, record.boundCycles);

    core::json::Value chrome = pinnedChromeTrace(recorder);
    std::string actual = digest("profile", record.profile->toJson()) +
                         digest("blame", blame.toJson()) +
                         digest("timeline", record.timeline->toJson()) +
                         digest("chrome", chrome);
    std::map<std::string, std::size_t> per_cat;
    std::string tracks;
    for (const auto &ev : chrome.find("traceEvents")->asArray()) {
        const core::json::Value *cat = ev.find("cat");
        ++per_cat[cat ? cat->asString() : "metadata"];
        if (!cat) {
            tracks += "track " +
                      std::to_string(static_cast<int>(
                          ev.find("pid")->asNumber())) +
                      " " +
                      std::to_string(static_cast<int>(
                          ev.find("tid")->asNumber())) +
                      " " +
                      ev.find("args")->find("name")->asString() +
                      "\n";
        }
    }
    for (const auto &entry : per_cat) {
        actual += "events " + entry.first + " " +
                  std::to_string(entry.second) + "\n";
    }
    actual += tracks;

    std::string stem = id;
    for (char &c : stem) {
        if (c == '/' || c == '+')
            c = '-';
    }
    checkGolden(actual, stem + ".txt");
}

} // namespace

TEST(ObservationGoldenTest, Fig32JitterStatement)
{
    checkScenario("fig32-jitter/statement");
}

TEST(ObservationGoldenTest, CoalescingFig21On)
{
    checkScenario("coalescing-fig21/on");
}

TEST(ObservationGoldenTest, Fig21N256ReferenceCedar)
{
    checkScenario("fig21-n256/reference+cedar");
}
