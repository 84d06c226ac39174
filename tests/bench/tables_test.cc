/**
 * @file Experiment tables: ids, the registry contract they must not
 * disturb, and every table's paper claim — held on its live rows and
 * fired by a seeded bug (its rows with the compared columns swapped).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/registry.hh"
#include "bench/tables.hh"

using namespace psync;
using core::json::Value;

namespace {

using Labels = std::map<std::string, std::string>;

const std::vector<std::string> kTableIds = {
    "E2", "E3", "E4",  "E5",  "E6",  "E7",  "E8",
    "E9", "E10", "E11", "E13", "E14", "E15"};

const bench::ExperimentTable &
table(const std::string &id)
{
    for (const auto &t : bench::experimentTables()) {
        if (id == t.id)
            return t;
    }
    throw std::runtime_error("no table " + id);
}

Value &
at(Value &row, const std::string &path)
{
    Value *v = &row;
    std::size_t pos = 0;
    for (;;) {
        std::size_t dot = path.find('.', pos);
        std::string key = path.substr(pos, dot - pos);
        Value *next = nullptr;
        for (auto &[k, member] : v->asObject())
            next = k == key ? &member : next;
        if (!next)
            throw std::runtime_error("no " + path + " in a row");
        v = next;
        if (dot == std::string::npos)
            return *v;
        pos = dot + 1;
    }
}

Labels
labelsOf(const Value &row)
{
    Labels out;
    for (const auto &[key, value] : row.asObject()) {
        if (value.isString() && key != "section")
            out[key] = value.asString();
    }
    return out;
}

/**
 * Swap `path` between every row labelled with `from` and the row
 * labelled like it but with `to`.
 */
std::function<void(bench::Rows &)>
swapAcross(Labels from, Labels to, std::string path)
{
    return [=](bench::Rows &rows) {
        int swapped = 0;
        for (Value &row : rows) {
            Labels want = labelsOf(row);
            bool match = true;
            for (const auto &[key, value] : from)
                match = match && want.count(key) && want[key] == value;
            if (!match)
                continue;
            for (const auto &[key, value] : to)
                want[key] = value;
            for (Value &other : rows) {
                if (labelsOf(other) == want) {
                    std::swap(at(row, path), at(other, path));
                    ++swapped;
                }
            }
        }
        ASSERT_GT(swapped, 0) << "the seeded bug swapped nothing";
    };
}

/** Swap two measured paths within every row that has both. */
std::function<void(bench::Rows &)>
swapWithin(std::string a, std::string b)
{
    return [=](bench::Rows &rows) {
        for (Value &row : rows) {
            if (row.find(a.substr(0, a.find('.'))) &&
                row.find(b.substr(0, b.find('.'))))
                std::swap(at(row, a), at(row, b));
        }
    };
}

/** Per table: its rows with the columns its claim compares swapped. */
const std::map<std::string, std::function<void(bench::Rows &)>> &
seededBugs()
{
    static const std::map<std::string, std::function<void(bench::Rows &)>>
        bugs = {
            {"E2", swapAcross({{"scheme", "statement"}},
                              {{"scheme", "reference"}}, "sync_vars")},
            {"E3", swapAcross({{"scheme", "statement"}},
                              {{"scheme", "process-improved"}},
                              "run.cycles")},
            {"E4", swapAcross({{"primitives", "basic"}},
                              {{"primitives", "improved"}}, "run.cycles")},
            {"E5", swapAcross({{"g_scs", "1"}}, {{"g_scs", "2"}},
                              "run.sync_ops")},
            {"E6", swapAcross({{"scheme", "process-improved"}},
                              {{"scheme", "reference"}}, "run.cycles")},
            {"E7", swapAcross({{"signals", "early"}},
                              {{"signals", "deferred"}}, "run.cycles")},
            {"E8", swapWithin("butterfly.cycles", "counter.cycles")},
            {"E9", swapWithin("pairwise.cycles", "counter.cycles")},
            {"E10", swapAcross({{"fabric", "registers+broadcast"}},
                               {{"fabric", "memory (polling)"}},
                               "run.cycles")},
            {"E11", swapAcross({{"scheme", "process-improved"}},
                               {{"scheme", "statement"}}, "run.cycles")},
            {"E13", swapAcross({{"machine", "bus+registers / process"}},
                               {{"machine", "omega+memory keys / reference"}},
                               "run.cycles")},
            {"E14", swapAcross({{"policy", "self"}, {"chunk", "1"}},
                               {{"policy", "static"}, {"chunk", "0"}},
                               "run.cycles")},
            {"E15", swapAcross({{"coverage", "on"}}, {{"coverage", "off"}},
                               "run.sync_ops")},
        };
    return bugs;
}

} // namespace

TEST(TablesTest, IdsAreUniqueAndCoverTheExperiments)
{
    std::vector<std::string> ids;
    for (const auto &t : bench::experimentTables()) {
        ids.push_back(t.id);
        EXPECT_FALSE(t.parts.empty()) << t.id;
        EXPECT_TRUE(t.rows && t.check) << t.id;
    }
    EXPECT_EQ(ids, kTableIds);
    EXPECT_EQ(seededBugs().size(), kTableIds.size());
}

// perfbench's paper-sweep requires exactly the 41 non-scale scenarios
// with recorded cycles, and BENCH_PSYNC.json is keyed by these ids:
// tables may reuse registered scenarios but must never add, drop or
// reorder one.
TEST(TablesTest, RegistryKeepsItsIdsInOrder)
{
    const std::vector<std::string> expected = {
        "fig21-n64/process-improved", "fig21-n64/statement",
        "fig21-n64/reference", "fig21-n256/reference",
        "fig21-n256/instance", "fig21-n256/statement",
        "fig21-n256/process-basic", "fig21-n256/process-improved",
        "fig21-n256/reference+cedar", "nested-32x32/reference",
        "nested-32x32/instance", "nested-32x32/statement",
        "nested-32x32/process-basic", "nested-32x32/process-improved",
        "nested-32x32/reference+cedar", "branches-n256/reference",
        "branches-n256/statement", "branches-n256/process-basic",
        "branches-n256/process-improved", "branches-n256/reference+cedar",
        "branches-n256/process-improved-deferred", "fig32-jitter/statement",
        "fig32-jitter/process-basic", "fig32-jitter/process-improved",
        "fig32-jitter/statement-mem", "fabric-fig21/mem-cached",
        "fabric-fig21/mem-polling", "coalescing-fig21/on",
        "coalescing-fig21/off", "folding-x2/process-basic",
        "folding-x2/process-improved", "sched-jitter/self",
        "sched-jitter/static-cyclic", "sched-jitter/chunked-4",
        "sched-jitter/guided", "coverage-dense/on", "coverage-dense/off",
        "scale-n1024/bus-process", "scale-n1024/omega-reference",
        "relax-32x32/process-improved", "relax-32x32/statement",
        "scale-1024/p256-flat-mem", "scale-1024/p256-flat-reg",
        "scale-1024/p256-combining", "scale-1024/p256-hier",
        "scale-1024/p1024-flat-mem", "scale-1024/p1024-flat-reg",
        "scale-1024/p1024-combining", "scale-1024/p1024-hier"};
    std::vector<std::string> ids;
    for (const auto &s : bench::allScenarios())
        ids.push_back(s.id);
    EXPECT_EQ(ids, expected);
}

class TableClaimTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(TableClaimTest, HoldsOnLiveRows)
{
    const bench::ExperimentTable &t = table(GetParam());
    bench::Rows rows = t.rows();
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(t.check(rows), "");
}

TEST_P(TableClaimTest, FiresOnSwappedColumns)
{
    const bench::ExperimentTable &t = table(GetParam());
    bench::Rows rows = t.rows();
    seededBugs().at(t.id)(rows);
    std::string failure = t.check(rows);
    EXPECT_NE(failure, "") << "claim missed the swapped columns";
}

INSTANTIATE_TEST_SUITE_P(
    Tables, TableClaimTest, ::testing::ValuesIn(kTableIds),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });
