/**
 * @file
 * Seed corpus of fuzzer-found programs, replayed as deterministic
 * regressions.
 *
 * Every .loop file under tests/fuzz/corpus is a shrunk divergence
 * from a past campaign (the header comment of each file names the
 * bug it flushed out). Each must parse, round-trip through the
 * canonical printer, and run the full differential matrix clean
 * under several case configurations. A second battery replays the
 * original (unshrunk) generator cases by (seed, index), and a
 * negative test pins down what the IR verifier must reject.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "bench/fuzz.hh"
#include "core/critical_path.hh"
#include "dep/loop_text.hh"
#include "ir/passes.hh"
#include "workloads/fuzz.hh"

using namespace psync;

namespace {

std::vector<std::filesystem::path>
corpusFiles()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(
             PSYNC_FUZZ_CORPUS_DIR)) {
        if (entry.path().extension() == ".loop")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream in(p);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(FuzzCorpusTest, CorpusIsNonEmpty)
{
    EXPECT_GE(corpusFiles().size(), 7u);
}

TEST(FuzzCorpusTest, EveryFileParsesAndRoundTrips)
{
    for (const auto &file : corpusFiles()) {
        dep::ParsedLoop p = dep::parseLoop(slurp(file));
        ASSERT_TRUE(p.ok) << file << ": " << p.error;
        std::string printed = dep::printLoop(p.loop);
        dep::ParsedLoop again = dep::parseLoop(printed);
        ASSERT_TRUE(again.ok) << file << ": " << again.error;
        EXPECT_EQ(dep::printLoop(again.loop), printed) << file;
    }
}

TEST(FuzzCorpusTest, EveryFileRunsTheMatrixClean)
{
    // Three indices pick three different analytical gate schemes
    // and three case configurations; every corpus loop must come
    // through the whole scheme x backend x passes matrix with all
    // oracles agreeing.
    bench::FuzzOptions opts;
    opts.shrink = false;
    for (const auto &file : corpusFiles()) {
        dep::ParsedLoop p = dep::parseLoop(slurp(file));
        ASSERT_TRUE(p.ok) << file << ": " << p.error;
        for (std::uint64_t index : {0ull, 2ull, 4ull}) {
            bench::FuzzCaseConfig cfg =
                bench::fuzzCaseConfig(11, index);
            auto outcome =
                bench::runFuzzCase(p.loop, cfg, opts, index);
            EXPECT_TRUE(outcome.ok())
                << file << " index " << index << ": "
                << (outcome.failures.empty()
                        ? ""
                        : outcome.failures.front());
        }
    }
}

TEST(FuzzCorpusTest, HistoricalGeneratorCasesRunClean)
{
    // The original, unshrunk campaign cases the corpus files were
    // minimized from. Regenerated from (seed, index) — the
    // generator is a pure function of both — and replayed under
    // the exact per-case configuration the campaign used. Campaigns
    // that predate strided subscripts reproduce byte-identically
    // under the grammar's unit-coefficient mode; later finds use
    // the default limits.
    struct Case { std::uint64_t seed, index; bool unitCoeff; };
    const Case cases[] = {
        {42, 39, true}, {42, 46, true}, {42, 49, true}, // lin<=0 deadlocks
        {42, 66, true}, {42, 71, true}, // analytical gate vs renaming
        {1, 60, true},  {1, 89, true},  // read-ref dedup
        {1, 110, true},                 // covering through a guard
        {1, 139, true},                 // write-ref dedup
        {1, 162, true},                 // negative-arc covering chain
        {3, 180, false}, {2, 1200, false}, // gate vs reference keys
    };
    for (const Case &c : cases) {
        bench::FuzzOptions opts;
        opts.shrink = false;
        if (c.unitCoeff)
            opts.limits.nonUnitCoeffProb = 0.0;
        dep::Loop loop = workloads::makeFuzzLoop(c.seed, c.index,
                                                 opts.limits);
        auto outcome = bench::runFuzzCase(
            loop, bench::fuzzCaseConfig(c.seed, c.index), opts,
            c.index);
        EXPECT_TRUE(outcome.ok())
            << "seed " << c.seed << " case " << c.index << ": "
            << (outcome.failures.empty() ? ""
                                         : outcome.failures.front());
    }
}

TEST(FuzzCorpusTest, GeneratorIsDeterministic)
{
    for (std::uint64_t index : {0ull, 7ull, 123ull}) {
        dep::Loop a = workloads::makeFuzzLoop(99, index);
        dep::Loop b = workloads::makeFuzzLoop(99, index);
        EXPECT_EQ(dep::printLoop(a), dep::printLoop(b));
    }
    // Different indices draw different programs (not a constant).
    EXPECT_NE(dep::printLoop(workloads::makeFuzzLoop(99, 0)),
              dep::printLoop(workloads::makeFuzzLoop(99, 1)));
}

TEST(FuzzCorpusTest, AnalyticalPathMatchesDpOnCorpus)
{
    // The closed-form critical path and the DP bound must agree
    // exactly on every (unguarded) corpus loop — the equality the
    // fuzzer's analytical oracle gates on.
    for (const auto &file : corpusFiles()) {
        dep::ParsedLoop p = dep::parseLoop(slurp(file));
        ASSERT_TRUE(p.ok) << file;
        bool guarded = false;
        for (const auto &stmt : p.loop.body)
            guarded |= stmt.guard.conditional();
        if (guarded)
            continue;
        dep::DepGraph graph(p.loop, false);
        sim::MachineConfig mc;
        mc.numProcs = 4;
        core::CriticalPathCosts costs =
            core::CriticalPathCosts::fromMachine(mc);
        for (bool per_access : {false, true}) {
            costs.perAccess = per_access;
            auto cp = core::analyticalCriticalPath(p.loop, costs);
            auto dp = core::criticalPath(graph, costs);
            EXPECT_EQ(cp.cycles, dp.cycles)
                << file << (per_access ? " per access" : "");
        }
    }
}

TEST(FuzzCorpusTest, VerifierRejectsUnsatisfiableWait)
{
    // Negative program: a wait whose threshold no write, RMW or
    // initial value can ever establish. ir::verifyPrograms must
    // name it (planDoacross would abort the process instead, so
    // the fuzzer — and this test — call the verifier directly).
    sim::Program stuck;
    stuck.iter = 1;
    stuck.ops = {sim::Op::mkWaitGE(7, 5),
                 sim::Op::mkCompute(1)};
    auto errs = ir::verifyPrograms(
        {stuck}, [](sim::SyncVarId) { return sim::SyncWord{0}; });
    ASSERT_EQ(errs.size(), 1u);

    // The same wait becomes satisfiable once any program writes
    // the threshold; the verifier must then stay quiet.
    sim::Program writer;
    writer.iter = 2;
    writer.ops = {sim::Op::mkWrite(7, 5)};
    errs = ir::verifyPrograms(
        {stuck, writer},
        [](sim::SyncVarId) { return sim::SyncWord{0}; });
    EXPECT_TRUE(errs.empty())
        << (errs.empty() ? "" : errs.front());
}
