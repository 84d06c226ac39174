/**
 * @file
 * Causal critical-path reconstruction (core/profile).
 *
 * The core case is a hand-built three-op trace whose critical path
 * is known by construction, so every segment boundary, the fabric
 * propagation charge and the histogram contents can be asserted
 * exactly. Real-run tests then pin the tiling invariant (achieved
 * path == run cycles, never below the analytical bound) on actual
 * scheme executions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/critical_path.hh"
#include "core/profile.hh"
#include "core/runtime.hh"
#include "core/tracing.hh"
#include "dep/dep_graph.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"

using namespace psync;

using Profile = core::CriticalPathProfile;
using SegKind = core::CriticalPathProfile::SegmentKind;

namespace {

/**
 * Two processors, one dependence:
 *
 *   p0: compute op1 [0,100)   syncWrite op2 var7 [100,110)
 *       (value commits on the fabric at 110)
 *   p1: waitGE   op3 var7 [50,130)  -- blocked 55..130
 *       compute  op4 [130,230)
 *
 * Run length 230. The achieved path must be: op1, op2, a 20-cycle
 * propagation gap on var7 (writer committed at 110, waiter woke at
 * 130), then op4 — tiling [0, 230) exactly.
 */
core::TraceRecorder
makeHandBuiltTrace()
{
    core::TraceRecorder rec;
    rec.nameSyncVar(7, "pc[7]");

    rec.opSpan(0, 1, 1, ir::OpKind::compute, 0, 0, 100);
    rec.opSpan(0, 1, 2, ir::OpKind::syncWrite, 7, 100, 110);
    rec.syncVarOp(7, sim::SyncOp::write, 0, 110);

    rec.opSpan(1, 2, 3, ir::OpKind::syncWaitGE, 7, 50, 130);
    rec.waitEdge(7, 1, 55, 130);
    rec.waitEdgeOp(7, 1, 3, 55, 130);
    rec.opSpan(1, 2, 4, ir::OpKind::compute, 0, 130, 230);
    return rec;
}

sim::Tick
segmentTotal(const Profile &prof)
{
    sim::Tick total = 0;
    for (const auto &s : prof.segments)
        total += s.cycles();
    return total;
}

} // namespace

TEST(ProfileTest, EmptyTraceYieldsEmptyProfile)
{
    core::TraceRecorder rec;
    Profile prof = core::buildCriticalPathProfile(rec, 0, 0);
    EXPECT_TRUE(prof.segments.empty());
    EXPECT_EQ(prof.achievedCycles, 0u);
    EXPECT_EQ(prof.waitAll.count(), 0u);
    EXPECT_DOUBLE_EQ(prof.gapPct(), 0.0);
}

TEST(ProfileTest, HandBuiltPathReconstructsExactly)
{
    core::TraceRecorder rec = makeHandBuiltTrace();
    Profile prof = core::buildCriticalPathProfile(rec, 230, 200);

    EXPECT_EQ(prof.achievedCycles, 230u);
    EXPECT_EQ(segmentTotal(prof), 230u);
    EXPECT_FALSE(prof.truncated);
    EXPECT_EQ(prof.boundCycles, 200u);
    EXPECT_NEAR(prof.gapPct(), 15.0, 1e-9);

    ASSERT_EQ(prof.segments.size(), 4u);

    const auto &s0 = prof.segments[0];
    EXPECT_EQ(s0.kind, SegKind::op);
    EXPECT_EQ(s0.proc, 0u);
    EXPECT_EQ(s0.opId, 1u);
    EXPECT_EQ(s0.opKind, ir::OpKind::compute);
    EXPECT_EQ(s0.start, 0u);
    EXPECT_EQ(s0.end, 100u);

    const auto &s1 = prof.segments[1];
    EXPECT_EQ(s1.kind, SegKind::op);
    EXPECT_EQ(s1.proc, 0u);
    EXPECT_EQ(s1.opId, 2u);
    EXPECT_EQ(s1.opKind, ir::OpKind::syncWrite);
    EXPECT_TRUE(s1.hasVar);
    EXPECT_EQ(s1.var, 7u);
    EXPECT_EQ(s1.start, 100u);
    EXPECT_EQ(s1.end, 110u);

    const auto &s2 = prof.segments[2];
    EXPECT_EQ(s2.kind, SegKind::wait);
    EXPECT_EQ(s2.proc, 1u);
    EXPECT_TRUE(s2.hasVar);
    EXPECT_EQ(s2.var, 7u);
    EXPECT_EQ(s2.start, 110u);
    EXPECT_EQ(s2.end, 130u);

    const auto &s3 = prof.segments[3];
    EXPECT_EQ(s3.kind, SegKind::op);
    EXPECT_EQ(s3.proc, 1u);
    EXPECT_EQ(s3.opId, 4u);
    EXPECT_EQ(s3.start, 130u);
    EXPECT_EQ(s3.end, 230u);

    // The 20 propagation cycles land on var7, labeled at plan time.
    EXPECT_EQ(prof.propagationCycles, 20u);
    ASSERT_EQ(prof.varShares.size(), 1u);
    EXPECT_EQ(prof.varShares[0].var, 7u);
    EXPECT_EQ(prof.varShares[0].label, "pc[7]");
    EXPECT_EQ(prof.varShares[0].cycles, 20u);

    // On-path execution cycles per processor.
    ASSERT_EQ(prof.procShares.size(), 2u);
    EXPECT_EQ(prof.procShares[0].proc, 0u);
    EXPECT_EQ(prof.procShares[0].cycles, 110u);
    EXPECT_EQ(prof.procShares[1].proc, 1u);
    EXPECT_EQ(prof.procShares[1].cycles, 100u);
}

TEST(ProfileTest, HandBuiltHistogramsSeeTheOneWait)
{
    core::TraceRecorder rec = makeHandBuiltTrace();
    Profile prof = core::buildCriticalPathProfile(rec, 230, 200);

    EXPECT_EQ(prof.waitAll.count(), 1u);
    EXPECT_EQ(prof.waitAll.min(), 75u);
    EXPECT_EQ(prof.waitAll.max(), 75u);

    ASSERT_EQ(prof.waitByVar.count(7), 1u);
    EXPECT_EQ(prof.waitByVar.at(7).count(), 1u);
    EXPECT_EQ(prof.waitByVar.at(7).percentile(0.5), 75u);

    // The site edge joins back to the blocking op's kind.
    ASSERT_EQ(prof.waitByKind.count("sync_wait_ge"), 1u);
    EXPECT_EQ(prof.waitByKind.at("sync_wait_ge").count(), 1u);
}

TEST(ProfileTest, HandBuiltJsonAndTextAgree)
{
    core::TraceRecorder rec = makeHandBuiltTrace();
    Profile prof = core::buildCriticalPathProfile(rec, 230, 200);

    core::json::Value v = prof.toJson();
    ASSERT_NE(v.find("achieved_cycles"), nullptr);
    EXPECT_EQ(v.find("achieved_cycles")->asNumber(), 230);
    EXPECT_EQ(v.find("bound_cycles")->asNumber(), 200);
    EXPECT_NEAR(v.find("gap_pct")->asNumber(), 15.0, 1e-9);
    ASSERT_NE(v.find("segments"), nullptr);
    EXPECT_EQ(v.find("segments")->asArray().size(), 4u);

    std::ostringstream os;
    prof.writeText(os, "hand-built");
    EXPECT_NE(os.str().find("hand-built"), std::string::npos);
    EXPECT_NE(os.str().find("achieved 230"), std::string::npos);
    EXPECT_NE(os.str().find("pc[7]"), std::string::npos);

    // One Perfetto event per segment plus the track metadata.
    core::json::Value events = prof.perfettoEvents();
    EXPECT_EQ(events.asArray().size(), prof.segments.size() + 1);
}

// The tiling invariant on real runs: achieved == run cycles, and
// never below the machine-aware analytical bound (the same
// invariant psync_bench --profile gates on).
TEST(ProfileTest, RealRunsTileExactly)
{
    struct Case
    {
        const char *name;
        dep::Loop loop;
        sync::SchemeKind kind;
    };
    std::vector<Case> cases;
    cases.push_back({"fig21", workloads::makeFig21Loop(64),
                     sync::SchemeKind::processImproved});
    cases.push_back({"nested", workloads::makeNestedLoop(16, 16),
                     sync::SchemeKind::statementOriented});

    for (auto &c : cases) {
        core::RunConfig cfg;
        cfg.machine.numProcs = 8;
        cfg.machine.fabric = sim::FabricKind::registers;
        core::TraceRecorder recorder;
        cfg.tracer = &recorder;

        auto r = core::runDoacross(c.loop, c.kind, cfg);
        ASSERT_TRUE(r.run.completed) << c.name;

        dep::DepGraph graph(c.loop);
        core::CriticalPath cp = core::criticalPath(
            graph,
            core::CriticalPathCosts::fromMachine(cfg.machine));
        sim::Tick bound =
            cp.achievableBound(cfg.machine.numProcs);

        Profile prof = core::buildCriticalPathProfile(
            recorder, r.run.cycles, bound);
        EXPECT_EQ(prof.achievedCycles, r.run.cycles) << c.name;
        EXPECT_EQ(segmentTotal(prof), r.run.cycles) << c.name;
        EXPECT_GE(prof.achievedCycles, bound) << c.name;
        EXPECT_FALSE(prof.truncated) << c.name;

        // Phase totals tile too: every path cycle is attributed.
        sim::Tick phase_total =
            prof.computeCycles + prof.spinCycles +
            prof.syncCycles + prof.stallCycles +
            prof.dispatchCycles + prof.propagationCycles +
            prof.otherCycles;
        EXPECT_EQ(phase_total, prof.achievedCycles) << c.name;
    }
}
