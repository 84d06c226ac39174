/**
 * @file
 * Trace recorder, Chrome trace-event export, and the passive-tracer
 * invariant: a traced run and an untraced run of the same
 * configuration produce identical statistics.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/json.hh"
#include "core/runtime.hh"
#include "core/tracing.hh"
#include "sync/pc_file.hh"
#include "workloads/fig21.hh"
#include "workloads/relaxation.hh"

using namespace psync;

namespace {

constexpr unsigned kProcs = 4;

sim::MachineConfig
machineConfig()
{
    sim::MachineConfig cfg;
    cfg.numProcs = kProcs;
    cfg.fabric = sim::FabricKind::registers;
    cfg.syncRegisters = 1024;
    return cfg;
}

/**
 * The acceptance scenario: the paper's Example 1 relaxation loop
 * run as an asynchronously pipelined Doacross (the
 * relaxation_pipeline example), with an optional tracer attached.
 */
core::RunResult
runRelaxationPipeline(sim::Tracer *tracer)
{
    workloads::RelaxationSpec spec;
    spec.n = 16;

    dep::Loop loop =
        workloads::makeRelaxationLoop(spec.n, spec.stmtCost);
    dep::DataLayout layout(loop);

    sim::Machine machine(machineConfig(), nullptr, tracer);
    sync::PcFile pcs(machine.fabric(), 2 * kProcs);
    auto programs =
        workloads::buildPipelinedPrograms(pcs, loop, layout, spec);
    return core::runProgramPool(machine, programs,
                                core::SchedulePolicy::selfScheduling);
}

} // namespace

TEST(TracingTest, ChromeTraceIsWellFormedJson)
{
    core::TraceRecorder recorder;
    core::RunResult result = runRelaxationPipeline(&recorder);
    ASSERT_TRUE(result.completed);
    ASSERT_GT(recorder.eventCount(), 0u);

    std::ostringstream os;
    recorder.writeChromeTrace(os);
    auto parsed = core::json::parse(os.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;

    const core::json::Value *events =
        parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->asArray().empty());

    // Every event carries the required trace-event keys.
    for (const auto &ev : events->asArray()) {
        ASSERT_TRUE(ev.isObject());
        ASSERT_TRUE(ev.has("ph"));
        ASSERT_TRUE(ev.has("pid"));
        const std::string &ph = ev.find("ph")->asString();
        if (ph == "X") {
            ASSERT_TRUE(ev.has("ts"));
            ASSERT_TRUE(ev.has("dur"));
            ASSERT_TRUE(ev.has("name"));
            EXPECT_GE(ev.find("dur")->asNumber(), 0.0);
        }
    }
}

TEST(TracingTest, TraceHasOneTrackPerProcessor)
{
    core::TraceRecorder recorder;
    ASSERT_TRUE(runRelaxationPipeline(&recorder).completed);

    auto doc = recorder.chromeTrace();
    const core::json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Processor tracks live in pid 0; count distinct tids that have
    // phase ("X") events and thread_name metadata.
    std::set<int> phase_tids;
    std::set<int> named_tids;
    for (const auto &ev : events->asArray()) {
        if (ev.find("pid")->asNumber() != 0)
            continue;
        const std::string &ph = ev.find("ph")->asString();
        if (ph == "X")
            phase_tids.insert(
                static_cast<int>(ev.find("tid")->asNumber()));
        if (ph == "M" &&
            ev.find("name")->asString() == "thread_name")
            named_tids.insert(
                static_cast<int>(ev.find("tid")->asNumber()));
    }
    EXPECT_GE(phase_tids.size(), kProcs);
    EXPECT_GE(named_tids.size(), kProcs);
}

TEST(TracingTest, PhaseIntervalsDoNotOverlapPerProcessor)
{
    core::TraceRecorder recorder;
    ASSERT_TRUE(runRelaxationPipeline(&recorder).completed);

    // The modeled cores are in-order with one operation
    // outstanding: intervals of one processor must tile without
    // overlap (touching endpoints are fine).
    std::map<sim::ProcId,
             std::vector<std::pair<sim::Tick, sim::Tick>>> per_proc;
    bool saw_compute = false;
    bool saw_spin = false;
    for (const auto &e : recorder.phases()) {
        ASSERT_LT(e.start, e.end);
        per_proc[e.who].emplace_back(e.start, e.end);
        if (e.phase == sim::TracePhase::compute)
            saw_compute = true;
        if (e.phase == sim::TracePhase::spin)
            saw_spin = true;
    }
    EXPECT_TRUE(saw_compute);
    EXPECT_TRUE(saw_spin);
    EXPECT_GE(per_proc.size(), kProcs);

    for (auto &entry : per_proc) {
        auto &ivs = entry.second;
        std::sort(ivs.begin(), ivs.end());
        for (size_t i = 1; i < ivs.size(); ++i) {
            EXPECT_GE(ivs[i].first, ivs[i - 1].second)
                << "proc " << entry.first << " intervals ["
                << ivs[i - 1].first << ", " << ivs[i - 1].second
                << ") and [" << ivs[i].first << ", "
                << ivs[i].second << ") overlap";
        }
    }
}

TEST(TracingTest, NullTracerMatchesRecordedRunStatistics)
{
    core::RunResult untraced = runRelaxationPipeline(nullptr);
    core::TraceRecorder recorder;
    core::RunResult traced = runRelaxationPipeline(&recorder);

    // Tracing is passive: it must not perturb the simulation.
    EXPECT_EQ(untraced.completed, traced.completed);
    EXPECT_EQ(untraced.cycles, traced.cycles);
    EXPECT_EQ(untraced.computeCycles, traced.computeCycles);
    EXPECT_EQ(untraced.spinCycles, traced.spinCycles);
    EXPECT_EQ(untraced.syncOverheadCycles,
              traced.syncOverheadCycles);
    EXPECT_EQ(untraced.stallCycles, traced.stallCycles);
    EXPECT_EQ(untraced.syncOps, traced.syncOps);
    EXPECT_EQ(untraced.syncBusBroadcasts, traced.syncBusBroadcasts);
    EXPECT_EQ(untraced.coalescedWrites, traced.coalescedWrites);
    EXPECT_EQ(untraced.dataBusTransactions,
              traced.dataBusTransactions);
    EXPECT_EQ(untraced.memAccesses, traced.memAccesses);
}

TEST(TracingTest, RepeatedRunsAreIdentical)
{
    core::RunResult first = runRelaxationPipeline(nullptr);
    core::RunResult second = runRelaxationPipeline(nullptr);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.spinCycles, second.spinCycles);
    EXPECT_EQ(first.syncOps, second.syncOps);
    EXPECT_EQ(first.syncBusBroadcasts, second.syncBusBroadcasts);
}

TEST(TracingTest, ResourceAndBroadcastEventsAreRecorded)
{
    core::TraceRecorder recorder;
    core::RunResult result = runRelaxationPipeline(&recorder);
    ASSERT_TRUE(result.completed);

    // The register fabric broadcasts over the sync bus; the data
    // accesses occupy the data bus and memory modules.
    std::set<std::pair<sim::ProcId, sim::Tick>> sync_bus_done;
    bool saw_memory = false;
    for (const auto &e : recorder.resources()) {
        ASSERT_LE(e.start, e.end);
        if (e.resource == "sync_bus")
            sync_bus_done.insert({e.who, e.end});
        if (e.resource == sim::memoryModuleResource)
            saw_memory = true;
    }
    EXPECT_TRUE(saw_memory);
    ASSERT_GT(result.syncBusBroadcasts, 0u);
    EXPECT_EQ(sync_bus_done.size(), result.syncBusBroadcasts);

    // Each broadcast is its writer's sync-bus transaction: the
    // broadcast event lands as that transaction completes.
    std::uint64_t broadcasts = 0;
    for (const auto &e : recorder.syncOpEvents()) {
        if (e.op != sim::SyncOp::broadcast)
            continue;
        ++broadcasts;
        EXPECT_TRUE(sync_bus_done.count({e.who, e.at}))
            << "broadcast by proc " << e.who << " at " << e.at
            << " has no sync_bus span ending there";
    }
    EXPECT_EQ(broadcasts, result.syncBusBroadcasts);
}

TEST(TracingTest, SyncVarOpsAreCountedAndLabeled)
{
    core::TraceRecorder recorder;

    dep::Loop loop = workloads::makeFig21Loop(32);
    core::RunConfig cfg;
    cfg.machine = machineConfig();
    cfg.tracer = &recorder;
    auto r = core::runDoacross(
        loop, sync::SchemeKind::processImproved, cfg);
    ASSERT_TRUE(r.run.completed);
    ASSERT_TRUE(r.correct());

    ASSERT_FALSE(recorder.syncOpEvents().empty());
    std::map<sim::SyncOp, std::uint64_t> per_op;
    bool saw_pc_label = false;
    for (const auto &e : recorder.syncOpEvents()) {
        ++per_op[e.op];
        if (recorder.syncVarLabel(e.var).rfind("pc[", 0) == 0)
            saw_pc_label = true;
    }
    EXPECT_TRUE(saw_pc_label);

    // Process-oriented PCs on the register fabric: each posted write
    // is broadcast or covered by a newer one, and waits never poll.
    std::uint64_t writes = per_op[sim::SyncOp::write];
    EXPECT_GT(writes, 0u) << sim::syncOpName(sim::SyncOp::write);
    EXPECT_GT(per_op[sim::SyncOp::wait], 0u)
        << sim::syncOpName(sim::SyncOp::wait);
    EXPECT_EQ(per_op[sim::SyncOp::broadcast] +
                  per_op[sim::SyncOp::coalesced],
              writes);
    EXPECT_EQ(per_op[sim::SyncOp::broadcast], r.run.syncBusBroadcasts);
    EXPECT_EQ(per_op[sim::SyncOp::coalesced], r.run.coalescedWrites);
    EXPECT_EQ(per_op.count(sim::SyncOp::poll), 0u);
    EXPECT_EQ(per_op.count(sim::SyncOp::keyed), 0u);
}

TEST(TracingTest, ClearDropsAllEvents)
{
    core::TraceRecorder recorder;
    ASSERT_TRUE(runRelaxationPipeline(&recorder).completed);
    ASSERT_GT(recorder.eventCount(), 0u);
    ASSERT_FALSE(recorder.syncOpEvents().empty());
    recorder.nameSyncVar(7, "pc[7]");
    EXPECT_EQ(recorder.syncVarLabel(7), "pc[7]");
    recorder.clear();
    EXPECT_EQ(recorder.eventCount(), 0u);
    EXPECT_TRUE(recorder.syncOpEvents().empty());
    EXPECT_TRUE(recorder.syncVarLabel(7).empty());
}

TEST(TracingTest, RunResultToJsonRoundTrips)
{
    core::RunResult result = runRelaxationPipeline(nullptr);
    auto parsed = core::json::parse(result.toJson().dump());
    ASSERT_TRUE(parsed.ok) << parsed.error;

    // Every quantity printResult() prints must be present.
    for (const char *key :
         {"cycles", "utilization", "spin_fraction", "sync_ops",
          "sync_bus_broadcasts", "coalesced_writes",
          "sync_mem_polls", "hot_spot_ratio", "completed"}) {
        EXPECT_TRUE(parsed.value.has(key)) << key;
    }
    EXPECT_DOUBLE_EQ(parsed.value.find("cycles")->asNumber(),
                     static_cast<double>(result.cycles));
    EXPECT_DOUBLE_EQ(parsed.value.find("utilization")->asNumber(),
                     result.utilization());
    EXPECT_DOUBLE_EQ(parsed.value.find("spin_fraction")->asNumber(),
                     result.spinFraction());
    EXPECT_EQ(parsed.value.find("completed")->asBool(),
              result.completed);
    EXPECT_DOUBLE_EQ(parsed.value.find("sync_ops")->asNumber(),
                     static_cast<double>(result.syncOps));
}

TEST(TracingTest, MachineStatsGroupDumpsJson)
{
    core::TraceRecorder recorder;
    workloads::RelaxationSpec spec;
    spec.n = 8;
    dep::Loop loop =
        workloads::makeRelaxationLoop(spec.n, spec.stmtCost);
    dep::DataLayout layout(loop);

    sim::Machine machine(machineConfig(), nullptr, &recorder);
    sync::PcFile pcs(machine.fabric(), 2 * kProcs);
    auto programs =
        workloads::buildPipelinedPrograms(pcs, loop, layout, spec);
    auto result = core::runProgramPool(
        machine, programs, core::SchedulePolicy::selfScheduling);
    ASSERT_TRUE(result.completed);

    sim::stats::Group group;
    machine.registerStats(group);
    ASSERT_GT(group.size(), 0u);

    std::ostringstream os;
    group.dumpJson(os);
    auto parsed = core::json::parse(os.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_TRUE(parsed.value.isObject());
    EXPECT_EQ(parsed.value.asObject().size(), group.size());
}
