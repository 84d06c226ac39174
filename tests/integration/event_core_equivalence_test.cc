/**
 * @file
 * Heap vs calendar event cores must produce bit-identical
 * simulations: the calendar ring is a performance change, not a
 * semantic one. Whole RunResults (every cycle counter, bus stat and
 * event count) are compared as JSON across representative machines:
 * all four sync fabrics (register, memory, combining omega and
 * hierarchical clusters, the last two at P >= 64 where their wait
 * sets fill up), bus and omega interconnects, and the
 * butterfly-barrier FFT workload.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/runtime.hh"
#include "sync/barrier.hh"
#include "workloads/fft.hh"
#include "workloads/fig21.hh"

using namespace psync;

namespace {

std::string
dumped(const core::RunResult &r)
{
    std::ostringstream os;
    r.toJson().dump(os, 2);
    std::string text = os.str();
    // The event_core label names the core that ran — the one field
    // that legitimately differs between the two runs under
    // comparison. Neutralize it; everything else must be identical.
    std::size_t key = text.find("\"event_core\": ");
    if (key != std::string::npos) {
        std::size_t value_end = text.find('\n', key);
        text.erase(key, value_end - key);
    }
    return text;
}

core::RunResult
runLoop(const dep::Loop &loop, sync::SchemeKind kind,
        core::RunConfig cfg, sim::EventCoreKind core)
{
    cfg.machine.eventCore = core;
    auto result = core::runDoacross(loop, kind, cfg);
    EXPECT_TRUE(result.run.completed);
    EXPECT_TRUE(result.correct());
    return result.run;
}

void
expectCoresAgree(const dep::Loop &loop, sync::SchemeKind kind,
                 const core::RunConfig &cfg, const char *what)
{
    core::RunResult calendar =
        runLoop(loop, kind, cfg, sim::EventCoreKind::calendar);
    core::RunResult heap =
        runLoop(loop, kind, cfg, sim::EventCoreKind::heap);
    EXPECT_EQ(calendar.cycles, heap.cycles) << what;
    EXPECT_EQ(calendar.eventsExecuted, heap.eventsExecuted) << what;
    EXPECT_EQ(dumped(calendar), dumped(heap)) << what;
}

core::RunConfig
registerConfig(unsigned procs)
{
    core::RunConfig cfg;
    cfg.machine.numProcs = procs;
    cfg.machine.fabric = sim::FabricKind::registers;
    cfg.machine.syncRegisters = 1u << 20;
    cfg.scheme.numScs = 1u << 18;
    return cfg;
}

core::RunConfig
memoryConfig(unsigned procs)
{
    core::RunConfig cfg = registerConfig(procs);
    cfg.machine.fabric = sim::FabricKind::memory;
    return cfg;
}

core::RunConfig
combiningConfig(unsigned procs)
{
    core::RunConfig cfg = registerConfig(procs);
    cfg.machine.fabric = sim::FabricKind::combining;
    return cfg;
}

core::RunConfig
hierarchicalConfig(unsigned procs, unsigned clusters)
{
    core::RunConfig cfg = registerConfig(procs);
    cfg.machine.fabric = sim::FabricKind::hierarchical;
    cfg.machine.numClusters = clusters;
    return cfg;
}

} // namespace

TEST(EventCoreEquivalenceTest, Fig21OnRegisterFabric)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    expectCoresAgree(loop, sync::SchemeKind::processImproved,
                     registerConfig(8), "fig21/process-improved");
    expectCoresAgree(loop, sync::SchemeKind::statementOriented,
                     registerConfig(8), "fig21/statement");
}

TEST(EventCoreEquivalenceTest, Fig32JitterStatementCounters)
{
    dep::Loop loop =
        workloads::makeFig21JitterLoop(128, 8, 800, 0.15, 1234);
    expectCoresAgree(loop, sync::SchemeKind::statementOriented,
                     registerConfig(8), "fig32-jitter/statement");
}

TEST(EventCoreEquivalenceTest, MemoryFabricCachedAndPollingSpin)
{
    dep::Loop loop = workloads::makeFig21Loop(64);
    core::RunConfig cached = memoryConfig(8);
    expectCoresAgree(loop, sync::SchemeKind::referenceBased, cached,
                     "fig21/reference cached-spin");
    core::RunConfig polling = memoryConfig(8);
    polling.machine.cachedSpinning = false;
    expectCoresAgree(loop, sync::SchemeKind::referenceBased, polling,
                     "fig21/reference polling");
}

TEST(EventCoreEquivalenceTest, CombiningFabricAtP64)
{
    // Hot statement counters at P=64: polls park module-side and
    // release() wakes partial subsets of the combining wait set.
    dep::Loop loop = workloads::makeFig21Loop(128);
    expectCoresAgree(loop, sync::SchemeKind::statementOriented,
                     combiningConfig(64), "fig21-p64/statement comb");
    expectCoresAgree(loop, sync::SchemeKind::processImproved,
                     combiningConfig(64), "fig21-p64/process comb");
}

TEST(EventCoreEquivalenceTest, HierarchicalFabricAtP64)
{
    // 8 clusters of 8: every global commit releases each cluster's
    // waiters, and every wake runs through the ready path.
    dep::Loop loop = workloads::makeFig21Loop(128);
    expectCoresAgree(loop, sync::SchemeKind::statementOriented,
                     hierarchicalConfig(64, 8),
                     "fig21-p64/statement hier");
    expectCoresAgree(loop, sync::SchemeKind::processImproved,
                     hierarchicalConfig(64, 8),
                     "fig21-p64/process hier");
}

TEST(EventCoreEquivalenceTest, CounterBarrierFftOnComposedFabricsAtP64)
{
    // Fetch&add counter barriers: hierarchical incs batch per
    // cluster and decombine through the ready path; combining incs
    // merge in the network while waiters park on the release flag.
    workloads::FftSpec spec;
    spec.numProcs = 64;
    spec.rounds = 2;
    spec.stageJitter = 40;
    for (auto fabric : {sim::FabricKind::hierarchical,
                        sim::FabricKind::combining}) {
        std::string dumps[2];
        int i = 0;
        for (auto core : {sim::EventCoreKind::calendar,
                          sim::EventCoreKind::heap}) {
            sim::MachineConfig mcfg;
            mcfg.numProcs = spec.numProcs;
            mcfg.fabric = fabric;
            mcfg.numClusters = 8;
            mcfg.syncRegisters = 512;
            mcfg.eventCore = core;
            sim::Machine machine(mcfg);
            sync::CounterBarrier barrier(machine.fabric(),
                                         spec.numProcs);
            auto progs = workloads::buildFftCounter(barrier, spec);
            core::RunResult r =
                core::runPerProcessorPrograms(machine, progs);
            EXPECT_TRUE(r.completed) << sim::fabricKindName(fabric);
            dumps[i++] = dumped(r);
        }
        EXPECT_EQ(dumps[0], dumps[1]) << sim::fabricKindName(fabric);
    }
}

TEST(EventCoreEquivalenceTest, OmegaNetworkMachine)
{
    dep::Loop loop = workloads::makeFig21Loop(128);
    core::RunConfig cfg = memoryConfig(16);
    cfg.machine.interconnect = sim::InterconnectKind::omega;
    cfg.machine.memory.numModules = 16;
    expectCoresAgree(loop, sync::SchemeKind::referenceBased, cfg,
                     "fig21-omega/reference");
}

TEST(EventCoreEquivalenceTest, ButterflyBarrierFft)
{
    workloads::FftSpec spec;
    spec.numProcs = 8;
    spec.rounds = 3;
    spec.stageJitter = 40;

    std::string dumps[2];
    int i = 0;
    for (auto core : {sim::EventCoreKind::calendar,
                      sim::EventCoreKind::heap}) {
        sim::MachineConfig mcfg;
        mcfg.numProcs = spec.numProcs;
        mcfg.fabric = sim::FabricKind::registers;
        mcfg.syncRegisters = 512;
        mcfg.eventCore = core;
        sim::Machine machine(mcfg);
        sync::ButterflyBarrier barrier(machine.fabric(),
                                       spec.numProcs);
        auto progs = workloads::buildFftButterfly(barrier, spec);
        core::RunResult r =
            core::runPerProcessorPrograms(machine, progs);
        EXPECT_TRUE(r.completed);
        dumps[i++] = dumped(r);
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(EventCoreEquivalenceTest, SteadyStateHasNoHeapFallbacks)
{
    // The point of the inline-handler migration: a full simulation
    // schedules zero heap-spilled handler captures.
    workloads::FftSpec spec;
    spec.numProcs = 8;
    spec.rounds = 3;
    sim::MachineConfig mcfg;
    mcfg.numProcs = spec.numProcs;
    mcfg.fabric = sim::FabricKind::registers;
    mcfg.syncRegisters = 512;
    sim::Machine machine(mcfg);
    sync::ButterflyBarrier barrier(machine.fabric(), spec.numProcs);
    auto progs = workloads::buildFftButterfly(barrier, spec);
    core::RunResult r = core::runPerProcessorPrograms(machine, progs);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(machine.eventq().eventsExecuted(), 0u);
    EXPECT_EQ(machine.eventq().heapFallbackEvents(), 0u);
}
