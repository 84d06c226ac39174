/**
 * @file
 * Negative verification: a deliberately under-synchronized "scheme"
 * must produce a reported dependence violation on BOTH backends.
 *
 * The stub mimics a broken signal-before-write compiler bug: the
 * producer posts its synchronization variable *before* performing
 * the guarded write (with work in between), so the consumer's
 * awaited read can start while the write is still pending. The
 * simulator makes the race deterministic (the producer's delay is
 * simulated time, so the read always lands inside the window); the
 * native test forces the same order with a latch between its two
 * lanes. If the TraceChecker ever stops catching this, these tests
 * fail — the checker, not luck, is the correctness gate.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "core/runtime.hh"
#include "core/trace_check.hh"
#include "native/executor.hh"
#include "sim/machine.hh"

using namespace psync;

namespace {

constexpr sim::Addr kAddr = 8192;

/**
 * The under-synchronized pair. Producer (iter 1): signal, THEN a
 * long delay, THEN the write the signal was supposed to order.
 * Consumer (iter 2): await the signal, read. A correct scheme
 * emits the signal after the write; this stub has them swapped.
 */
std::vector<sim::Program>
brokenPrograms(sim::SyncVarId v, sim::Tick producer_delay)
{
    sim::Program producer;
    producer.iter = 1;
    producer.ops = {sim::Op::mkWrite(v, 1), // bug: signal first
                    sim::Op::mkCompute(producer_delay),
                    sim::Op::mkStmtStart(0),
                    sim::Op::mkData(true, kAddr, 0, 0),
                    sim::Op::mkStmtEnd(0)};
    sim::Program consumer;
    consumer.iter = 2;
    consumer.ops = {sim::Op::mkWaitGE(v, 1),
                    sim::Op::mkStmtStart(1),
                    sim::Op::mkData(false, kAddr, 1, 0),
                    sim::Op::mkStmtEnd(1)};
    return {producer, consumer};
}

/** Loop shape matching the stub: S0 writes A[i], S1 reads A[i-1]. */
dep::Loop
brokenLoop()
{
    dep::Loop loop;
    loop.depth = 1;
    loop.outer = {1, 2};
    dep::Statement s0, s1;
    s0.label = "S0";
    s1.label = "S1";
    dep::ArrayRef w, r;
    w.array = "A";
    w.subs = {dep::Subscript{1, 0, 0}};
    w.isWrite = true;
    r.array = "A";
    r.subs = {dep::Subscript{1, 0, -1}};
    r.isWrite = false;
    s0.refs = {w};
    s1.refs = {r};
    loop.body = {s0, s1};
    return loop;
}

dep::Dep
flowDep()
{
    dep::Dep dep;
    dep.src = 0;
    dep.dst = 1;
    dep.type = dep::DepType::flow;
    dep.d1 = 1;
    return dep;
}

} // namespace

TEST(TraceCheckNegativeTest, SimBackendReportsViolation)
{
    sim::MachineConfig mc;
    mc.numProcs = 2;
    mc.fabric = sim::FabricKind::registers;
    mc.syncRegisters = 64;
    core::TraceChecker checker;
    sim::Machine machine(mc, &checker);
    sim::SyncVarId v = machine.fabric().allocate(1, 0);

    // 500 simulated cycles between signal and write: the awaited
    // read deterministically lands inside the window.
    auto programs = brokenPrograms(v, 500);
    auto result = core::runProgramPool(
        machine, programs, core::SchedulePolicy::staticCyclic);
    ASSERT_TRUE(result.completed);

    auto violations = checker.verify(brokenLoop(), {flowDep()});
    ASSERT_FALSE(violations.empty())
        << "under-synchronized stub passed the sim checker";
    EXPECT_NE(violations[0].find("violated"), std::string::npos);
}

TEST(TraceCheckNegativeTest, NativeBackendReportsViolation)
{
    // Real time has no simulated delay to hold the window open, so
    // the test drives the two lanes itself. The producer's lane runs
    // its (misplaced) signal, waits on a latch until the consumer's
    // lane has done its awaited read, and only then performs the
    // write the signal should have ordered.
    native::NativeSyncFabric fabric;
    sim::SyncVarId v = fabric.allocate(1, 0);
    auto programs = brokenPrograms(v, 500);
    native::NativeDataMemory data(programs);

    // The producer split at its compute op: signal, then the write.
    std::vector<sim::Program> signal{programs[0]};
    signal[0].ops.resize(1);
    std::vector<sim::Program> write{programs[0]};
    write[0].ops.erase(write[0].ops.begin(), write[0].ops.begin() + 2);
    ASSERT_EQ(write[0].ops.front().kind, sim::OpKind::stmtStart);

    native::NativeConfig cfg;
    cfg.numThreads = 2;
    cfg.schedule = core::SchedulePolicy::staticCyclic;
    native::NativeExecutor exec(fabric, data, cfg);
    // Static cyclic: lane 0 runs index 0 of the pool it is handed,
    // lane 1 index 1, so the consumer lane gets the full pool.
    const native::Deadline deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    exec.beginRun(2, /*record_accesses=*/true);
    std::latch consumer_read(1);
    bool producer_ok = false;
    bool consumer_ok = false;
    std::thread producer([&] {
        producer_ok = exec.runLane(signal, 0, deadline);
        consumer_read.wait();
        producer_ok = producer_ok && exec.runLane(write, 0, deadline);
    });
    std::thread consumer([&] {
        consumer_ok = exec.runLane(programs, 1, deadline);
        consumer_read.count_down();
    });
    producer.join();
    consumer.join();
    ASSERT_TRUE(producer_ok);
    ASSERT_TRUE(consumer_ok);
    ASSERT_TRUE(exec.finishRun(0).completed);

    core::TraceChecker checker;
    exec.replayAccesses(checker);
    auto violations = checker.verify(brokenLoop(), {flowDep()});
    ASSERT_FALSE(violations.empty())
        << "under-synchronized stub passed the native checker";
    EXPECT_NE(violations[0].find("violated"), std::string::npos);
}
