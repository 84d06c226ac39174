#include "sim/combining_fabric.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

CombiningSyncFabric::CombiningSyncFabric(EventQueue &eq,
                                         unsigned num_ports,
                                         unsigned num_modules,
                                         Tick stage_cycles,
                                         Tick port_cycles,
                                         Tick service_cycles,
                                         Tracer *trace)
    : eventq(eq),
      numModules_(num_modules),
      serviceCycles(service_cycles),
      tracer(trace),
      network("sync_net", num_ports, num_modules, stage_cycles,
              port_cycles),
      moduleFreeAt(num_modules, 0),
      readsStat("syncfab.comb.reads"),
      writesStat("syncfab.comb.writes"),
      rmwsStat("syncfab.comb.rmws"),
      pollsStat("syncfab.comb.polls"),
      parkedStat("syncfab.comb.parked_waits"),
      wakeupsStat("syncfab.comb.wakeups"),
      moduleDelayStat("syncfab.comb.module_queue_delay"),
      moduleOpsStat("syncfab.comb.module_ops", num_modules)
{
    if (num_modules == 0)
        fatal("combining fabric needs at least one sync module");
}

SyncVarId
CombiningSyncFabric::allocate(unsigned count, SyncWord init_value)
{
    SyncVarId first = numVars;
    values.resize(numVars + count, init_value);
    numVars += count;
    return first;
}

bool
CombiningSyncFabric::route(std::uint32_t slot, CombineClass cls)
{
    OpState &op = ops[slot];
    auto d = network.inject(op.who, moduleOf(op.var), op.var, cls,
                            slot, eventq.now());
    if (d.combined) {
        // The resident packet's slot is still live: roots are freed
        // only by their completion event (after every departure
        // horizon a merge could test), and parked polls keep their
        // slot until woken.
        std::uint32_t root =
            ops[static_cast<std::uint32_t>(d.mergedWith)].rootSlot;
        op.rootSlot = root;
        // A parked poll can be woken (and its slot recycled) before
        // its wait-buffer horizon expires, so a stale chain may
        // surface a completion in the past; clamp to now so the
        // decombined reply always fires in the future.
        op.completion = std::max(ops[root].completion, eventq.now()) +
                        network.stageLatency();
        return true;
    }
    unsigned m = moduleOf(op.var);
    Tick start = std::max(d.arrive, moduleFreeAt[m]);
    moduleDelayStat += static_cast<double>(start - d.arrive);
    Tick done = start + serviceCycles;
    moduleFreeAt[m] = done;
    moduleOpsStat[m] += 1;
    op.rootSlot = slot;
    op.completion = done + network.returnCycles();
    // The root's wait-buffer entries stay live until its reply
    // decombines on the way back: later packets merge into it
    // during the whole round trip. Roots fire (and free their
    // slot) strictly after this horizon, so merged references
    // never dangle.
    network.holdResidents(op.who, m, op.var, cls, slot,
                          op.completion);
    return false;
}

void
CombiningSyncFabric::fireOp(std::uint32_t slot)
{
    OpState &op = ops[slot];
    switch (op.kind) {
      case OpState::Kind::read:
      case OpState::Kind::rmw: {
        ValueHandler handler = std::move(op.onValue);
        SyncWord value = op.value;
        ops.free(slot);
        handler(value);
        return;
      }
      case OpState::Kind::write: {
        DoneHandler handler = std::move(op.onDone);
        ops.free(slot);
        handler();
        return;
      }
      case OpState::Kind::poll: {
        WaitHandler handler = std::move(op.onWait);
        Tick waited = eventq.now() - op.started;
        if (waited > 0) {
            PSYNC_TRACE(tracer, waitEdge(op.var, op.who, op.started,
                                         eventq.now()));
        }
        ops.free(slot);
        handler(waited);
        return;
      }
    }
}

void
CombiningSyncFabric::release(SyncVarId var, SyncWord value, Tick done)
{
    parked.release(var, value, [this, done](std::uint32_t slot) {
        ++wakeupsStat;
        parkedProcs.erase(ops[slot].who);
        ops[slot].completion = done;
        eventq.schedule(done, [this, slot]() { fireOp(slot); });
    });
}

void
CombiningSyncFabric::waitGE(ProcId who, SyncVarId var,
                            SyncWord threshold, WaitHandler on_done)
{
    ++pollsStat;
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u wait v%u >= %llu (combining fabric)", who,
                  var, static_cast<unsigned long long>(threshold));
    PSYNC_TRACE(tracer, syncVarOp(var, SyncOp::wait, who, eventq.now()));
    std::uint32_t slot = ops.alloc();
    OpState &op = ops[slot];
    op.kind = OpState::Kind::poll;
    op.who = who;
    op.var = var;
    op.value = threshold;
    op.started = eventq.now();
    op.onWait = std::move(on_done);
    // The poll travels to the module either way; concurrent polls
    // of one hot word merge in the switches like fetch&adds do.
    route(slot, CombineClass::read);
    if (values[var] >= threshold) {
        Tick completion = ops[slot].completion;
        eventq.schedule(completion, [this, slot]() { fireOp(slot); });
        return;
    }
    // Unsatisfied: park module-side. The slot stays allocated (it
    // anchors the wait handler and keeps combining references to
    // this packet valid) until release() schedules its wake.
    ++parkedStat;
    parkedProcs.insert(who);
    parked.park(var, threshold, slot);
}

void
CombiningSyncFabric::read(ProcId who, SyncVarId var,
                          ValueHandler on_done)
{
    ++readsStat;
    PSYNC_TRACE(tracer, syncVarOp(var, SyncOp::poll, who, eventq.now()));
    std::uint32_t slot = ops.alloc();
    OpState &op = ops[slot];
    op.kind = OpState::Kind::read;
    op.who = who;
    op.var = var;
    op.value = values[var];
    op.onValue = std::move(on_done);
    route(slot, CombineClass::read);
    eventq.schedule(ops[slot].completion,
                    [this, slot]() { fireOp(slot); });
}

void
CombiningSyncFabric::write(ProcId who, SyncVarId var, SyncWord value,
                           DoneHandler on_done)
{
    ++writesStat;
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u write v%u = %llu (combining fabric)", who,
                  var, static_cast<unsigned long long>(value));
    PSYNC_TRACE(tracer, syncVarOp(var, SyncOp::write, who, eventq.now()));
    std::uint32_t slot = ops.alloc();
    OpState &op = ops[slot];
    op.kind = OpState::Kind::write;
    op.who = who;
    op.var = var;
    op.onDone = std::move(on_done);
    // Writes are not combined: each one visits the module, and the
    // writer blocks until the word is globally visible (the memory
    // organization's correctness requirement (1), section 2.2).
    route(slot, CombineClass::none);
    values[var] = value;
    release(var, values[var], ops[slot].completion);
    eventq.schedule(ops[slot].completion,
                    [this, slot]() { fireOp(slot); });
}

void
CombiningSyncFabric::fetchInc(ProcId who, SyncVarId var,
                              ValueHandler on_done)
{
    ++rmwsStat;
    PSYNC_TRACE(tracer, syncVarOp(var, SyncOp::rmw, who, eventq.now()));
    std::uint32_t slot = ops.alloc();
    OpState &op = ops[slot];
    op.kind = OpState::Kind::rmw;
    op.who = who;
    op.var = var;
    op.onValue = std::move(on_done);
    route(slot, CombineClass::fetchAdd);
    // Pre-values are assigned in injection (event) order, so a
    // combined tree hands out the same sequence a serialized module
    // would — combining changes timing, never values.
    SyncWord old_value = values[var];
    values[var] = old_value + 1;
    ops[slot].value = old_value;
    release(var, values[var], ops[slot].completion);
    eventq.schedule(ops[slot].completion,
                    [this, slot]() { fireOp(slot); });
}

SyncWord
CombiningSyncFabric::peek(SyncVarId var) const
{
    return values[var];
}

void
CombiningSyncFabric::poke(SyncVarId var, SyncWord value)
{
    values[var] = value;
}

double
CombiningSyncFabric::hotSpotRatio() const
{
    double total = moduleOpsStat.total();
    if (total == 0)
        return 0.0;
    double uniform = total / numModules_;
    return moduleOpsStat.maxValue() / uniform;
}

void
CombiningSyncFabric::sampleTimeline(Tracer &t, Tick at) const
{
    parked.forEachVar([&](SyncVarId var, std::size_t count) {
        t.sample(SampleStream::syncVarWaiters, var, at,
                 static_cast<double>(count));
    });
    network.sampleTimeline(t, at);
}

bool
CombiningSyncFabric::isParked(ProcId who) const
{
    return parkedProcs.count(who) > 0;
}

void
CombiningSyncFabric::registerStats(stats::Group &group) const
{
    group.add(readsStat);
    group.add(writesStat);
    group.add(rmwsStat);
    group.add(pollsStat);
    group.add(parkedStat);
    group.add(wakeupsStat);
    group.add(moduleDelayStat);
    group.add(moduleOpsStat);
    network.registerStats(group);
}

} // namespace sim
} // namespace psync
