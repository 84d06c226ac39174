#include "sim/sync_fabric.hh"

#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

const char *
fabricKindName(FabricKind kind)
{
    switch (kind) {
      case FabricKind::memory:
        return "memory";
      case FabricKind::registers:
        return "registers";
      case FabricKind::combining:
        return "combining";
      case FabricKind::hierarchical:
        return "hierarchical";
    }
    return "unknown";
}

//
// MemorySyncFabric
//

MemorySyncFabric::MemorySyncFabric(EventQueue &eq, Memory &mem, Addr base,
                                   Tick poll_interval, bool cached_spin,
                                   Tracer *trace)
    : eventq(eq),
      memory(mem),
      baseAddr(base),
      pollInterval(poll_interval),
      cachedSpin(cached_spin),
      tracer(trace),
      pollsStat("syncfab.mem.polls"),
      writesStat("syncfab.mem.writes"),
      rmwsStat("syncfab.mem.rmws"),
      keyedOpsStat("syncfab.mem.keyed_ops"),
      keyedRetriesStat("syncfab.mem.keyed_retries")
{
    if (pollInterval == 0)
        fatal("poll interval must be at least one cycle");
}

Addr
MemorySyncFabric::addrOf(SyncVarId var) const
{
    return baseAddr + static_cast<Addr>(var) * 8;
}

void
MemorySyncFabric::trackWaitStart(SyncVarId var)
{
    if (tracer)
        ++activeWaiters[var];
}

void
MemorySyncFabric::trackWaitEnd(SyncVarId var)
{
    if (!tracer)
        return;
    auto it = activeWaiters.find(var);
    if (it != activeWaiters.end() && --it->second == 0)
        activeWaiters.erase(it);
}

void
MemorySyncFabric::trackPark(ProcId who, Tick from)
{
    if (tracer)
        parkedProcs[who] = from;
}

void
MemorySyncFabric::trackUnpark(ProcId who)
{
    if (tracer)
        parkedProcs.erase(who);
}

void
MemorySyncFabric::sampleTimeline(Tracer &t, Tick at) const
{
    for (const auto &entry : activeWaiters) {
        t.sample(SampleStream::syncVarWaiters, entry.first, at,
                 static_cast<double>(entry.second));
    }
}

bool
MemorySyncFabric::isParked(ProcId who) const
{
    auto it = parkedProcs.find(who);
    return it != parkedProcs.end() && it->second <= eventq.now();
}

SyncVarId
MemorySyncFabric::allocate(unsigned count, SyncWord init_value)
{
    SyncVarId first = numVars;
    for (unsigned i = 0; i < count; ++i)
        memory.poke(addrOf(first + i), init_value);
    numVars += count;
    return first;
}

const MemorySyncFabric::OpState &
MemorySyncFabric::notePoll(std::uint32_t slot)
{
    ++pollsStat;
    const OpState &op = ops[slot];
    PSYNC_TRACE(tracer, syncVarOp(op.var, "poll", op.who, eventq.now()));
    return op;
}

void
MemorySyncFabric::pollLoop(std::uint32_t slot)
{
    const OpState &op = notePoll(slot);
    if (!cachedSpin) {
        memory.read(op.who, addrOf(op.var), [this, slot](SyncWord value) {
            pollValue(slot, value, eventq.now());
        });
        return;
    }
    // A failing poll may settle when it reaches the module, before
    // its completion tick; the spinner parks as of that tick.
    memory.poll(op.who, addrOf(op.var), op.threshold,
                [this, slot](SyncWord value, Tick done) {
        pollValue(slot, value, done);
    });
}

void
MemorySyncFabric::pollValue(std::uint32_t slot, SyncWord value,
                            Tick done)
{
    OpState &op = ops[slot];
    if (value >= op.threshold) {
        if (eventq.now() > op.started) {
            PSYNC_TRACE(tracer, waitEdge(op.var, op.who, op.started,
                                         eventq.now()));
        }
        trackWaitEnd(op.var);
        WaitHandler on_done = std::move(op.onWait);
        Tick waited = eventq.now() - op.started;
        ops.free(slot);
        on_done(waited);
        return;
    }
    if (cachedSpin) {
        // Spin on the (now cached) copy for free; the next memory
        // fetch happens when a write invalidates it. No poll events
        // tick while parked — the slot just waits on the list,
        // ranked by the tick its poll completed.
        trackPark(op.who, done);
        parked.park(op.var, done, slot);
        return;
    }
    eventq.scheduleIn(pollInterval,
                      [this, slot]() { pollLoop(slot); });
}

void
MemorySyncFabric::invalidate(SyncVarId var)
{
    // Every parked spinner re-fetches the invalidated word after
    // the poll interval (cache-miss turnaround); a hot word gets a
    // burst of refills queueing at its module. One event issues the
    // whole burst, in the order the spinners parked.
    std::size_t queued = refetchSlots.size();
    parked.releaseAll(var, [this](std::uint32_t slot) {
        trackUnpark(ops[slot].who);
        refetchSlots.push_back(slot);
    });
    std::size_t burst = refetchSlots.size() - queued;
    if (burst > 0)
        eventq.scheduleIn(pollInterval,
                          [this, burst]() { refetch(burst); });
}

void
MemorySyncFabric::refetch(std::size_t burst)
{
    // Bursts are scheduled a fixed interval after non-decreasing
    // invalidation ticks, so they fire in the order they were
    // queued: this event's burst is at the front.
    for (; burst > 0; --burst) {
        std::uint32_t slot = refetchSlots.front();
        refetchSlots.pop_front();
        const OpState &op = notePoll(slot);
        memory.burstPoll(op.who, addrOf(op.var), op.threshold, *this,
                         slot);
    }
}

void
MemorySyncFabric::waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                         WaitHandler on_done)
{
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u wait v%u >= %llu (memory fabric)", who,
                  var, static_cast<unsigned long long>(threshold));
    PSYNC_TRACE(tracer, syncVarOp(var, "wait", who, eventq.now()));
    std::uint32_t slot = ops.alloc();
    OpState &op = ops[slot];
    op.who = who;
    op.var = var;
    op.threshold = threshold;
    op.started = eventq.now();
    op.onWait = std::move(on_done);
    trackWaitStart(var);
    pollLoop(slot);
}

void
MemorySyncFabric::read(ProcId who, SyncVarId var, ValueHandler on_done)
{
    memory.read(who, addrOf(var), std::move(on_done));
}

void
MemorySyncFabric::write(ProcId who, SyncVarId var, SyncWord value,
                        DoneHandler on_done)
{
    ++writesStat;
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u write v%u = %llu (memory fabric)", who,
                  var, static_cast<unsigned long long>(value));
    PSYNC_TRACE(tracer, syncVarOp(var, "write", who, eventq.now()));
    std::uint32_t slot = ops.alloc();
    ops[slot].var = var;
    ops[slot].onDone = std::move(on_done);
    memory.write(who, addrOf(var), value,
                 [this, slot]() { writeDone(slot); });
}

void
MemorySyncFabric::writeDone(std::uint32_t slot)
{
    SyncVarId var = ops[slot].var;
    DoneHandler on_done = std::move(ops[slot].onDone);
    ops.free(slot);
    invalidate(var);
    on_done();
}

void
MemorySyncFabric::fetchInc(ProcId who, SyncVarId var,
                           ValueHandler on_done)
{
    ++rmwsStat;
    PSYNC_TRACE(tracer, syncVarOp(var, "rmw", who, eventq.now()));
    std::uint32_t slot = ops.alloc();
    ops[slot].var = var;
    ops[slot].onValue = std::move(on_done);
    memory.rmw(who, addrOf(var),
               [](SyncWord old_value) { return old_value + 1; },
               [this, slot](SyncWord old_value) {
        fetchIncDone(slot, old_value);
    });
}

void
MemorySyncFabric::fetchIncDone(std::uint32_t slot, SyncWord old_value)
{
    SyncVarId var = ops[slot].var;
    ValueHandler on_done = std::move(ops[slot].onValue);
    ops.free(slot);
    invalidate(var);
    on_done(old_value);
}

void
MemorySyncFabric::keyedService(std::uint32_t slot)
{
    OpState &op = ops[slot];
    SyncVarId key = op.var;
    Addr key_addr = addrOf(key);
    SyncWord current = memory.peek(key_addr);
    if (current >= op.threshold) {
        // Test passed: the same module service also performs the
        // data access (key and datum are co-located) and the key
        // increment.
        memory.poke(key_addr, current + 1);
        Tick waited = eventq.now() - op.started;
        if (waited > 0)
            PSYNC_TRACE(tracer,
                        waitEdge(key, op.who, op.started,
                                 eventq.now()));
        trackWaitEnd(key);
        WaitHandler on_done = std::move(op.onWait);
        ops.free(slot);
        wakeKeyed(key);
        on_done(waited);
        return;
    }
    trackPark(op.who, eventq.now());
    parkedKeyed.park(key, 0, slot);
}

void
MemorySyncFabric::wakeKeyed(SyncVarId key)
{
    parkedKeyed.releaseAll(key, [this, key](std::uint32_t slot) {
        ++keyedRetriesStat;
        trackUnpark(ops[slot].who);
        // The retry occupies the key's module but never the
        // interconnect: the synchronization processor is local.
        memory.serviceAtModule(
            addrOf(key), [this, slot]() { keyedService(slot); });
    });
}

void
MemorySyncFabric::keyedAccess(ProcId who, SyncVarId key,
                              SyncWord threshold,
                              WaitHandler on_done)
{
    ++keyedOpsStat;
    PSYNC_TRACE(tracer, syncVarOp(key, "keyed", who, eventq.now()));
    std::uint32_t slot = ops.alloc();
    OpState &op = ops[slot];
    op.who = who;
    op.var = key;
    op.threshold = threshold;
    op.started = eventq.now();
    op.onWait = std::move(on_done);
    trackWaitStart(key);
    // One interconnect transaction delivers the combined request
    // to the module; reuse the read path for its timing.
    memory.read(who, addrOf(key),
                [this, slot](SyncWord) { keyedService(slot); });
}

SyncWord
MemorySyncFabric::peek(SyncVarId var) const
{
    return memory.peek(addrOf(var));
}

void
MemorySyncFabric::poke(SyncVarId var, SyncWord value)
{
    memory.poke(addrOf(var), value);
}

void
MemorySyncFabric::registerStats(stats::Group &group) const
{
    group.add(pollsStat);
    group.add(writesStat);
    group.add(rmwsStat);
    group.add(keyedOpsStat);
    group.add(keyedRetriesStat);
}

//
// ImageOps
//

std::uint32_t
ImageOps::hold(ResultHandler on_done)
{
    std::uint32_t slot = ops.alloc();
    ops[slot].onResult = std::move(on_done);
    return slot;
}

void
ImageOps::wait(ProcId who, SyncVarId word, SyncWord threshold,
               SyncWord current, ResultHandler on_done)
{
    std::uint32_t slot = hold(std::move(on_done));
    if (current >= threshold) {
        ready(slot, 0);
        return;
    }
    ops[slot].who = who;
    ops[slot].started = eventq.now();
    waits.park(word, threshold, slot);
}

void
ImageOps::ready(std::uint32_t slot, std::uint64_t result)
{
    ops[slot].result = result;
    eventq.scheduleIn(0, [this, slot]() { fire(slot); });
}

void
ImageOps::run(std::uint32_t slot, std::uint64_t result)
{
    ResultHandler handler = std::move(ops[slot].onResult);
    ops.free(slot);
    handler(result);
}

void
ImageOps::writeDone(SyncFabric::DoneHandler on_done)
{
    std::uint32_t slot = ops.alloc();
    ops[slot].onDone = std::move(on_done);
    ready(slot, 0);
}

void
ImageOps::fire(std::uint32_t slot)
{
    if (!ops[slot].onDone) {
        run(slot, ops[slot].result);
        return;
    }
    SyncFabric::DoneHandler handler = std::move(ops[slot].onDone);
    ops.free(slot);
    handler();
}

//
// RegisterSyncFabric
//

RegisterSyncFabric::RegisterSyncFabric(EventQueue &eq, Bus &sync_bus,
                                       unsigned capacity, bool coalesce,
                                       Tracer *trace)
    : eventq(eq),
      syncBus(sync_bus),
      capacity_(capacity),
      coalesceEnabled(coalesce),
      tracer(trace),
      ops(eq),
      broadcastsStat("syncfab.reg.broadcasts"),
      coalescedStat("syncfab.reg.coalesced_writes"),
      localReadsStat("syncfab.reg.local_reads"),
      wakeupsStat("syncfab.reg.wakeups")
{
}

SyncVarId
RegisterSyncFabric::allocate(unsigned count, SyncWord init_value)
{
    if (numVars + count > capacity_)
        fatal("register sync fabric out of registers: want %u more, "
              "have %u of %u", count, numVars, capacity_);
    SyncVarId first = numVars;
    values.resize(numVars + count, init_value);
    numVars += count;
    return first;
}

void
RegisterSyncFabric::commit(SyncVarId var, SyncWord value)
{
    values[var] = value;
    ops.release(var, value, [&](ProcId who, Tick started) {
        ++wakeupsStat;
        if (eventq.now() > started) {
            PSYNC_TRACE(tracer,
                        waitEdge(var, who, started, eventq.now()));
        }
    });
}

void
RegisterSyncFabric::waitGE(ProcId who, SyncVarId var, SyncWord threshold,
                           WaitHandler on_done)
{
    ++localReadsStat;
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u wait v%u >= %llu (local image %llu)", who,
                  var, static_cast<unsigned long long>(threshold),
                  static_cast<unsigned long long>(values[var]));
    PSYNC_TRACE(tracer, syncVarOp(var, "wait", who, eventq.now()));
    ops.wait(who, var, threshold, values[var], std::move(on_done));
}

void
RegisterSyncFabric::sampleTimeline(Tracer &t, Tick at) const
{
    ops.waiting().forEachVar([&](SyncVarId var, std::size_t count) {
        t.sample(SampleStream::syncVarWaiters, var, at,
                 static_cast<double>(count));
    });
}

void
RegisterSyncFabric::read(ProcId who, SyncVarId var, ValueHandler on_done)
{
    (void)who;
    ++localReadsStat;
    ops.ready(ops.hold(std::move(on_done)), values[var]);
}

void
RegisterSyncFabric::write(ProcId who, SyncVarId var, SyncWord value,
                          DoneHandler on_done)
{
    std::uint64_t key = (static_cast<std::uint64_t>(who) << 32) | var;
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u write v%u = %llu (register fabric)", who,
                  var, static_cast<unsigned long long>(value));
    PSYNC_TRACE(tracer, syncVarOp(var, "write", who, eventq.now()));
    PendingWrite &pw = pendingWrites[key];
    if (!pw.post(value, coalesceEnabled)) {
        // A broadcast of this variable from this processor is still
        // waiting for the bus; the newer value covers the older one.
        ++coalescedStat;
        PSYNC_TRACE(tracer,
                    syncVarOp(var, "coalesced", who, eventq.now()));
    } else {
        // The value is latched at grant time: once the write gains
        // the bus it can no longer be covered by a newer write
        // (section 6), so the pending entry closes then.
        PendingWrite *entry = &pw;
        syncBus.transact(
            who, [entry](Tick) { entry->latch(); },
            [this, who, var, entry](Tick) {
                ++broadcastsStat;
                PSYNC_TRACE(tracer, instant("sync_broadcast", who,
                                            eventq.now()));
                PSYNC_TRACE(tracer, syncVarOp(var, "broadcast", who,
                                              eventq.now()));
                commit(var, entry->latched);
            });
    }
    // Posted write: the issuing processor continues immediately.
    ops.writeDone(std::move(on_done));
}

void
RegisterSyncFabric::fetchInc(ProcId who, SyncVarId var,
                             ValueHandler on_done)
{
    // Atomicity comes from bus serialization: the increment is
    // applied at broadcast time, and no value is returned until
    // this processor's turn on the bus.
    PSYNC_TRACE(tracer, syncVarOp(var, "rmw", who, eventq.now()));
    std::uint32_t slot = ops.hold(std::move(on_done));
    syncBus.transact(who, [this, who, var, slot](Tick) {
        SyncWord old_value = values[var];
        ++broadcastsStat;
        PSYNC_TRACE(tracer,
                    instant("sync_broadcast", who, eventq.now()));
        commit(var, old_value + 1);
        ops.run(slot, old_value);
    });
}

SyncWord
RegisterSyncFabric::peek(SyncVarId var) const
{
    return values[var];
}

void
RegisterSyncFabric::poke(SyncVarId var, SyncWord value)
{
    values[var] = value;
}

void
RegisterSyncFabric::registerStats(stats::Group &group) const
{
    group.add(broadcastsStat);
    group.add(coalescedStat);
    group.add(localReadsStat);
    group.add(wakeupsStat);
}

} // namespace sim
} // namespace psync
