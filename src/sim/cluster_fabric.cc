#include "sim/cluster_fabric.hh"

#include <map>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

HierarchicalSyncFabric::HierarchicalSyncFabric(
    EventQueue &eq, std::vector<Bus *> cluster_buses, Bus &global_bus,
    unsigned num_procs, unsigned capacity, bool coalesce,
    Tracer *trace)
    : eventq(eq),
      clusterBuses(std::move(cluster_buses)),
      globalBus(global_bus),
      capacity_(capacity),
      coalesceEnabled(coalesce),
      tracer(trace),
      ops(eq),
      localBroadcastsStat("syncfab.hier.local_broadcasts"),
      globalBroadcastsStat("syncfab.hier.global_broadcasts"),
      coalescedLocalStat("syncfab.hier.coalesced_local"),
      coalescedGlobalStat("syncfab.hier.coalesced_global"),
      combinedIncsStat("syncfab.hier.combined_incs"),
      localReadsStat("syncfab.hier.local_reads"),
      wakeupsStat("syncfab.hier.wakeups")
{
    if (clusterBuses.empty())
        fatal("hierarchical fabric needs at least one cluster");
    unsigned n = numClusters();
    procsPerCluster_ = (num_procs + n - 1) / n;
    if (procsPerCluster_ == 0)
        procsPerCluster_ = 1;
}

SyncVarId
HierarchicalSyncFabric::allocate(unsigned count, SyncWord init_value)
{
    if (numVars + count > capacity_)
        fatal("hierarchical sync fabric out of registers: want %u "
              "more, have %u of %u", count, numVars, capacity_);
    SyncVarId first = numVars;
    values.resize(numVars + count, init_value);
    images.resize(std::size_t{numVars + count} * numClusters(),
                  init_value);
    numVars += count;
    return first;
}

void
HierarchicalSyncFabric::commitCluster(unsigned c, SyncVarId var,
                                      SyncWord value)
{
    SyncVarId word = wordOf(c, var);
    images[word] = value;
    ops.release(word, value, [&](ProcId who, Tick started) {
        ++wakeupsStat;
        if (eventq.now() > started) {
            PSYNC_TRACE(tracer,
                        waitEdge(var, who, started, eventq.now()));
        }
    });
}

void
HierarchicalSyncFabric::waitGE(ProcId who, SyncVarId var,
                               SyncWord threshold, WaitHandler on_done)
{
    ++localReadsStat;
    unsigned c = clusterOf(who);
    SyncVarId word = wordOf(c, var);
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u wait v%u >= %llu (cluster %u image %llu)",
                  who, var,
                  static_cast<unsigned long long>(threshold), c,
                  static_cast<unsigned long long>(images[word]));
    PSYNC_TRACE(tracer, syncVarOp(var, "wait", who, eventq.now()));
    ops.wait(who, word, threshold, images[word], std::move(on_done));
}

void
HierarchicalSyncFabric::read(ProcId who, SyncVarId var,
                             ValueHandler on_done)
{
    ++localReadsStat;
    ops.ready(ops.hold(std::move(on_done)),
              images[wordOf(clusterOf(who), var)]);
}

void
HierarchicalSyncFabric::forwardGlobal(ProcId who, unsigned c,
                                      SyncVarId var, SyncWord value)
{
    PendingWrite &pw = pendingGlobal[pairKey(c, var)];
    if (!pw.post(value, coalesceEnabled)) {
        // A global broadcast of this variable from this cluster is
        // still waiting for the stage; the newer value covers it.
        ++coalescedGlobalStat;
        return;
    }
    PendingWrite *entry = &pw;
    globalBus.transact(
        who, [entry](Tick) { entry->latch(); },
        [this, var, entry](Tick) { commitGlobal(var, entry->latched); });
}

void
HierarchicalSyncFabric::commitGlobal(SyncVarId var, SyncWord value)
{
    ++globalBroadcastsStat;
    PSYNC_TRACE(tracer, syncVarOp(var, "broadcast", 0, eventq.now()));
    values[var] = value;
    for (unsigned c = 0; c < numClusters(); ++c)
        commitCluster(c, var, value);
}

void
HierarchicalSyncFabric::write(ProcId who, SyncVarId var,
                              SyncWord value, DoneHandler on_done)
{
    unsigned c = clusterOf(who);
    PSYNC_DPRINTF(eventq, Sync,
                  "proc %u write v%u = %llu (cluster %u)", who, var,
                  static_cast<unsigned long long>(value), c);
    PSYNC_TRACE(tracer, syncVarOp(var, "write", who, eventq.now()));
    PendingWrite &pw = pendingLocal[pairKey(who, var)];
    if (!pw.post(value, coalesceEnabled)) {
        ++coalescedLocalStat;
        PSYNC_TRACE(tracer,
                    syncVarOp(var, "coalesced", who, eventq.now()));
    } else {
        PendingWrite *entry = &pw;
        clusterBuses[c]->transact(
            who, [entry](Tick) { entry->latch(); },
            [this, who, var, c, entry](Tick) {
                ++localBroadcastsStat;
                SyncWord committed = entry->latched;
                commitCluster(c, var, committed);
                forwardGlobal(who, c, var, committed);
            });
    }
    // Posted write: the issuing processor continues immediately.
    ops.writeDone(std::move(on_done));
}

void
HierarchicalSyncFabric::applyIncBatch()
{
    InflightBatch batch = std::move(inflightIncs.front());
    inflightIncs.pop_front();
    ++globalBroadcastsStat;
    SyncWord base = values[batch.var];
    SyncWord count = static_cast<SyncWord>(batch.members.size());
    // Pre-values are handed out FIFO in batch-join order, exactly
    // as a serialized global stage would have granted them.
    for (std::size_t i = 0; i < batch.members.size(); ++i)
        ops.ready(batch.members[i], base + i);
    SyncWord committed = base + count;
    values[batch.var] = committed;
    for (unsigned c = 0; c < numClusters(); ++c)
        commitCluster(c, batch.var, committed);
}

void
HierarchicalSyncFabric::fetchInc(ProcId who, SyncVarId var,
                                 ValueHandler on_done)
{
    unsigned c = clusterOf(who);
    PSYNC_TRACE(tracer, syncVarOp(var, "rmw", who, eventq.now()));
    // The handler rests in a held slot, so the bus closure
    // captures only plain words.
    std::uint32_t slot = ops.hold(std::move(on_done));
    clusterBuses[c]->transact(who, [this, who, var, c, slot](Tick) {
        ++localBroadcastsStat;
        std::vector<std::uint32_t> &batch = openIncs[pairKey(c, var)];
        batch.push_back(slot);
        if (batch.size() > 1) {
            // The cluster engine already has a global fetch&add
            // queued for this variable: join its batch.
            ++combinedIncsStat;
            return;
        }
        std::vector<std::uint32_t> *open = &batch;
        globalBus.transact(
            who,
            [this, var, open](Tick) {
                // Grant closes the batch: the transaction on the
                // wire carries exactly the joined members.
                inflightIncs.push_back({var, std::move(*open)});
                open->clear();
            },
            [this](Tick) { applyIncBatch(); });
    });
}

SyncWord
HierarchicalSyncFabric::peek(SyncVarId var) const
{
    return values[var];
}

void
HierarchicalSyncFabric::poke(SyncVarId var, SyncWord value)
{
    values[var] = value;
    for (unsigned c = 0; c < numClusters(); ++c)
        images[wordOf(c, var)] = value;
}

void
HierarchicalSyncFabric::sampleTimeline(Tracer &t, Tick at) const
{
    std::map<SyncVarId, std::size_t> blocked;
    ops.waiting().forEachVar([&](SyncVarId word, std::size_t count) {
        blocked[word / numClusters()] += count;
    });
    for (const auto &entry : blocked) {
        t.sample(SampleStream::syncVarWaiters, entry.first, at,
                 static_cast<double>(entry.second));
    }
    for (unsigned c = 0; c < numClusters(); ++c) {
        t.sample(SampleStream::clusterBusBusyCycles, c, at,
                 static_cast<double>(clusterBuses[c]->busyCycles()));
    }
}

void
HierarchicalSyncFabric::registerStats(stats::Group &group) const
{
    group.add(localBroadcastsStat);
    group.add(globalBroadcastsStat);
    group.add(coalescedLocalStat);
    group.add(coalescedGlobalStat);
    group.add(combinedIncsStat);
    group.add(localReadsStat);
    group.add(wakeupsStat);
}

} // namespace sim
} // namespace psync
