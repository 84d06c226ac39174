#include "sim/machine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace psync {
namespace sim {

const char *
interconnectKindName(InterconnectKind kind)
{
    switch (kind) {
      case InterconnectKind::bus:
        return "bus";
      case InterconnectKind::omega:
        return "omega";
    }
    return "unknown";
}

namespace {

/** Switch stages to reach `endpoints` endpoints. */
unsigned
stagesFor(unsigned endpoints)
{
    unsigned stages = 1;
    while ((1u << stages) < endpoints)
        ++stages;
    return stages;
}

} // namespace

Machine::Machine(const MachineConfig &cfg, TraceSink *trace,
                 Tracer *tracer)
    : config_(cfg), tracer_(tracer), eventq_(cfg.eventCore)
{
    if (config_.numProcs == 0)
        fatal("machine needs at least one processor");

    switch (config_.interconnect) {
      case InterconnectKind::bus:
        dataNet_ = std::make_unique<Bus>(eventq_, "data_bus",
                                         config_.dataBusCycles,
                                         tracer);
        break;
      case InterconnectKind::omega:
        dataNet_ = std::make_unique<OmegaNetwork>(
            eventq_, "data_net", config_.numProcs,
            stagesFor(std::max(config_.numProcs,
                               config_.memory.numModules)),
            config_.netStageCycles, config_.netPortCycles);
        break;
    }
    memory_ = std::make_unique<Memory>(eventq_, *dataNet_,
                                       config_.memory, tracer);
    caches_ = std::make_unique<CacheSystem>(
        eventq_, *memory_, config_.numProcs, config_.cache);

    FabricAssembly fab = buildSyncFabric(syncTopologyOf(config_),
                                         eventq_, *memory_, tracer);
    syncBus_ = std::move(fab.syncBus);
    clusterBuses_ = std::move(fab.clusterBuses);
    fabric_ = std::move(fab.fabric);

    processors_.reserve(config_.numProcs);
    for (ProcId id = 0; id < config_.numProcs; ++id) {
        processors_.push_back(std::make_unique<Processor>(
            eventq_, id, *fabric_, *caches_, trace, tracer));
    }
}

Machine::~Machine()
{
    // A tick-limit stop (deadlock detection) leaves undrained
    // events whose handler captures point into the components
    // destroyed below; drop them all before any component dies.
    eventq_.clear();
}

bool
Machine::run(Processor::Dispatch dispatch, Tick limit)
{
    for (auto &proc : processors_)
        proc->start(dispatch);
#ifndef PSYNC_TRACING_DISABLED
    if (tracer_ && config_.timelineInterval > 0)
        return runSampled(limit);
#endif
    bool drained = eventq_.run(limit);
    return drained && allHalted();
}

bool
Machine::allHalted() const
{
    for (const auto &proc : processors_) {
        if (!proc->halted())
            return false;
    }
    return true;
}

bool
Machine::runSampled(Tick limit)
{
    // The resumable event core executes events with when <= chunk
    // limit and pauses with everything else intact, so chunking by
    // interval boundaries observes the exact (when, seq) order of
    // an unchunked run — sampling is passive by construction.
    Tick interval = config_.timelineInterval;
    const Tick origin = eventq_.now();
    Tick last_sampled = origin;
    sampleTimeline(last_sampled);
    std::size_t batches = 1;
    Tick boundary = last_sampled + interval;
    while (boundary < limit) {
        if (eventq_.run(boundary)) {
            // Drained mid-interval: close the timeline with a final
            // (possibly partial) sample at the last executed tick.
            if (eventq_.now() > last_sampled)
                sampleTimeline(eventq_.now());
            return allHalted();
        }
        sampleTimeline(boundary);
        last_sampled = boundary;
        if (++batches >= timelineSampleCap) {
            // Keep the batches on the doubled grid: the series a run
            // sampled at the doubled interval throughout would have.
            interval *= 2;
            tracer_->thinSamples(origin, interval);
            last_sampled -= (last_sampled - origin) % interval;
            batches = (last_sampled - origin) / interval + 1;
        }
        boundary = last_sampled + interval;
    }
    bool drained = eventq_.run(limit);
    if (drained && eventq_.now() > last_sampled)
        sampleTimeline(eventq_.now());
    return drained && allHalted();
}

void
Machine::sampleTimeline(Tick at)
{
#ifndef PSYNC_TRACING_DISABLED
    if (!tracer_)
        return;
    Tracer &t = *tracer_;
    if (Bus *data_bus = dataBus())
        data_bus->sampleTimeline(t, 0, at);
    if (syncBus_)
        syncBus_->sampleTimeline(t, 1, at);
    memory_->sampleTimeline(t, at);
    fabric_->sampleTimeline(t, at);
    t.sample(SampleStream::eventsExecuted, 0, at,
             static_cast<double>(eventq_.eventsExecuted()));
    t.sample(SampleStream::pendingEvents, 0, at,
             static_cast<double>(eventq_.pendingEvents()));
    t.sample(SampleStream::ringBuckets, 0, at,
             static_cast<double>(eventq_.occupiedBuckets()));
    t.sample(SampleStream::farHeapEvents, 0, at,
             static_cast<double>(eventq_.farEvents()));
    t.sample(SampleStream::heapFallbacks, 0, at,
             static_cast<double>(eventq_.heapFallbackEvents()));
    for (ProcId id = 0; id < config_.numProcs; ++id) {
        ProcActivity a = processors_[id]->activity();
        if (a == ProcActivity::spin && fabric_->isParked(id))
            a = ProcActivity::parked;
        t.sample(SampleStream::procActivity, id, at,
                 static_cast<double>(a));
    }
#else
    (void)at;
#endif
}

Tick
Machine::completionTick() const
{
    Tick last = 0;
    for (const auto &proc : processors_)
        last = std::max(last, proc->haltTick());
    return last;
}

void
Machine::dumpStats(std::ostream &os) const
{
    stats::Group group;
    registerStats(group);
    group.dump(os);
    for (const auto &proc : processors_)
        proc->dumpStats(os);
}

void
Machine::registerStats(stats::Group &group) const
{
    dataNet_->registerStats(group);
    if (syncBus_)
        syncBus_->registerStats(group);
    for (const auto &cb : clusterBuses_)
        cb->registerStats(group);
    memory_->registerStats(group);
    if (caches_->enabled())
        caches_->registerStats(group);
    fabric_->registerStats(group);
}

} // namespace sim
} // namespace psync
