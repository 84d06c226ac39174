#include "sim/memory.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

Memory::Memory(EventQueue &eq, Interconnect &data_net,
               const MemoryConfig &cfg, Tracer *trace)
    : eventq(eq),
      dataNet(data_net),
      dataBus(dynamic_cast<Bus *>(&data_net)),
      config(cfg),
      tracer(trace),
      moduleFreeAt(cfg.numModules, 0),
      storeHorizon(horizonSlots, 0),
      accessesStat("memory.module_accesses", cfg.numModules),
      queueDelayStat("memory.module_queue_delay"),
      readsStat("memory.reads"),
      writesStat("memory.writes"),
      rmwsStat("memory.rmws"),
      settledPollsStat("memory.settled_polls")
{
    if (config.numModules == 0)
        fatal("memory must have at least one module");
}

std::uint32_t
Memory::open(Request::Kind kind, ProcId who, Addr addr,
             Tick service_cycles)
{
    std::uint32_t slot = requests.alloc();
    Request &req = requests[slot];
    req.kind = kind;
    req.who = who;
    req.addr = addr;
    Addr word = addr / config.wordBytes;
    req.module = static_cast<unsigned>(word % config.numModules);
    req.horizon = static_cast<unsigned>(word % horizonSlots);
    req.serviceCycles = service_cycles;
    return slot;
}

void
Memory::service(std::uint32_t slot)
{
    accessesStat[requests[slot].module] += 1;
    dataNet.transact(requests[slot].who,
                     [this, slot](Tick) { arrived(slot); });
}

Tick
Memory::occupy(unsigned module, ProcId who, Tick service_cycles)
{
    Tick arrive = eventq.now();
    Tick start = std::max(arrive, moduleFreeAt[module]);
    Tick done = start + service_cycles;
    moduleFreeAt[module] = done;
    queueDelayStat += static_cast<double>(start - arrive);
    PSYNC_DPRINTF(eventq, Mem,
                  "module %u service proc %u [%llu, %llu)", module, who,
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(done));
    PSYNC_TRACE(tracer,
                resourceBusy(memoryModuleResource, module, who, start, done));
    return done;
}

void
Memory::arrived(std::uint32_t slot)
{
    Request &req = requests[slot];
    Tick done = occupy(req.module, req.who, req.serviceCycles);
    if (req.kind == Request::Kind::poll) {
        SyncWord value = peek(req.addr);
        if (settles(req.horizon, value, req.value)) {
            ++settledPollsStat;
            PollHandler on_done = std::move(req.onPoll);
            requests.free(slot);
            on_done(value, done);
            return;
        }
    } else if (req.kind != Request::Kind::readDiscard) {
        Tick &horizon = storeHorizon[req.horizon];
        horizon = std::max(horizon, done);
    }
    eventq.schedule(done, [this, slot]() { complete(slot); });
}

void
Memory::burstDelivered()
{
    BurstPoll poll = burstPolls.front();
    burstPolls.pop_front();
    const BurstTarget &target = poll.target;
    Tick done = occupy(target.module, poll.who, config.serviceCycles);
    SyncWord value = *target.word;
    if (settles(target.horizon, value, poll.threshold)) {
        ++settledPollsStat;
        poll.sink->pollDone(poll.tag, value, done);
        return;
    }
    // A poll that cannot settle completes as a request of its own,
    // from the event poll() would have scheduled here.
    std::uint32_t slot = open(Request::Kind::poll, poll.who, target.addr,
                              config.serviceCycles);
    requests[slot].onPoll = [sink = poll.sink, tag = poll.tag](
                                SyncWord v, Tick at) {
        sink->pollDone(tag, v, at);
    };
    eventq.schedule(done, [this, slot]() { complete(slot); });
}

void
Memory::complete(std::uint32_t slot)
{
    Request &req = requests[slot];
    Addr addr = req.addr;
    switch (req.kind) {
      case Request::Kind::read: {
        ValueHandler on_done = std::move(req.onValue);
        requests.free(slot);
        on_done(peek(addr));
        return;
      }
      case Request::Kind::poll: {
        PollHandler on_done = std::move(req.onPoll);
        requests.free(slot);
        on_done(peek(addr), eventq.now());
        return;
      }
      case Request::Kind::readDiscard: {
        AccessHandler on_done = std::move(req.onAccess);
        requests.free(slot);
        on_done();
        return;
      }
      case Request::Kind::write: {
        words[addr] = req.value;
        AccessHandler on_done = std::move(req.onAccess);
        requests.free(slot);
        on_done();
        return;
      }
      case Request::Kind::rmw: {
        SyncWord old_value = peek(addr);
        words[addr] = req.modify(old_value);
        ValueHandler on_done = std::move(req.onValue);
        requests.free(slot);
        on_done(old_value);
        return;
      }
    }
}

void
Memory::read(ProcId who, Addr addr, ValueHandler on_done)
{
    ++readsStat;
    std::uint32_t slot =
        open(Request::Kind::read, who, addr, config.serviceCycles);
    requests[slot].onValue = std::move(on_done);
    service(slot);
}

void
Memory::readDiscard(ProcId who, Addr addr, AccessHandler on_done)
{
    ++readsStat;
    std::uint32_t slot = open(Request::Kind::readDiscard, who, addr,
                              config.serviceCycles);
    requests[slot].onAccess = std::move(on_done);
    service(slot);
}

void
Memory::poll(ProcId who, Addr addr, SyncWord threshold,
             PollHandler on_done)
{
    ++readsStat;
    std::uint32_t slot =
        open(Request::Kind::poll, who, addr, config.serviceCycles);
    requests[slot].value = threshold;
    requests[slot].onPoll = std::move(on_done);
    service(slot);
}

void
Memory::burstPoll(ProcId who, Addr addr, SyncWord threshold,
                  PollSink &sink, std::uint32_t tag)
{
    if (!dataBus) {
        poll(who, addr, threshold, [&sink, tag](SyncWord v, Tick done) {
            sink.pollDone(tag, v, done);
        });
        return;
    }
    ++readsStat;
    if (addr != burstTarget.addr) {
        // A burst's polls all read one word: resolve it once.
        Addr word = addr / config.wordBytes;
        burstTarget.addr = addr;
        burstTarget.module =
            static_cast<unsigned>(word % config.numModules);
        burstTarget.horizon = static_cast<unsigned>(word % horizonSlots);
        burstTarget.word = &words[addr];
    }
    accessesStat[burstTarget.module] += 1;
    burstPolls.push_back({burstTarget, who, tag, threshold, &sink});
    dataBus->transactBurst(*this);
}

void
Memory::write(ProcId who, Addr addr, SyncWord value,
              AccessHandler on_done)
{
    ++writesStat;
    std::uint32_t slot =
        open(Request::Kind::write, who, addr, config.serviceCycles);
    requests[slot].value = value;
    requests[slot].onAccess = std::move(on_done);
    service(slot);
}

void
Memory::rmw(ProcId who, Addr addr, Modify modify, ValueHandler on_done)
{
    // An atomic read-modify-write holds the module for a read plus
    // a write; serialized arrivals at one hot word pay the full
    // double service each (the fetch&add funnel of Example 4).
    ++rmwsStat;
    std::uint32_t slot = open(Request::Kind::rmw, who, addr,
                              2 * config.serviceCycles);
    requests[slot].modify = std::move(modify);
    requests[slot].onValue = std::move(on_done);
    service(slot);
}

void
Memory::serviceAtModule(Addr addr, AccessHandler on_done)
{
    Addr word = addr / config.wordBytes;
    unsigned module = static_cast<unsigned>(word % config.numModules);
    accessesStat[module] += 1;
    Tick done = occupy(module, /*who=*/0, config.serviceCycles);
    Tick &horizon = storeHorizon[word % horizonSlots];
    horizon = std::max(horizon, done);
    eventq.schedule(done, std::move(on_done));
}

void
Memory::sampleTimeline(Tracer &t, Tick at) const
{
    for (unsigned m = 0; m < config.numModules; ++m) {
        t.sample(SampleStream::moduleAccesses, m, at, accessesStat[m]);
        // The reserved-until horizon divided by the service time is
        // the number of requests queued or in service at the module
        // right now (rmw counts double, matching its occupancy).
        double backlog = 0;
        if (moduleFreeAt[m] > at) {
            backlog = static_cast<double>(moduleFreeAt[m] - at) /
                      static_cast<double>(config.serviceCycles);
        }
        t.sample(SampleStream::moduleBacklog, m, at, backlog);
    }
}

double
Memory::hotSpotRatio() const
{
    double total = accessesStat.total();
    if (total == 0)
        return 1.0;
    double uniform = total / config.numModules;
    return accessesStat.maxValue() / uniform;
}

void
Memory::registerStats(stats::Group &group) const
{
    group.add(accessesStat);
    group.add(queueDelayStat);
    group.add(readsStat);
    group.add(writesStat);
    group.add(rmwsStat);
    group.add(settledPollsStat);
}

} // namespace sim
} // namespace psync
