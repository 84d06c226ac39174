#include "sim/bus.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

Bus::Bus(EventQueue &eq, std::string bus_name, Tick cycles_per_txn,
         Tracer *trace)
    : eventq(eq),
      name_(std::move(bus_name)),
      cyclesPerTxn(cycles_per_txn),
      tracer(trace),
      numTransactions(name_ + ".transactions"),
      busyCyclesStat(name_ + ".busy_cycles"),
      queueDelayStat(name_ + ".queue_delay"),
      maxQueueStat(name_ + ".max_queue")
{
}

void
Bus::transact(ProcId who, GrantHandler on_done)
{
    transact(who, GrantHandler{}, std::move(on_done));
}

void
Bus::transact(ProcId who, GrantHandler on_grant, GrantHandler on_done)
{
    std::uint32_t slot = requests.alloc();
    Request &req = requests[slot];
    req.who = who;
    req.issued = eventq.now();
    req.onGrant = std::move(on_grant);
    req.onDone = std::move(on_done);
    pending.push_back(slot);
    queued();
}

void
Bus::transactBurst(BurstSink &sink)
{
    Tick now = eventq.now();
    if (!pending.empty()) {
        Request &tail = requests[pending.back()];
        if (tail.burst == &sink && tail.issued == now) {
            ++tail.count;
            queued();
            return;
        }
    }
    std::uint32_t slot = requests.alloc();
    Request &req = requests[slot];
    req.issued = now;
    req.burst = &sink;
    pending.push_back(slot);
    queued();
}

void
Bus::queued()
{
    ++waiting;
    maxQueueStat.updateMax(static_cast<double>(waiting));
    if (!granting)
        grantNext(false);
}

bool
Bus::grantNext(bool in_step)
{
    if (pending.empty()) {
        granting = false;
        return false;
    }
    granting = true;

    std::uint32_t slot = pending.front();
    Request &req = requests[slot];
    BurstSink *burst = req.burst;
    Tick issued = req.issued;
    ProcId who = req.who;
    if (!burst || --req.count == 0)
        pending.pop_front();
    --waiting;

    Tick grant = std::max(eventq.now(), freeAt);
    Tick done = grant + cyclesPerTxn;
    freeAt = done;

    ++numTransactions;
    busyCyclesStat += static_cast<double>(cyclesPerTxn);
    queueDelayStat += static_cast<double>(grant - issued);

    // A burst transaction's requester is only asked for when
    // someone looks.
    PSYNC_DPRINTF(eventq, Bus,
                  "%s grant proc %u (queued %llu cycles)",
                  name_.c_str(), burst ? burst->burstHead() : who,
                  static_cast<unsigned long long>(grant - issued));
    PSYNC_TRACE(tracer, resourceBusy(name_, 0,
                                     burst ? burst->burstHead() : who,
                                     grant, done));

    if (burst) {
        if (req.count == 0)
            requests.free(slot);
        stepSink = burst;
        if (in_step && eventq.stepInline(done))
            return true;
        eventq.arm(*this, done);
        return false;
    }

    // grant == now() here: arbitration happens either immediately
    // on request or right as the previous transaction completes.
    if (req.onGrant) {
        // Moved out first: the hook may queue on this bus, which can
        // grow the slab under `req`.
        GrantHandler on_grant = std::move(req.onGrant);
        on_grant(grant);
    }
    eventq.schedule(done, [this, slot, grant]() {
        GrantHandler handler = std::move(requests[slot].onDone);
        requests.free(slot);
        handler(grant);
        grantNext(false);
    });
    return false;
}

void
Bus::step()
{
    // Deliver, grant the next transaction, and deliver it here too
    // while the event queue lets its step run in place.
    do {
        BurstSink *sink = stepSink;
        stepSink = nullptr;
        sink->burstDelivered();
    } while (grantNext(true));
}

void
Bus::sampleTimeline(Tracer &t, std::uint32_t index, Tick at) const
{
    // busyCyclesStat books a transaction's full occupancy at grant
    // time; back out the not-yet-elapsed tail of an in-flight
    // transaction so consecutive samples difference to the busy
    // cycles actually inside the interval.
    double busy = busyCyclesStat.value();
    if (granting && freeAt > at)
        busy -= static_cast<double>(freeAt - at);
    if (busy < 0)
        busy = 0;
    t.sample(SampleStream::busBusyCycles, index, at, busy);
    t.sample(SampleStream::busQueueDepth, index, at,
             static_cast<double>(waiting + (granting ? 1 : 0)));
}

double
Bus::utilization(Tick end_tick) const
{
    if (end_tick == 0)
        return 0.0;
    return busyCyclesStat.value() / static_cast<double>(end_tick);
}

void
Bus::registerStats(stats::Group &group) const
{
    group.add(numTransactions);
    group.add(busyCyclesStat);
    group.add(queueDelayStat);
    group.add(maxQueueStat);
}

} // namespace sim
} // namespace psync
