#include "core/tracing.hh"

#include <algorithm>

namespace psync {
namespace core {

void
TraceRecorder::phaseInterval(sim::ProcId who, sim::TracePhase phase,
                             sim::Tick start, sim::Tick end)
{
    phases_.push_back({who, phase, start, end});
}

void
TraceRecorder::resourceBusy(const std::string &resource,
                            unsigned index, sim::ProcId who,
                            sim::Tick start, sim::Tick end)
{
    resources_.push_back({resource, index, who, start, end});
}

void
TraceRecorder::syncVarOp(sim::SyncVarId var, sim::SyncOp op,
                         sim::ProcId who, sim::Tick at)
{
    syncOpEvents_.push_back({var, who, at, op});
}

void
TraceRecorder::waitEdge(sim::SyncVarId var, sim::ProcId who,
                        sim::Tick start, sim::Tick end)
{
    waitEdges_.push_back({var, who, start, end});
}

void
TraceRecorder::waitEdgeOp(sim::SyncVarId var, sim::ProcId who,
                          std::uint32_t op_id, sim::Tick start,
                          sim::Tick end)
{
    waitSiteEdges_.push_back({var, who, op_id, start, end});
}

void
TraceRecorder::opSpan(sim::ProcId who, std::uint64_t iter,
                      std::uint32_t op_id, ir::OpKind kind,
                      sim::SyncVarId var, sim::Tick start,
                      sim::Tick end)
{
    opSpans_.push_back({who, iter, op_id, kind, var, start, end});
}

void
TraceRecorder::sample(sim::SampleStream stream, std::uint32_t index,
                      sim::Tick at, double value)
{
    samples_.push_back({stream, index, at, value});
}

void
TraceRecorder::thinSamples(sim::Tick origin, sim::Tick stride)
{
    std::erase_if(samples_, [&](const TimelineSample &s) {
        return (s.at - origin) % stride != 0;
    });
}

void
TraceRecorder::nameSyncVar(sim::SyncVarId var,
                           const std::string &label)
{
    labels_[var] = label;
}

const std::string &
TraceRecorder::syncVarLabel(sim::SyncVarId var) const
{
    static const std::string none;
    auto it = labels_.find(var);
    return it == labels_.end() ? none : it->second;
}

void
TraceRecorder::clear()
{
    phases_.clear();
    resources_.clear();
    waitEdges_.clear();
    waitSiteEdges_.clear();
    opSpans_.clear();
    syncOpEvents_.clear();
    samples_.clear();
    labels_.clear();
}

namespace {

// Trace-event pids: processors on one track group, hardware
// resources on another, so Perfetto shows them as two processes.
constexpr int pidProcs = 0;
constexpr int pidResources = 1;

json::Value
metadataEvent(int pid, int tid, const char *what,
              const std::string &name)
{
    json::Value ev = json::object();
    ev.set("name", what);
    ev.set("ph", "M");
    ev.set("pid", pid);
    ev.set("tid", tid);
    json::Value args = json::object();
    args.set("name", name);
    ev.set("args", std::move(args));
    return ev;
}

} // namespace

json::Value
TraceRecorder::chromeTrace() const
{
    json::Value events = json::array();

    events.push(metadataEvent(pidProcs, 0, "process_name",
                              "processors"));
    events.push(metadataEvent(pidResources, 0, "process_name",
                              "resources"));

    // Name one thread per processor that shows up anywhere.
    std::vector<sim::ProcId> procs;
    for (const auto &e : phases_)
        procs.push_back(e.who);
    std::sort(procs.begin(), procs.end());
    procs.erase(std::unique(procs.begin(), procs.end()),
                procs.end());
    for (sim::ProcId p : procs) {
        events.push(metadataEvent(pidProcs, static_cast<int>(p),
                                  "thread_name",
                                  "proc " + std::to_string(p)));
    }

    // Name one thread per distinct resource (bus index 0, memory
    // module k, ...). Assign tids in first-appearance order.
    std::vector<std::pair<std::string, unsigned>> resourceIds;
    auto resourceTid = [&](const std::string &resource,
                           unsigned index) {
        auto key = std::make_pair(resource, index);
        auto it = std::find(resourceIds.begin(), resourceIds.end(),
                            key);
        if (it == resourceIds.end()) {
            resourceIds.push_back(key);
            return static_cast<int>(resourceIds.size() - 1);
        }
        return static_cast<int>(it - resourceIds.begin());
    };
    for (const auto &e : resources_)
        resourceTid(e.resource, e.index);
    for (size_t i = 0; i < resourceIds.size(); ++i) {
        std::string label = resourceIds[i].first;
        if (resourceIds[i].second || label == sim::memoryModuleResource)
            label += "[" + std::to_string(resourceIds[i].second) +
                     "]";
        events.push(metadataEvent(pidResources, static_cast<int>(i),
                                  "thread_name", label));
    }

    // Phase intervals: complete events, ts/dur in trace µs == ticks.
    for (const auto &e : phases_) {
        json::Value ev = json::object();
        ev.set("name", sim::tracePhaseName(e.phase));
        ev.set("cat", "phase");
        ev.set("ph", "X");
        ev.set("ts", e.start);
        ev.set("dur", e.end - e.start);
        ev.set("pid", pidProcs);
        ev.set("tid", static_cast<int>(e.who));
        events.push(std::move(ev));
    }

    for (const auto &e : resources_) {
        json::Value ev = json::object();
        ev.set("name", "busy");
        ev.set("cat", "resource");
        ev.set("ph", "X");
        ev.set("ts", e.start);
        ev.set("dur", e.end - e.start);
        ev.set("pid", pidResources);
        ev.set("tid", resourceTid(e.resource, e.index));
        json::Value args = json::object();
        args.set("proc", e.who);
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }

    // Timeline sample streams as counter tracks. Cumulative
    // streams are differenced between consecutive samples so
    // Perfetto shows per-interval rates instead of running totals;
    // the activity-code stream is skipped (the phase track already
    // shows processor state as spans).
    std::map<std::pair<int, std::uint32_t>, double> lastCumulative;
    for (const auto &s : samples_) {
        if (s.stream == sim::SampleStream::procActivity)
            continue;
        double value = s.value;
        if (sim::sampleStreamCumulative(s.stream)) {
            auto key = std::make_pair(static_cast<int>(s.stream),
                                      s.index);
            auto it = lastCumulative.find(key);
            value = s.value -
                    (it == lastCumulative.end() ? 0.0 : it->second);
            lastCumulative[key] = s.value;
        }
        std::string name =
            std::string("timeline.") + sim::sampleStreamName(s.stream);
        if (sim::sampleStreamIndexed(s.stream))
            name += "[" + std::to_string(s.index) + "]";
        json::Value ev = json::object();
        ev.set("name", std::move(name));
        ev.set("cat", "timeline");
        ev.set("ph", "C");
        ev.set("ts", s.at);
        ev.set("pid", pidResources);
        json::Value args = json::object();
        args.set("value", value);
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }

    json::Value doc = json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ns");
    return doc;
}

void
TraceRecorder::writeChromeTrace(std::ostream &os) const
{
    chromeTrace().dump(os, 0);
    os << "\n";
}

} // namespace core
} // namespace psync
