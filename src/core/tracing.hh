/**
 * @file
 * Concrete trace recorder and exporters.
 *
 * TraceRecorder implements sim::Tracer by buffering every reported
 * event in memory; after the run the profile, blame and timeline
 * builders read it, and it can be exported as Chrome trace-event
 * JSON (load in Perfetto / chrome://tracing). Recording is
 * append-only and passive — it never touches the event queue — so a
 * traced run produces statistics identical to an untraced one.
 */

#ifndef PSYNC_CORE_TRACING_HH
#define PSYNC_CORE_TRACING_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/json.hh"
#include "sim/tracing.hh"

namespace psync {
namespace core {

/** In-memory recording of one run's trace events. */
class TraceRecorder : public sim::Tracer
{
  public:
    struct PhaseEvent
    {
        sim::ProcId who;
        sim::TracePhase phase;
        sim::Tick start;
        sim::Tick end;
    };

    struct ResourceEvent
    {
        std::string resource;
        unsigned index;
        sim::ProcId who;
        sim::Tick start;
        sim::Tick end;
    };

    /** One satisfied wait: `who` blocked on `var` over [start, end). */
    struct WaitEdge
    {
        sim::SyncVarId var;
        sim::ProcId who;
        sim::Tick start;
        sim::Tick end;

        sim::Tick cycles() const { return end - start; }
    };

    /**
     * One satisfied program-op wait, keyed by the emitting op's
     * stable IR id (0 = hand-built program). Aggregating these by
     * (var, opId) attributes blocking to the wait *site* the
     * scheme emitted, across iterations.
     */
    struct WaitSiteEdge
    {
        sim::SyncVarId var;
        sim::ProcId who;
        std::uint32_t opId;
        sim::Tick start;
        sim::Tick end;

        sim::Tick cycles() const { return end - start; }
    };

    /**
     * One executed program op: issue through completion on one
     * processor, stamped with the op's stable IR id, kind, sync
     * variable (0 = none) and iteration. Spans of one processor
     * never overlap and arrive in completion order; together with
     * the wait edges they are the profiler's (core/profile) input.
     */
    struct OpSpan
    {
        sim::ProcId who;
        std::uint64_t iter;
        std::uint32_t opId;
        ir::OpKind kind;
        sim::SyncVarId var;
        sim::Tick start;
        sim::Tick end;

        sim::Tick cycles() const { return end - start; }
    };

    /**
     * One sync-variable access event with its actor and time. The
     * profiler scans these to find which processor's operation
     * satisfied a blocked wait.
     */
    struct SyncOpEvent
    {
        sim::SyncVarId var;
        sim::ProcId who;
        sim::Tick at;
        sim::SyncOp op;
    };

    /**
     * One timeline sample: `stream[index]` had `value` at tick
     * `at`. Samples of one stream arrive in non-decreasing tick
     * order (the machine emits one batch per interval boundary).
     */
    struct TimelineSample
    {
        sim::SampleStream stream;
        std::uint32_t index;
        sim::Tick at;
        double value;
    };

    void phaseInterval(sim::ProcId who, sim::TracePhase phase,
                       sim::Tick start, sim::Tick end) override;
    void resourceBusy(const std::string &resource, unsigned index,
                      sim::ProcId who, sim::Tick start,
                      sim::Tick end) override;
    void syncVarOp(sim::SyncVarId var, sim::SyncOp op,
                   sim::ProcId who, sim::Tick at) override;
    void waitEdge(sim::SyncVarId var, sim::ProcId who,
                  sim::Tick start, sim::Tick end) override;
    void waitEdgeOp(sim::SyncVarId var, sim::ProcId who,
                    std::uint32_t op_id, sim::Tick start,
                    sim::Tick end) override;
    void opSpan(sim::ProcId who, std::uint64_t iter,
                std::uint32_t op_id, ir::OpKind kind,
                sim::SyncVarId var, sim::Tick start,
                sim::Tick end) override;
    void sample(sim::SampleStream stream, std::uint32_t index,
                sim::Tick at, double value) override;
    void thinSamples(sim::Tick origin, sim::Tick stride) override;
    void nameSyncVar(sim::SyncVarId var,
                     const std::string &label) override;

    const std::vector<PhaseEvent> &phases() const { return phases_; }
    const std::vector<ResourceEvent> &resources() const
    {
        return resources_;
    }
    const std::vector<WaitEdge> &waitEdges() const
    {
        return waitEdges_;
    }
    const std::vector<WaitSiteEdge> &waitSiteEdges() const
    {
        return waitSiteEdges_;
    }
    const std::vector<OpSpan> &opSpans() const { return opSpans_; }
    const std::vector<TimelineSample> &samples() const
    {
        return samples_;
    }
    const std::vector<SyncOpEvent> &syncOpEvents() const
    {
        return syncOpEvents_;
    }

    /** Label nameSyncVar gave `var`; empty when it has none. */
    const std::string &syncVarLabel(sim::SyncVarId var) const;

    std::size_t
    eventCount() const
    {
        return phases_.size() + resources_.size() +
               waitEdges_.size() + opSpans_.size();
    }

    /** Drop everything recorded so far (reuse across runs). */
    void clear();

    /**
     * Export as a Chrome trace-event JSON document:
     * `{"traceEvents": [...], "displayTimeUnit": "ns"}`. One tick
     * maps to one microsecond of trace time. Process 0 holds one
     * thread per simulated processor (phase intervals as complete
     * "X" events); process 1 holds one thread per hardware resource
     * (bus, memory modules) plus a counter "C" track per timeline
     * stream, bus queue depth among them, when the run was sampled.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Chrome trace as a json::Value (tests introspect this). */
    json::Value chromeTrace() const;

  private:
    std::vector<PhaseEvent> phases_;
    std::vector<ResourceEvent> resources_;
    std::vector<WaitEdge> waitEdges_;
    std::vector<WaitSiteEdge> waitSiteEdges_;
    std::vector<OpSpan> opSpans_;
    std::vector<SyncOpEvent> syncOpEvents_;
    std::vector<TimelineSample> samples_;
    std::map<sim::SyncVarId, std::string> labels_;
};

} // namespace core
} // namespace psync

#endif // PSYNC_CORE_TRACING_HH
