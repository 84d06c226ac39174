#include "sim/tracing.hh"

namespace psync {
namespace sim {

Tracer::~Tracer() = default;

const char *
tracePhaseName(TracePhase phase)
{
    switch (phase) {
      case TracePhase::compute:
        return "compute";
      case TracePhase::spin:
        return "spin";
      case TracePhase::syncOverhead:
        return "sync";
      case TracePhase::stall:
        return "stall";
      case TracePhase::dispatch:
        return "dispatch";
    }
    return "unknown";
}

const char *
syncOpName(SyncOp op)
{
    switch (op) {
      case SyncOp::poll:
        return "poll";
      case SyncOp::wait:
        return "wait";
      case SyncOp::write:
        return "write";
      case SyncOp::rmw:
        return "rmw";
      case SyncOp::keyed:
        return "keyed";
      case SyncOp::broadcast:
        return "broadcast";
      case SyncOp::coalesced:
        return "coalesced";
    }
    return "unknown";
}

const char *
sampleStreamName(SampleStream stream)
{
    switch (stream) {
      case SampleStream::busBusyCycles:
        return "bus_busy_cycles";
      case SampleStream::busQueueDepth:
        return "bus_queue_depth";
      case SampleStream::moduleAccesses:
        return "module_accesses";
      case SampleStream::moduleBacklog:
        return "module_backlog";
      case SampleStream::syncVarWaiters:
        return "sync_var_waiters";
      case SampleStream::procActivity:
        return "proc_activity";
      case SampleStream::eventsExecuted:
        return "events_executed";
      case SampleStream::pendingEvents:
        return "pending_events";
      case SampleStream::ringBuckets:
        return "ring_buckets";
      case SampleStream::farHeapEvents:
        return "far_heap_events";
      case SampleStream::heapFallbacks:
        return "heap_fallbacks";
      case SampleStream::netStageConflictCycles:
        return "net_stage_conflict_cycles";
      case SampleStream::netStageCombines:
        return "net_stage_combines";
      case SampleStream::clusterBusBusyCycles:
        return "cluster_bus_busy_cycles";
    }
    return "unknown";
}

bool
sampleStreamCumulative(SampleStream stream)
{
    switch (stream) {
      case SampleStream::busBusyCycles:
      case SampleStream::moduleAccesses:
      case SampleStream::eventsExecuted:
      case SampleStream::heapFallbacks:
      case SampleStream::netStageConflictCycles:
      case SampleStream::netStageCombines:
      case SampleStream::clusterBusBusyCycles:
        return true;
      default:
        return false;
    }
}

bool
sampleStreamIndexed(SampleStream stream)
{
    switch (stream) {
      case SampleStream::busBusyCycles:
      case SampleStream::busQueueDepth:
      case SampleStream::moduleAccesses:
      case SampleStream::moduleBacklog:
      case SampleStream::syncVarWaiters:
      case SampleStream::procActivity:
      case SampleStream::netStageConflictCycles:
      case SampleStream::netStageCombines:
      case SampleStream::clusterBusBusyCycles:
        return true;
      default:
        return false;
    }
}

const char *
procActivityName(ProcActivity activity)
{
    switch (activity) {
      case ProcActivity::dispatch:
        return "dispatch";
      case ProcActivity::compute:
        return "compute";
      case ProcActivity::stall:
        return "stall";
      case ProcActivity::sync:
        return "sync";
      case ProcActivity::spin:
        return "spin";
      case ProcActivity::parked:
        return "parked";
      case ProcActivity::halted:
        return "halted";
    }
    return "unknown";
}

} // namespace sim
} // namespace psync
