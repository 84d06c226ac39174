#include "core/profile.hh"

#include <algorithm>
#include <iomanip>
#include <tuple>

namespace psync {
namespace core {

namespace {

using Span = TraceRecorder::OpSpan;
using Edge = TraceRecorder::WaitEdge;
using SyncEvent = TraceRecorder::SyncOpEvent;
using Segment = CriticalPathProfile::Segment;
using SegmentKind = CriticalPathProfile::SegmentKind;

const char *
segmentKindName(SegmentKind kind)
{
    switch (kind) {
      case SegmentKind::op:
        return "op";
      case SegmentKind::wait:
        return "wait";
      case SegmentKind::dispatch:
        return "dispatch";
      case SegmentKind::start:
        return "start";
    }
    return "?";
}

/** Op kinds whose `var` field names a sync variable. */
bool
spanHasVar(ir::OpKind kind)
{
    switch (kind) {
      case ir::OpKind::syncWaitGE:
      case ir::OpKind::syncWrite:
      case ir::OpKind::syncFetchInc:
      case ir::OpKind::pcMark:
      case ir::OpKind::pcTransfer:
      case ir::OpKind::keyedRead:
      case ir::OpKind::keyedWrite:
      case ir::OpKind::ctrBarrier:
        return true;
      default:
        return false;
    }
}

/** Op kinds that can have produced the value a waiter saw. */
bool
isSyncWriterKind(ir::OpKind kind)
{
    switch (kind) {
      case ir::OpKind::syncWrite:
      case ir::OpKind::syncFetchInc:
      case ir::OpKind::pcMark:
      case ir::OpKind::pcTransfer:
      case ir::OpKind::ctrBarrier:
      case ir::OpKind::keyedRead:
      case ir::OpKind::keyedWrite:
        return true;
      default:
        return false;
    }
}

/** Sync ops that commit a new value (vs. observe one). */
bool
isCommitOp(sim::SyncOp op)
{
    switch (op) {
      case sim::SyncOp::write:
      case sim::SyncOp::broadcast:
      case sim::SyncOp::rmw:
      case sim::SyncOp::keyed:
      case sim::SyncOp::coalesced:
        return true;
      case sim::SyncOp::poll:
      case sim::SyncOp::wait:
        return false;
    }
    return false;
}

} // namespace

CriticalPathProfile
buildCriticalPathProfile(const TraceRecorder &rec,
                         sim::Tick run_cycles, sim::Tick bound_cycles)
{
    CriticalPathProfile prof;
    prof.boundCycles = bound_cycles;

    // --- Latency histograms (independent of the path walk) ---
    for (const auto &e : rec.waitEdges()) {
        prof.waitAll.record(e.cycles());
        prof.waitByVar[e.var].record(e.cycles());
    }
    // Key by (proc, op id, completion tick): op ids restart at 1
    // per program, so the id alone is ambiguous across program
    // shapes (init vs. main loop, branch variants). The blocking
    // op's span ends exactly when its site edge does.
    std::map<std::tuple<sim::ProcId, std::uint32_t, sim::Tick>,
             ir::OpKind>
        kind_of;
    for (const auto &s : rec.opSpans())
        kind_of.emplace(std::make_tuple(s.who, s.opId, s.end),
                        s.kind);
    for (const auto &e : rec.waitSiteEdges()) {
        auto it = kind_of.find(
            std::make_tuple(e.who, e.opId, e.end));
        const char *name = it != kind_of.end()
                               ? ir::opKindName(it->second)
                               : "unknown";
        prof.waitByKind[name].record(e.cycles());
    }

    const auto &spans = rec.opSpans();
    if (spans.empty() || run_cycles == 0)
        return prof;

    // --- Per-processor indices ---
    sim::ProcId max_proc = 0;
    for (const auto &s : spans)
        max_proc = std::max(max_proc, s.who);
    for (const auto &e : rec.waitEdges())
        max_proc = std::max(max_proc, e.who);
    for (const auto &p : rec.phases())
        max_proc = std::max(max_proc, p.who);
    const std::size_t np = static_cast<std::size_t>(max_proc) + 1;

    std::vector<std::vector<const Span *>> proc_spans(np);
    for (const auto &s : spans)
        proc_spans[s.who].push_back(&s);
    for (auto &v : proc_spans) {
        std::stable_sort(v.begin(), v.end(),
                         [](const Span *a, const Span *b) {
                             return a->end < b->end;
                         });
    }

    std::vector<std::vector<const Edge *>> proc_edges(np);
    for (const auto &e : rec.waitEdges())
        proc_edges[e.who].push_back(&e);
    for (auto &v : proc_edges) {
        std::stable_sort(v.begin(), v.end(),
                         [](const Edge *a, const Edge *b) {
                             return a->end < b->end;
                         });
    }

    std::map<sim::SyncVarId, std::vector<const SyncEvent *>>
        var_events;
    for (const auto &e : rec.syncOpEvents()) {
        if (isCommitOp(e.op))
            var_events[e.var].push_back(&e);
    }
    for (auto &entry : var_events) {
        std::stable_sort(entry.second.begin(), entry.second.end(),
                         [](const SyncEvent *a, const SyncEvent *b) {
                             return a->at < b->at;
                         });
    }

    // --- Lookup helpers over the indices ---
    // Latest wait edge of `p` satisfied inside (lo, hi].
    auto latest_edge_in = [&](sim::ProcId p, sim::Tick lo,
                              sim::Tick hi) -> const Edge * {
        const auto &v = proc_edges[p];
        auto it = std::upper_bound(
            v.begin(), v.end(), hi,
            [](sim::Tick t, const Edge *e) { return t < e->end; });
        if (it == v.begin())
            return nullptr;
        const Edge *e = *(it - 1);
        return e->end > lo ? e : nullptr;
    };

    // Latest span of `p` completing at or before `t`.
    auto latest_span_before = [&](sim::ProcId p,
                                  sim::Tick t) -> const Span * {
        const auto &v = proc_spans[p];
        auto it = std::upper_bound(
            v.begin(), v.end(), t,
            [](sim::Tick tt, const Span *s) { return tt < s->end; });
        if (it == v.begin())
            return nullptr;
        return *(it - 1);
    };

    // Producer op on `q` whose result reached the fabric by `t`:
    // prefer a recent sync-writing op on `var`, fall back to the
    // latest op of `q` (its completion still happens-before `t`).
    auto producer_span = [&](sim::ProcId q, sim::SyncVarId var,
                             sim::Tick t) -> const Span * {
        const auto &v = proc_spans[q];
        auto it = std::upper_bound(
            v.begin(), v.end(), t,
            [](sim::Tick tt, const Span *s) { return tt < s->end; });
        const Span *fallback = nullptr;
        unsigned scanned = 0;
        while (it != v.begin() && scanned < 8) {
            --it;
            ++scanned;
            const Span *s = *it;
            if (!fallback)
                fallback = s;
            if (s->var == var && isSyncWriterKind(s->kind))
                return s;
        }
        return fallback;
    };

    // The committing access on `edge.var` that woke the waiter:
    // latest commit event by another processor at or before the
    // wake tick; returns that writer's producing span.
    auto find_writer = [&](const Edge &edge,
                           sim::ProcId waiter) -> const Span * {
        auto itv = var_events.find(edge.var);
        if (itv == var_events.end())
            return nullptr;
        const auto &v = itv->second;
        auto it = std::upper_bound(
            v.begin(), v.end(), edge.end,
            [](sim::Tick t, const SyncEvent *e) {
                return t < e->at;
            });
        unsigned scanned = 0;
        while (it != v.begin() && scanned < 64) {
            --it;
            ++scanned;
            if ((*it)->who == waiter)
                continue;
            if ((*it)->who >= np)
                continue;
            const Span *sq =
                producer_span((*it)->who, edge.var, edge.end);
            if (sq)
                return sq;
        }
        return nullptr;
    };

    // --- Backward walk from the op that finished last ---
    const Span *cur = nullptr;
    for (const auto &s : spans) {
        if (!cur || s.end > cur->end ||
            (s.end == cur->end && s.who < cur->who))
            cur = &s;
    }

    std::vector<Segment> segs;
    sim::Tick frontier = run_cycles;

    // Close the path tile [from, frontier) and move the frontier.
    auto push_seg = [&](SegmentKind kind, sim::ProcId proc,
                        sim::Tick from, const Span *sp,
                        sim::SyncVarId var, bool has_var) {
        if (from >= frontier)
            return;
        Segment g;
        g.kind = kind;
        g.proc = proc;
        g.start = from;
        g.end = frontier;
        if (sp) {
            g.opId = sp->opId;
            g.opKind = sp->kind;
            g.iter = sp->iter;
        }
        g.var = var;
        g.hasVar = has_var;
        segs.push_back(g);
        frontier = from;
    };

    // Drain between the last op and the completion tick.
    if (cur->end < frontier)
        push_seg(SegmentKind::dispatch, cur->who, cur->end, nullptr,
                 0, false);

    const std::size_t max_steps = spans.size() * 2 + 64;
    std::size_t steps = 0;
    while (true) {
        if (++steps > max_steps) {
            prof.truncated = true;
            break;
        }
        const Edge *edge = latest_edge_in(
            cur->who, cur->start, std::min(cur->end, frontier));
        if (edge) {
            // Post-wake part of the op.
            push_seg(SegmentKind::op, cur->who, edge->end, cur,
                     cur->var, spanHasVar(cur->kind));
            const Span *sq = find_writer(*edge, cur->who);
            if (sq && sq->end <= edge->end && sq != cur) {
                // Producer completion -> waiter wake: fabric
                // propagation charged to the variable.
                push_seg(SegmentKind::wait, cur->who, sq->end,
                         nullptr, edge->var, true);
                cur = sq;
                continue;
            }
            // No visible causal writer (e.g. the value predates the
            // recorded window): charge the block to the variable
            // and continue in this processor's program order.
            push_seg(SegmentKind::wait, cur->who, cur->start,
                     nullptr, edge->var, true);
        } else {
            push_seg(SegmentKind::op, cur->who, cur->start, cur,
                     cur->var, spanHasVar(cur->kind));
        }
        const Span *prev = latest_span_before(
            cur->who, std::min(cur->start, frontier));
        if (prev == nullptr) {
            push_seg(SegmentKind::start, cur->who, 0, nullptr, 0,
                     false);
            break;
        }
        push_seg(SegmentKind::dispatch, cur->who, prev->end, nullptr,
                 0, false);
        cur = prev;
    }
    // A truncated walk leaves [0, frontier) unattributed; tile it
    // so the achieved length still equals total cycles.
    if (frontier > 0)
        push_seg(SegmentKind::start, cur->who, 0, nullptr, 0, false);

    std::reverse(segs.begin(), segs.end());
    prof.segments = std::move(segs);

    // --- Phase decomposition and attribution ---
    std::vector<std::vector<const TraceRecorder::PhaseEvent *>>
        proc_phases(np);
    for (const auto &p : rec.phases())
        proc_phases[p.who].push_back(&p);
    for (auto &v : proc_phases) {
        std::stable_sort(
            v.begin(), v.end(),
            [](const TraceRecorder::PhaseEvent *a,
               const TraceRecorder::PhaseEvent *b) {
                return a->start < b->start;
            });
    }

    std::vector<std::vector<const TraceRecorder::ResourceEvent *>>
        proc_modules(np);
    for (const auto &r : rec.resources()) {
        if (r.resource == sim::memoryModuleResource && r.who < np)
            proc_modules[r.who].push_back(&r);
    }
    for (auto &v : proc_modules) {
        std::stable_sort(
            v.begin(), v.end(),
            [](const TraceRecorder::ResourceEvent *a,
               const TraceRecorder::ResourceEvent *b) {
                return a->start < b->start;
            });
    }

    std::map<sim::SyncVarId, sim::Tick> var_cycles;
    std::map<sim::ProcId, sim::Tick> proc_cycles;
    std::map<unsigned, sim::Tick> module_cycles;

    for (auto &g : prof.segments) {
        sim::Tick len = g.cycles();
        prof.achievedCycles += len;
        if (g.kind == SegmentKind::wait) {
            prof.propagationCycles += len;
            var_cycles[g.var] += len;
            continue;
        }
        proc_cycles[g.proc] += len;

        sim::Tick covered = 0;
        for (const auto *p : proc_phases[g.proc]) {
            if (p->end <= g.start)
                continue;
            if (p->start >= g.end)
                break;
            sim::Tick ov = std::min(p->end, g.end) -
                           std::max(p->start, g.start);
            covered += ov;
            switch (p->phase) {
              case sim::TracePhase::compute:
                g.compute += ov;
                break;
              case sim::TracePhase::spin:
                g.spin += ov;
                break;
              case sim::TracePhase::syncOverhead:
                g.sync += ov;
                break;
              case sim::TracePhase::stall:
                g.stall += ov;
                break;
              case sim::TracePhase::dispatch:
                g.dispatch += ov;
                break;
            }
        }
        g.other = len > covered ? len - covered : 0;
        prof.computeCycles += g.compute;
        prof.spinCycles += g.spin;
        prof.syncCycles += g.sync;
        prof.stallCycles += g.stall;
        prof.dispatchCycles += g.dispatch;
        prof.otherCycles += g.other;

        for (const auto *r : proc_modules[g.proc]) {
            if (r->end <= g.start)
                continue;
            if (r->start >= g.end)
                break;
            module_cycles[r->index] += std::min(r->end, g.end) -
                                       std::max(r->start, g.start);
        }
    }

    for (const auto &entry : var_cycles) {
        CriticalPathProfile::VarShare share;
        share.var = entry.first;
        share.label = rec.syncVarLabel(entry.first);
        share.cycles = entry.second;
        prof.varShares.push_back(std::move(share));
    }
    std::stable_sort(prof.varShares.begin(), prof.varShares.end(),
                     [](const CriticalPathProfile::VarShare &a,
                        const CriticalPathProfile::VarShare &b) {
                         return a.cycles > b.cycles;
                     });

    for (const auto &entry : proc_cycles)
        prof.procShares.push_back({entry.first, entry.second});
    std::stable_sort(prof.procShares.begin(), prof.procShares.end(),
                     [](const CriticalPathProfile::ProcShare &a,
                        const CriticalPathProfile::ProcShare &b) {
                         return a.cycles > b.cycles;
                     });

    for (const auto &entry : module_cycles)
        prof.moduleShares.push_back({entry.first, entry.second});
    std::stable_sort(
        prof.moduleShares.begin(), prof.moduleShares.end(),
        [](const CriticalPathProfile::ModuleShare &a,
           const CriticalPathProfile::ModuleShare &b) {
            return a.cycles > b.cycles;
        });

    return prof;
}

json::Value
CriticalPathProfile::toJson() const
{
    json::Value v = json::object();
    v.set("achieved_cycles",
          static_cast<std::uint64_t>(achievedCycles));
    v.set("bound_cycles", static_cast<std::uint64_t>(boundCycles));
    v.set("gap_pct", gapPct());
    v.set("truncated", truncated);

    json::Value ph = json::object();
    ph.set("compute", static_cast<std::uint64_t>(computeCycles));
    ph.set("spin", static_cast<std::uint64_t>(spinCycles));
    ph.set("sync_overhead", static_cast<std::uint64_t>(syncCycles));
    ph.set("stall", static_cast<std::uint64_t>(stallCycles));
    ph.set("dispatch", static_cast<std::uint64_t>(dispatchCycles));
    ph.set("propagation",
           static_cast<std::uint64_t>(propagationCycles));
    ph.set("other", static_cast<std::uint64_t>(otherCycles));
    v.set("phases", std::move(ph));

    json::Value by_var = json::array();
    for (const auto &s : varShares) {
        json::Value e = json::object();
        e.set("var", static_cast<std::uint64_t>(s.var));
        if (!s.label.empty())
            e.set("label", s.label);
        e.set("cycles", static_cast<std::uint64_t>(s.cycles));
        by_var.push(std::move(e));
    }
    v.set("by_var", std::move(by_var));

    json::Value by_proc = json::array();
    for (const auto &s : procShares) {
        json::Value e = json::object();
        e.set("proc", static_cast<std::uint64_t>(s.proc));
        e.set("cycles", static_cast<std::uint64_t>(s.cycles));
        by_proc.push(std::move(e));
    }
    v.set("by_proc", std::move(by_proc));

    json::Value by_module = json::array();
    for (const auto &s : moduleShares) {
        json::Value e = json::object();
        e.set("module", s.module);
        e.set("cycles", static_cast<std::uint64_t>(s.cycles));
        by_module.push(std::move(e));
    }
    v.set("by_module", std::move(by_module));

    v.set("wait_latency", waitAll.toJson());

    json::Value by_kind = json::object();
    for (const auto &entry : waitByKind)
        by_kind.set(entry.first, entry.second.toJson());
    v.set("wait_by_kind", std::move(by_kind));

    json::Value wait_by_var = json::array();
    for (const auto &entry : waitByVar) {
        json::Value e = entry.second.toJson();
        json::Value out = json::object();
        out.set("var", static_cast<std::uint64_t>(entry.first));
        for (auto &member : e.asObject())
            out.set(member.first, std::move(member.second));
        wait_by_var.push(std::move(out));
    }
    v.set("wait_by_var", std::move(wait_by_var));

    json::Value segs = json::array();
    for (const auto &g : segments) {
        json::Value e = json::object();
        e.set("kind", segmentKindName(g.kind));
        e.set("proc", static_cast<std::uint64_t>(g.proc));
        e.set("start", static_cast<std::uint64_t>(g.start));
        e.set("end", static_cast<std::uint64_t>(g.end));
        if (g.kind == SegmentKind::op) {
            e.set("op_kind", ir::opKindName(g.opKind));
            e.set("op_id", g.opId);
            e.set("iter", g.iter);
        }
        if (g.hasVar)
            e.set("var", static_cast<std::uint64_t>(g.var));
        if (g.kind != SegmentKind::wait) {
            json::Value d = json::object();
            d.set("compute", static_cast<std::uint64_t>(g.compute));
            d.set("spin", static_cast<std::uint64_t>(g.spin));
            d.set("sync_overhead",
                  static_cast<std::uint64_t>(g.sync));
            d.set("stall", static_cast<std::uint64_t>(g.stall));
            d.set("dispatch",
                  static_cast<std::uint64_t>(g.dispatch));
            d.set("other", static_cast<std::uint64_t>(g.other));
            e.set("phases", std::move(d));
        }
        segs.push(std::move(e));
    }
    v.set("segments", std::move(segs));
    return v;
}

namespace {

void
printPct(std::ostream &os, const char *name, sim::Tick part,
         sim::Tick whole)
{
    if (part == 0)
        return;
    os << "  " << name << " " << part << " ("
       << std::fixed << std::setprecision(1)
       << (whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0)
       << "%)";
}

void
printHistLine(std::ostream &os, const char *label,
              const LogHistogram &h)
{
    os << "    " << std::left << std::setw(14) << label
       << std::right << " n=" << std::setw(7) << h.count()
       << "  p50=" << std::setw(8) << h.percentile(0.50)
       << "  p95=" << std::setw(8) << h.percentile(0.95)
       << "  p99=" << std::setw(8) << h.percentile(0.99)
       << "  max=" << std::setw(8) << h.max() << "\n";
}

} // namespace

void
CriticalPathProfile::writeText(std::ostream &os,
                               const std::string &label) const
{
    os << "critical path";
    if (!label.empty())
        os << " [" << label << "]";
    os << ": achieved " << achievedCycles << " cycles, bound "
       << boundCycles;
    if (boundCycles) {
        os << " (gap " << std::fixed << std::setprecision(1)
           << gapPct() << "%)";
    }
    if (truncated)
        os << " [truncated]";
    os << "\n  composition:";
    printPct(os, "compute", computeCycles, achievedCycles);
    printPct(os, "spin", spinCycles, achievedCycles);
    printPct(os, "sync", syncCycles, achievedCycles);
    printPct(os, "stall", stallCycles, achievedCycles);
    printPct(os, "dispatch", dispatchCycles, achievedCycles);
    printPct(os, "propagation", propagationCycles, achievedCycles);
    printPct(os, "other", otherCycles, achievedCycles);
    os << "\n";

    if (!varShares.empty()) {
        os << "  hottest sync vars on path:";
        std::size_t shown = 0;
        for (const auto &s : varShares) {
            if (shown++ == 5)
                break;
            os << "  v" << s.var;
            if (!s.label.empty())
                os << "(" << s.label << ")";
            os << "=" << s.cycles;
        }
        if (varShares.size() > 5)
            os << "  (+" << varShares.size() - 5 << " more)";
        os << "\n";
    }
    if (!procShares.empty()) {
        os << "  path cycles by proc:";
        std::size_t shown = 0;
        for (const auto &s : procShares) {
            if (shown++ == 5)
                break;
            os << "  p" << s.proc << "=" << s.cycles;
        }
        if (procShares.size() > 5)
            os << "  (+" << procShares.size() - 5 << " more)";
        os << "\n";
    }
    if (!moduleShares.empty()) {
        os << "  module busy under path:";
        std::size_t shown = 0;
        for (const auto &s : moduleShares) {
            if (shown++ == 3)
                break;
            os << "  m" << s.module << "=" << s.cycles;
        }
        if (moduleShares.size() > 3)
            os << "  (+" << moduleShares.size() - 3 << " more)";
        os << "\n";
    }

    if (waitAll.count()) {
        os << "  wait latency (cycles):\n";
        printHistLine(os, "all waits", waitAll);
        for (const auto &entry : waitByKind)
            printHistLine(os, entry.first.c_str(), entry.second);
    }

    constexpr std::size_t kMaxSegs = 32;
    os << "  path (" << segments.size() << " segments";
    if (segments.size() > kMaxSegs)
        os << ", first " << kMaxSegs;
    os << "):\n";
    std::size_t shown = 0;
    for (const auto &g : segments) {
        if (shown++ == kMaxSegs)
            break;
        os << "    [" << std::setw(9) << g.start << ","
           << std::setw(9) << g.end << ") ";
        switch (g.kind) {
          case SegmentKind::op:
            os << "p" << g.proc << " " << ir::opKindName(g.opKind)
               << "#" << g.opId << " iter " << g.iter;
            if (g.hasVar)
                os << " var " << g.var;
            break;
          case SegmentKind::wait:
            os << "p" << g.proc << " wait var " << g.var
               << " (propagation)";
            break;
          case SegmentKind::dispatch:
            os << "p" << g.proc << " dispatch";
            break;
          case SegmentKind::start:
            os << "p" << g.proc << " lead-in";
            break;
        }
        os << "\n";
    }
}

json::Value
CriticalPathProfile::perfettoEvents() const
{
    // Dedicated "critical path" process so the track sits next to
    // the per-processor phase tracks from chromeTrace().
    constexpr int pid_critpath = 2;
    json::Value events = json::array();

    json::Value meta = json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", pid_critpath);
    meta.set("tid", 0);
    json::Value margs = json::object();
    margs.set("name", "critical path");
    meta.set("args", std::move(margs));
    events.push(std::move(meta));

    for (const auto &g : segments) {
        json::Value ev = json::object();
        std::string name;
        switch (g.kind) {
          case SegmentKind::op:
            name = std::string(ir::opKindName(g.opKind)) + " p" +
                   std::to_string(g.proc);
            break;
          case SegmentKind::wait:
            name = "wait v" + std::to_string(g.var);
            break;
          case SegmentKind::dispatch:
            name = "dispatch p" + std::to_string(g.proc);
            break;
          case SegmentKind::start:
            name = "lead-in";
            break;
        }
        ev.set("name", name);
        ev.set("cat", "critpath");
        ev.set("ph", "X");
        ev.set("ts", static_cast<std::uint64_t>(g.start));
        ev.set("dur", static_cast<std::uint64_t>(g.cycles()));
        ev.set("pid", pid_critpath);
        ev.set("tid", 0);
        json::Value args = json::object();
        args.set("kind", segmentKindName(g.kind));
        args.set("proc", static_cast<std::uint64_t>(g.proc));
        if (g.kind == SegmentKind::op)
            args.set("op_id", g.opId);
        if (g.hasVar)
            args.set("var", static_cast<std::uint64_t>(g.var));
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    return events;
}

} // namespace core
} // namespace psync
