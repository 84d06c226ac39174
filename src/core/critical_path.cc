#include "core/critical_path.hh"

#include <algorithm>
#include <vector>

#include "dep/transform.hh"

namespace psync {
namespace core {

namespace {

/**
 * The timing steps one iteration runs in program order. Statement
 * granularity gives each statement one step; access granularity
 * lays each statement out as emitted: one step per read, the
 * compute, one step per write. Arcs leave the step of their source
 * reference and enter the step of their sink reference.
 */
struct StepLayout
{
    /** Steps of statement s: [first[s], first[s + 1]). */
    std::vector<std::size_t> first;
    /** Owning statement of each step. */
    std::vector<unsigned> stmt;
    std::vector<sim::Tick> duration;
    /** stepOfRef[s][r]: the step reference r of statement s is in. */
    std::vector<std::vector<std::size_t>> stepOfRef;
    /** Work of one instance of each statement (granularity-free). */
    std::vector<sim::Tick> work;

    std::size_t perIter() const { return duration.size(); }

    std::size_t
    srcStep(const dep::Dep &d) const
    {
        return stepOfRef[d.src][d.srcRef];
    }

    std::size_t
    dstStep(const dep::Dep &d) const
    {
        return stepOfRef[d.dst][d.dstRef];
    }
};

StepLayout
stepLayout(const dep::Loop &loop, const CriticalPathCosts &costs)
{
    StepLayout l;
    for (unsigned s = 0; s < loop.body.size(); ++s) {
        const dep::Statement &stmt = loop.body[s];
        l.first.push_back(l.perIter());
        l.work.push_back(stmt.cost +
                         stmt.refs.size() * costs.accessCycles);
        std::vector<std::size_t> of_ref(stmt.refs.size(), l.perIter());
        auto step = [&](sim::Tick d) {
            l.stmt.push_back(s);
            l.duration.push_back(d);
        };
        if (!costs.perAccess) {
            step(l.work.back());
        } else {
            for (bool writes : {false, true}) {
                if (writes)
                    step(stmt.cost);
                for (unsigned r = 0; r < stmt.refs.size(); ++r) {
                    if (stmt.refs[r].isWrite != writes)
                        continue;
                    of_ref[r] = l.perIter();
                    step(costs.accessCycles);
                }
            }
        }
        l.stepOfRef.push_back(std::move(of_ref));
    }
    l.first.push_back(l.perIter());
    return l;
}

} // namespace

CriticalPath
criticalPath(const dep::DepGraph &graph,
             const CriticalPathCosts &costs)
{
    const dep::Loop &loop = graph.loop();
    const long m = loop.innerTrip();
    const std::uint64_t total = loop.iterations();
    const size_t num_stmts = loop.body.size();
    const StepLayout steps = stepLayout(loop, costs);
    const std::size_t per_iter = steps.perIter();

    // Incoming arcs per sink step — covered arcs included:
    // coverage elimination drops them from the *transformed
    // program* because linearized chains (extra boundary arcs
    // included) imply them, but the semantic bound filters those
    // extra arcs below, so every real constraint must appear
    // directly.
    std::vector<std::vector<dep::Dep>> incoming(per_iter);
    for (const dep::Dep &d : graph.crossIteration())
        incoming[steps.dstStep(d)].push_back(d);

    CriticalPath result;

    // end[(i-1) * per_iter + k] = completion time of step k in
    // iteration i; inactive instances end where program order
    // reached them.
    std::vector<sim::Tick> end(total * per_iter, 0);

    for (std::uint64_t lpid = 1; lpid <= total; ++lpid) {
        sim::Tick prev_in_iter = 0;
        for (size_t s = 0; s < num_stmts; ++s) {
            bool active = dep::stmtActive(loop, loop.body[s], lpid);
            for (std::size_t k = steps.first[s];
                 k < steps.first[s + 1]; ++k) {
                if (!active) {
                    // Skipped instances take no time; program order
                    // flows through them unchanged.
                    end[(lpid - 1) * per_iter + k] = prev_in_iter;
                    continue;
                }
                sim::Tick start = prev_in_iter;
                for (const dep::Dep &d : incoming[k]) {
                    long dist = d.linearDistance(m);
                    if (dist <= 0 ||
                        static_cast<std::uint64_t>(dist) >= lpid) {
                        continue;
                    }
                    // The bound reflects the loop's semantics: arcs
                    // that linearization merely manufactures at
                    // inner boundaries (Fig. 5.2, dashed) do not
                    // constrain it.
                    if (!dep::sinkHasSource(loop, d, lpid))
                        continue;
                    std::uint64_t src_lpid = lpid - dist;
                    // A cross-processor arc pays the sync-fabric hop
                    // on top of the producer's completion: the
                    // consumer cannot observe the value before it
                    // crosses the fabric (0 on memory-resident
                    // schemes).
                    sim::Tick src_end =
                        end[(src_lpid - 1) * per_iter +
                            steps.srcStep(d)];
                    start = std::max(start,
                                     src_end + costs.syncHopCycles);
                }
                prev_in_iter = start + steps.duration[k];
                end[(lpid - 1) * per_iter + k] = prev_in_iter;
            }
            if (active) {
                result.totalWork += steps.work[s];
                result.cycles = std::max(result.cycles, prev_in_iter);
            }
        }
    }
    return result;
}

CriticalPath
analyticalCriticalPath(const dep::Loop &loop,
                       const CriticalPathCosts &costs)
{
    const long m = loop.innerTrip();
    const std::uint64_t total = loop.iterations();
    const size_t num_stmts = loop.body.size();
    const StepLayout steps = stepLayout(loop, costs);
    const std::size_t per_iter = steps.perIter();

    // Straight from the analyzer: duplicates and covered arcs are
    // all kept (max is idempotent), so this shares no arc plumbing
    // with DepGraph. Non-constant pairs carry no distance and are
    // outside the bound either way.
    dep::DepAnalysis analysis = dep::analyze(loop);
    std::vector<std::vector<dep::Dep>> incoming(per_iter);
    for (const dep::Dep &d : analysis.deps)
        incoming[steps.dstStep(d)].push_back(d);

    CriticalPath result;

    // F(v) per step node, solved lazily by an explicit-stack DFS
    // (chains can be as long as the whole instance space, so no
    // native recursion).
    auto idOf = [per_iter](std::size_t k, std::uint64_t lpid) {
        return (lpid - 1) * per_iter + k;
    };
    std::vector<sim::Tick> finish(total * per_iter, 0);
    std::vector<char> solved(total * per_iter, 0);

    // Predecessors of step k of iteration lpid under F's
    // recurrence: serial program order within the iteration, plus —
    // for active instances only — every semantically real incoming
    // arc.
    auto eachPred = [&](std::size_t k, std::uint64_t lpid,
                        auto &&fn) {
        if (k > 0)
            fn(k - 1, lpid, static_cast<sim::Tick>(0));
        if (!dep::stmtActive(loop, loop.body[steps.stmt[k]], lpid))
            return;
        for (const dep::Dep &d : incoming[k]) {
            long dist = d.linearDistance(m);
            if (dist <= 0 ||
                static_cast<std::uint64_t>(dist) >= lpid)
                continue;
            if (!dep::sinkHasSource(loop, d, lpid))
                continue;
            fn(steps.srcStep(d), lpid - dist, costs.syncHopCycles);
        }
    };

    std::vector<std::uint64_t> stack;
    for (std::uint64_t lpid = 1; lpid <= total; ++lpid) {
        for (size_t s = 0; s < num_stmts; ++s) {
            std::size_t last = steps.first[s + 1] - 1;
            stack.push_back(idOf(last, lpid));
            while (!stack.empty()) {
                std::uint64_t node = stack.back();
                if (solved[node]) {
                    stack.pop_back();
                    continue;
                }
                std::size_t nk = node % per_iter;
                std::uint64_t np = node / per_iter + 1;
                bool ready = true;
                eachPred(nk, np,
                         [&](std::size_t pk, std::uint64_t pp,
                             sim::Tick) {
                             if (!solved[idOf(pk, pp)]) {
                                 stack.push_back(idOf(pk, pp));
                                 ready = false;
                             }
                         });
                if (!ready)
                    continue;
                stack.pop_back();
                bool active = dep::stmtActive(
                    loop, loop.body[steps.stmt[nk]], np);
                sim::Tick start = 0;
                eachPred(nk, np,
                         [&](std::size_t pk, std::uint64_t pp,
                             sim::Tick hop) {
                             start = std::max(
                                 start,
                                 finish[idOf(pk, pp)] + hop);
                         });
                // Inactive instances take no time; program order
                // flows through unchanged — identical to the DP.
                finish[node] =
                    active ? start + steps.duration[nk] : start;
                solved[node] = 1;
            }
            if (dep::stmtActive(loop, loop.body[s], lpid)) {
                result.totalWork += steps.work[s];
                result.cycles =
                    std::max(result.cycles, finish[idOf(last, lpid)]);
            }
        }
    }
    return result;
}

} // namespace core
} // namespace psync
