#include "bench/tables.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "bench/common.hh"
#include "bench/registry.hh"
#include "core/critical_path.hh"
#include "core/trace_check.hh"
#include "dep/transform.hh"
#include "sync/barrier.hh"
#include "sync/pc_file.hh"
#include "workloads/branches.hh"
#include "workloads/butterfly.hh"
#include "workloads/fft.hh"
#include "workloads/fig21.hh"
#include "workloads/nested.hh"
#include "workloads/relaxation.hh"
#include "workloads/synthetic.hh"

namespace psync {
namespace bench {

namespace {

using core::json::Value;
using sync::SchemeKind;
using Labels = std::map<std::string, std::string>;
using Run = std::function<core::RunResult(sim::Machine &)>;

const Value *
lookup(const Value &row, const std::string &path)
{
    const Value *v = &row;
    for (std::size_t pos = 0, dot = 0; v && dot != std::string::npos;
         pos = dot + 1) {
        dot = path.find('.', pos);
        v = v->find(path.substr(pos, dot - pos));
    }
    return v;
}

/** The row's axis labels as "key=value" words. */
std::string
rowName(const Value &row)
{
    std::string name;
    for (const auto &[key, value] : row.asObject()) {
        if (value.isString() && key != "section")
            name += (name.empty() ? "" : " ") + key + "=" +
                    value.asString();
    }
    return name;
}

/** Number at a dotted path of a row; aborts when there is none. */
double
rowNumber(const Value &row, const std::string &path)
{
    const Value *v = lookup(row, path);
    if (!v || !v->isNumber()) {
        std::fprintf(stderr, "FATAL: row %s has no number at %s\n",
                     rowName(row).c_str(), path.c_str());
        std::abort();
    }
    return v->asNumber();
}

/**
 * A row holding only its axis labels, in order, plus the section line
 * it prints under and its part (column set) when it has them.
 */
Value
labels(std::initializer_list<std::pair<const char *, std::string>> axes,
       const std::string &section = "", int part = 0)
{
    Value row = core::json::object();
    for (const auto &[key, value] : axes)
        row.set(key, value);
    if (!section.empty())
        row.set("section", section);
    if (part)
        row.set("part", part);
    return row;
}

std::size_t
partOf(const Value &row)
{
    const Value *part = row.find("part");
    return part ? static_cast<std::size_t>(part->asNumber()) : 0;
}

Labels
labelsOf(const Value &row)
{
    Labels out;
    for (const auto &[key, value] : row.asObject()) {
        if (value.isString() && key != "section")
            out[key] = value.asString();
    }
    return out;
}

std::string
show(double x)
{
    return Table::fixed(x, x == std::floor(x) ? 0 : 3);
}

enum class Op
{
    less,
    atMost,
    equal
};

/**
 * One comparison of a table's claim. Every row whose labels include
 * `where` ('|' separates alternatives) must have `path` less than, at
 * most or equal to: the same path of the row labelled like it except
 * for `vs`; else path `other` of the same row; else `value`. A claim
 * whose `where` matches no row fails, so a typo cannot pass vacuously.
 */
struct Claim
{
    Labels where = {};
    Labels vs = {};
    const char *path = "run.cycles";
    const char *other = nullptr;
    Op op = Op::less;
    double value = 0;
};

bool
matches(const Labels &have, const Labels &where)
{
    for (const auto &[key, alternatives] : where) {
        auto it = have.find(key);
        if (it == have.end() ||
            ("|" + alternatives + "|").find("|" + it->second + "|") ==
                std::string::npos)
            return false;
    }
    return true;
}

std::function<std::string(const Rows &)>
claims(std::vector<Claim> list)
{
    return [list = std::move(list)](const Rows &rows) -> std::string {
        for (const Claim &c : list) {
            bool matched = false;
            for (const Value &row : rows) {
                Labels want = labelsOf(row);
                if (!matches(want, c.where))
                    continue;
                matched = true;
                double a = rowNumber(row, c.path), b = c.value;
                std::string against;
                if (!c.vs.empty()) {
                    for (const auto &[key, value] : c.vs)
                        want[key] = value;
                    auto o = std::find_if(
                        rows.begin(), rows.end(),
                        [&](const Value &r) { return labelsOf(r) == want; });
                    if (o == rows.end())
                        return rowName(row) + ": no row to compare with";
                    b = rowNumber(*o, c.path);
                    against = " of " + rowName(*o);
                } else if (c.other) {
                    b = rowNumber(row, c.other);
                    against = std::string(" (") + c.other + ")";
                }
                const char *names[] = {"below", "at most", "equal to"};
                if (c.op == Op::less ? a >= b
                    : c.op == Op::atMost ? a > b : a != b)
                    return rowName(row) + ": " + c.path + " " + show(a) +
                           " not " + names[static_cast<int>(c.op)] + " " +
                           show(b) + against;
            }
            if (!matched)
                return std::string("no row for a claim on ") + c.path;
        }
        return "";
    };
}

/**
 * Run `s` with its config as built (verifier on, transforms off) and
 * append `row` with the RunResult record under "run", the plan's
 * numbers and — given a sequential time or a bound — the speedup and
 * the ratio to the bound. runScenario trace-checks the run and exits
 * on a violation or deadlock.
 */
void
runRow(Rows &rows, Value row, const Scenario &s, sim::Tick seq = 0,
       sim::Tick bound = 0)
{
    const core::DoacrossResult r = runScenario(s).result;
    row.set("run", r.run.toJson());
    row.set("sync_vars", r.plan.numSyncVars);
    row.set("storage_bytes",
            r.plan.syncStorageBytes + r.plan.renamedStorageBytes);
    row.set("init_writes", r.plan.initWrites);
    row.set("init_cycles", static_cast<std::uint64_t>(r.initCycles));
    row.set("with_init", static_cast<std::uint64_t>(r.totalWithInit()));
    if (seq)
        row.set("speedup", r.run.speedupOver(seq));
    if (bound)
        row.set("vs_bound", static_cast<double>(r.run.cycles) /
                                static_cast<double>(bound));
    rows.push_back(std::move(row));
}

/** runRow on `kind` over `loop`, named after the row's labels. */
void
runRow(Rows &rows, Value row, SchemeKind kind, const dep::Loop &loop,
       core::RunConfig config, sim::Tick seq = 0)
{
    Scenario s;
    s.id = rowName(row); // never a registry id: those have no '='
    s.scheme = sync::schemeKindName(kind);
    s.kind = kind;
    s.loop = [loop] { return loop; };
    s.config = std::move(config);
    runRow(rows, std::move(row), s, seq);
}

const Scenario &
registered(const std::string &id)
{
    const Scenario *s = findScenario(id);
    if (!s) {
        std::fprintf(stderr, "FATAL: no scenario %s\n", id.c_str());
        std::abort();
    }
    return *s;
}

/**
 * Run hand-built programs on a fresh machine and return the
 * RunResult record. Given the loop they implement, the run is
 * trace-checked against its cross-iteration dependences. An
 * incomplete run or a violation exits like runScenario does.
 */
Value
runPrograms(const Value &row, const sim::MachineConfig &mc,
            const dep::Loop *loop, const Run &run)
{
    core::TraceChecker checker;
    sim::Machine machine(mc, loop ? &checker : nullptr);
    core::DoacrossResult r;
    r.run = run(machine);
    if (loop) {
        dep::DepGraph graph(*loop);
        r.violations = checker.verify(*loop, graph.crossIteration());
    }
    require(r, rowName(row).c_str());
    return r.run.toJson();
}

/** Per-processor programs `build` makes around a fresh barrier B. */
template <class B, class Spec>
Run
withBarrier(const Spec &spec,
            std::vector<std::vector<sim::Program>> (*build)(const B &,
                                                            const Spec &))
{
    return [&spec, build](sim::Machine &m) {
        B barrier(m.fabric(), spec.numProcs);
        return core::runPerProcessorPrograms(m, build(barrier, spec));
    };
}

/** The machine of the barrier and FFT examples. */
sim::MachineConfig
plainMachine(unsigned procs, sim::FabricKind fabric)
{
    sim::MachineConfig mc;
    mc.numProcs = procs;
    mc.fabric = fabric;
    mc.syncRegisters = 2 * procs + 8;
    return mc;
}

Rows
dataOrientedRows()
{
    Rows rows;
    for (long n : {64L, 256L, 1024L, 4096L}) {
        for (auto kind : sync::allSyncSchemes()) {
            runRow(rows,
                   labels({{"n", std::to_string(n)},
                           {"scheme", sync::schemeKindName(kind)}}),
                   kind, workloads::makeFig21Loop(n), machineFor(kind));
        }
    }
    return rows;
}

Rows
serializationRows()
{
    Rows rows;
    for (double prob : {0.0, 0.05, 0.15, 0.30}) {
        for (sim::Tick delay : {200ull, 800ull}) {
            dep::Loop loop =
                workloads::makeFig21JitterLoop(256, 8, delay, prob, 1234);
            auto cfg = registerMachine();
            sim::Tick seq = core::sequentialCycles(loop, cfg.machine);
            for (auto kind : {SchemeKind::statementOriented,
                              SchemeKind::processBasic,
                              SchemeKind::processImproved}) {
                std::string name = sync::schemeKindName(kind);
                Value row = labels({{"delay_prob", Table::fixed(prob, 2)},
                                    {"delay", Table::num(delay)},
                                    {"scheme", name}});
                // The registry's fig32-jitter group is this cell.
                if (prob == 0.15 && delay == 800)
                    runRow(rows, row, registered("fig32-jitter/" + name),
                           seq);
                else
                    runRow(rows, row, kind, loop, cfg, seq);
            }
        }
    }
    return rows;
}

Rows
primitivesRows()
{
    Rows rows;
    dep::Loop loop = workloads::makeFig21Loop(512);
    for (unsigned x : {2u, 4u, 8u, 16u, 64u}) {
        for (bool improved : {false, true}) {
            runRow(rows,
                   labels({{"x", Table::num(x)},
                           {"primitives", improved ? "improved" : "basic"}},
                          "folding sweep, P=8"),
                   improved ? SchemeKind::processImproved
                            : SchemeKind::processBasic,
                   loop, registerMachine(8, x));
        }
    }
    for (bool coalesce : {true, false}) {
        auto cfg = registerMachine();
        cfg.machine.coalesceWrites = coalesce;
        cfg.machine.syncBusCycles = 4;
        runRow(rows,
               labels({{"coalescing", coalesce ? "on" : "off"}},
                      "sync-bus traffic with and without coalescing "
                      "(improved primitives, X=16, slow sync bus)",
                      1),
               SchemeKind::processImproved, loop, cfg);
    }
    return rows;
}

Rows
relaxationRows()
{
    Rows rows;
    workloads::RelaxationSpec spec;
    spec.n = 64;
    spec.stmtCost = 8;
    const unsigned procs = 8;
    const dep::Loop loop =
        workloads::makeRelaxationLoop(spec.n, spec.stmtCost);
    const dep::DataLayout layout(loop);
    auto add = [&](const char *method, std::string g, const Run &run) {
        Value row = labels({{"method", method}, {"g_scs", g}},
                           "relaxation 64x64, P=8, cost=8 (the SC pipeline "
                           "needs N-1 = 63 counters to pipeline finely)");
        row.set("run", runPrograms(row, registerMachine(procs).machine,
                                   &loop, run));
        rows.push_back(std::move(row));
    };
    for (long g : {1L, 2L, 4L, 8L, 16L, 32L}) {
        spec.group = g;
        add("pipelined (PC)", std::to_string(g), [&](sim::Machine &m) {
            sync::PcFile pcs(m.fabric(), 2 * procs);
            return core::runProgramPool(
                m, workloads::buildPipelinedPrograms(pcs, loop, layout, spec),
                core::SchedulePolicy::selfScheduling);
        });
    }
    spec.group = 1;
    add("wavefront+butterfly", "", [&](sim::Machine &m) {
        sync::ButterflyBarrier barrier(m.fabric(), procs);
        return core::runPerProcessorPrograms(
            m, workloads::buildWavefrontPrograms(barrier, procs, loop,
                                                 layout, spec));
    });
    add("wavefront+counter", "", [&](sim::Machine &m) {
        sync::CounterBarrier barrier(m.fabric(), procs);
        return core::runPerProcessorPrograms(
            m, workloads::buildWavefrontProgramsCtr(barrier, procs, loop,
                                                    layout, spec));
    });
    for (unsigned scs : {63u, 16u, 8u, 4u, 2u, 1u}) {
        unsigned used = workloads::requiredScs(spec, scs);
        add("pipelined (SC, limited)", std::to_string(used),
            [&](sim::Machine &m) {
                return core::runProgramPool(
                    m,
                    workloads::buildScPipelinedPrograms(
                        m.fabric().allocate(used, 0), scs, loop, layout,
                        spec),
                    core::SchedulePolicy::selfScheduling);
            });
    }
    return rows;
}

Rows
nestedRows()
{
    Rows rows;
    for (auto [n, m] :
         {std::pair<long, long>{16, 16}, {32, 32}, {16, 64}, {64, 16}}) {
        dep::Loop loop = workloads::makeNestedLoop(n, m);
        dep::DepGraph graph(loop);
        std::uint64_t extras = 0;
        for (const auto &d : graph.enforced())
            extras += dep::extraDepCount(loop, d);
        sim::Tick seq =
            core::sequentialCycles(loop, registerMachine().machine);
        std::string shape = std::to_string(n) + "x" + std::to_string(m);
        for (auto [name, kind] :
             {std::pair{"process-improved", SchemeKind::processImproved},
              {"process-exact-bd", SchemeKind::processImproved},
              {"statement", SchemeKind::statementOriented},
              {"reference", SchemeKind::referenceBased},
              {"instance", SchemeKind::instanceBased}}) {
            auto cfg = machineFor(kind);
            cfg.scheme.exactBoundaries =
                std::string(name) == "process-exact-bd";
            runRow(rows,
                   labels({{"shape", shape}, {"scheme", name}},
                          shape + ": linearization enforces " +
                              std::to_string(extras) +
                              " extra boundary arcs"),
                   kind, loop, cfg, seq);
        }
    }
    return rows;
}

Rows
branchRows()
{
    Rows rows;
    for (double p : {0.1, 0.5, 0.9}) {
        dep::Loop loop = workloads::makeBranchLoop(256, p, 6, 96, 128, 23);
        for (auto kind : {SchemeKind::processImproved,
                          SchemeKind::processBasic,
                          SchemeKind::statementOriented}) {
            for (bool early : {true, false}) {
                auto cfg = registerMachine();
                cfg.scheme.earlyBranchSignals = early;
                runRow(rows,
                       labels({{"taken_prob", Table::fixed(p, 1)},
                               {"scheme", sync::schemeKindName(kind)},
                               {"signals", early ? "early" : "deferred"}}),
                       kind, loop, cfg);
            }
        }
    }
    return rows;
}

Rows
barrierRows()
{
    Rows rows;
    workloads::BarrierSpec spec;
    spec.episodes = 32;
    spec.workCost = 32;
    spec.workJitter = 32;
    auto run = [&](const Value &row, sim::FabricKind fabric, const Run &r) {
        return runPrograms(row, plainMachine(spec.numProcs, fabric),
                           nullptr, r);
    };
    Run butterfly = withBarrier(spec, workloads::buildButterflyPrograms);
    Run counter = withBarrier(spec, workloads::buildCounterBarrierPrograms);
    Run dissemination =
        withBarrier(spec, workloads::buildDisseminationPrograms);
    for (unsigned p : {2u, 4u, 8u, 16u, 32u}) {
        spec.numProcs = p;
        for (auto fabric :
             {sim::FabricKind::memory, sim::FabricKind::registers}) {
            Value row = labels({{"p", Table::num(p)},
                                {"fabric", sim::fabricKindName(fabric)}});
            row.set("butterfly", run(row, fabric, butterfly));
            row.set("counter", run(row, fabric, counter));
            rows.push_back(std::move(row));
        }
    }
    // "with a minor modification, b_barrier() can work even when P is
    // not a power of 2 [11]".
    const auto reg = sim::FabricKind::registers;
    for (unsigned p : {3u, 5u, 6u, 8u, 12u, 16u}) {
        spec.numProcs = p;
        Value row =
            labels({{"p", Table::num(p)}, {"barrier", "dissemination"}},
                   "dissemination barrier (any P), register fabric", 1);
        row.set("dissemination", run(row, reg, dissemination));
        row.set("counter", run(row, reg, counter));
        rows.push_back(std::move(row));
    }
    return rows;
}

Rows
fftRows()
{
    Rows rows;
    workloads::FftSpec spec;
    spec.rounds = 8;
    spec.stageCost = 64;
    Run pairwise = [&](sim::Machine &m) {
        return core::runPerProcessorPrograms(
            m, workloads::buildFftPairwise(
                   m.fabric().allocate(spec.numProcs, 0), spec));
    };
    Run butterfly = withBarrier(spec, workloads::buildFftButterfly);
    Run counter = withBarrier(spec, workloads::buildFftCounter);
    for (unsigned p : {4u, 8u, 16u, 32u}) {
        spec.numProcs = p;
        const auto mc = plainMachine(p, sim::FabricKind::registers);
        for (sim::Tick jitter : {0ull, 32ull, 96ull}) {
            spec.stageJitter = jitter;
            Value row = labels(
                {{"p", Table::num(p)}, {"jitter", Table::num(jitter)}});
            row.set("pairwise", runPrograms(row, mc, nullptr, pairwise));
            row.set("butterfly", runPrograms(row, mc, nullptr, butterfly));
            row.set("counter", runPrograms(row, mc, nullptr, counter));
            row.set("gain", rowNumber(row, "counter.cycles") /
                                rowNumber(row, "pairwise.cycles"));
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

Rows
fabricRows()
{
    Rows rows;
    dep::Loop loop = workloads::makeFig21Loop(256);
    runRow(rows, labels({{"fabric", "registers+broadcast"}}),
           SchemeKind::processImproved, loop, registerMachine());
    runRow(rows, labels({{"fabric", "memory (cached spin)"}}),
           registered("fabric-fig21/mem-cached"));
    runRow(rows, labels({{"fabric", "memory (polling)"}}),
           registered("fabric-fig21/mem-polling"));
    for (auto kind : {SchemeKind::processBasic, SchemeKind::processImproved,
                      SchemeKind::statementOriented}) {
        runRow(rows,
               labels({{"scheme", sync::schemeKindName(kind)}},
                      "per-scheme traffic on the register fabric "
                      "(broadcast writes only)",
                      1),
               kind, loop, registerMachine());
    }
    return rows;
}

Rows
taxonomyRows()
{
    Rows rows;
    for (auto [group, name] : {std::pair{"fig21-n256", "fig2.1 (N=256)"},
                               {"nested-32x32", "nested (32x32)"},
                               {"branches-n256", "branches (N=256, p=0.5)"}}) {
        // Every row of a workload divides by the register machine's
        // bound, whatever fabric its scheme runs on.
        std::string prefix = std::string(group) + "/";
        const dep::Loop loop = registered(prefix + "statement").loop();
        const sim::MachineConfig mc = registerMachine().machine;
        sim::Tick seq = core::sequentialCycles(loop, mc);
        core::CriticalPath cp = core::criticalPath(
            dep::DepGraph(loop), core::CriticalPathCosts::fromMachine(mc));
        sim::Tick bound = cp.achievableBound(mc.numProcs);
        char section[256];
        std::snprintf(section, sizeof section,
                      "workload: %s (%llu iterations, sequential %llu "
                      "cycles; dependence-limited bound %llu, work/P "
                      "bound %llu, max useful parallelism %.1f)",
                      name,
                      static_cast<unsigned long long>(loop.iterations()),
                      static_cast<unsigned long long>(seq),
                      static_cast<unsigned long long>(cp.cycles),
                      static_cast<unsigned long long>(bound),
                      cp.maxUsefulParallelism());
        std::vector<std::string> schemes;
        for (auto kind : sync::allSyncSchemes())
            schemes.push_back(sync::schemeKindName(kind));
        schemes.push_back("reference+cedar");
        for (const std::string &scheme : schemes) {
            // branches-n256 registers no instance scenario: the
            // instance-based scheme does not support branches.
            if (const Scenario *s = findScenario(prefix + scheme))
                runRow(rows,
                       labels({{"workload", name}, {"scheme", scheme}},
                              section),
                       *s, seq, bound);
        }
    }
    return rows;
}

Rows
scaleRows()
{
    Rows rows;
    dep::Loop loop = workloads::makeFig21Loop(2048);
    for (unsigned p : {4u, 8u, 16u, 32u, 64u}) {
        // Small-scale: bus + sync registers, process-oriented.
        auto bus = registerMachine(p, 2 * p);
        bus.machine.memory.numModules = 8;
        // Large-scale: omega network, interleaved modules scaled with
        // P, memory-resident keys, reference-based scheme.
        auto omega = memoryMachine(p);
        omega.machine.interconnect = sim::InterconnectKind::omega;
        omega.machine.memory.numModules = p;
        // Cross case: per-datum keys forced onto the bus machine, the
        // configuration the paper argues against.
        auto cross = memoryMachine(p);
        cross.machine.memory.numModules = 8;
        sim::Tick seq = core::sequentialCycles(loop, bus.machine);
        auto row = [p](const char *machine) {
            return labels({{"p", Table::num(p)}, {"machine", machine}});
        };
        runRow(rows, row("bus+registers / process"),
               SchemeKind::processImproved, loop, bus, seq);
        runRow(rows, row("omega+memory keys / reference"),
               SchemeKind::referenceBased, loop, omega,
               core::sequentialCycles(loop, omega.machine));
        runRow(rows, row("bus+memory keys / reference"),
               SchemeKind::referenceBased, loop, cross, seq);
    }
    return rows;
}

Rows
schedulingRows()
{
    Rows rows;
    using core::SchedulePolicy;
    for (sim::Tick jitter : {0ull, 400ull}) {
        dep::Loop loop = workloads::makeFig21JitterLoop(
            256, 8, jitter, jitter ? 0.25 : 0.0, 77);
        for (auto [policy, chunk] :
             {std::pair{SchedulePolicy::selfScheduling, 1u},
              {SchedulePolicy::chunkedSelfScheduling, 4u},
              {SchedulePolicy::chunkedSelfScheduling, 16u},
              {SchedulePolicy::guidedSelfScheduling, 0u},
              {SchedulePolicy::staticCyclic, 0u}}) {
            auto cfg = registerMachine();
            cfg.schedule = policy;
            cfg.chunkSize = chunk;
            runRow(rows,
                   labels({{"jitter", Table::num(jitter)},
                           {"policy", core::schedulePolicyName(policy)},
                           {"chunk", Table::num(chunk)}}),
                   SchemeKind::processImproved, loop, cfg);
        }
    }
    return rows;
}

Rows
coverageRows()
{
    Rows rows;
    workloads::SyntheticSpec spec;
    spec.seed = 42;
    spec.n = 128;
    spec.numStatements = 8;
    spec.numArrays = 1;
    spec.maxOffset = 2;
    spec.writeProb = 0.6;
    for (const auto &[name, loop] :
         {std::pair<const char *, dep::Loop>{
              "fig2.1 (N=256, 2 coverable arcs)",
              workloads::makeFig21Loop(256)},
          {"dense synthetic (8 stmts, 1 array)",
           workloads::makeSyntheticLoop(spec)}}) {
        for (auto kind :
             {SchemeKind::processImproved, SchemeKind::statementOriented}) {
            for (bool eliminate : {true, false}) {
                auto cfg = registerMachine();
                cfg.eliminateCoveredDeps = eliminate;
                runRow(rows,
                       labels({{"workload", name},
                               {"scheme", sync::schemeKindName(kind)},
                               {"coverage", eliminate ? "on" : "off"}},
                              std::string("workload: ") + name),
                       kind, loop, cfg);
            }
        }
    }
    return rows;
}

} // namespace

const std::vector<ExperimentTable> &
experimentTables()
{
    const Column scheme{"scheme", "scheme"}, cycles{"cycles", "run.cycles"},
        spin{"spin-cycles", "run.spin_cycles"},
        spin_frac{"spin-frac", "run.spin_fraction", 3},
        util{"util", "run.utilization", 3}, speedup{"speedup", "speedup", 2},
        sync_vars{"sync-vars", "sync_vars"},
        sync_ops{"sync-ops", "run.sync_ops"},
        broadcasts{"broadcasts", "run.sync_bus_broadcasts"},
        coalesced{"coalesced", "run.coalesced_writes"};
    const char *pi = "process-improved", *pc = "pipelined (PC)";
    const char *bus = "bus+registers / process",
               *omega = "omega+memory keys / reference";
    const char *reg = "registers+broadcast";
    static const std::vector<ExperimentTable> tables = {
        {"E2", "synchronization state of data-oriented schemes",
         "Fig. 3.1(a)(b), section 3.1",
         "data-oriented schemes need keys (and init writes) proportional "
         "to the data; the process-oriented scheme needs X counters, "
         "period",
         {{{"N", "n"}, scheme, sync_vars, {"storage-B", "storage_bytes"},
           {"init-writes", "init_writes"}, {"init-cycles", "init_cycles"}}},
         dataOrientedRows,
         claims({{.where = {{"scheme", "statement"}}, .path = "sync_vars",
                  .op = Op::equal, .value = 4},
                 {.where = {{"scheme", "process-basic|process-improved"}},
                  .path = "sync_vars", .op = Op::equal, .value = 16},
                 {.where = {{"scheme", "reference|instance"}, {"n", "64"}},
                  .vs = {{"n", "256"}}, .path = "sync_vars"},
                 {.where = {{"scheme", "reference|instance"}, {"n", "256"}},
                  .vs = {{"n", "1024"}}, .path = "sync_vars"},
                 {.where = {{"scheme", "reference|instance"}, {"n", "1024"}},
                  .vs = {{"n", "4096"}}, .path = "sync_vars"}})},
        {"E3", "statement counters serialize, process counters do not",
         "Fig. 3.2 vs Fig. 4.1, section 4",
         "a process delaying its Advance stalls all later processes under "
         "the statement-oriented scheme; under the process-oriented scheme "
         "only real dependence sinks wait",
         {{{"delay-prob", "delay_prob"}, {"delay", "delay"}, scheme, cycles,
           spin_frac, util, speedup}},
         serializationRows,
         claims({{.where = {{"delay_prob", "0.05|0.15|0.30"},
                            {"scheme", "process-basic|process-improved"}},
                  .vs = {{"scheme", "statement"}}}})},
        {"E4", "improved primitives and write coalescing",
         "Fig. 4.2 vs Fig. 4.3, section 6",
         "improved primitives remove the blocking get_PC (fewer spins when "
         "X is small); coalescing cuts sync-bus broadcasts",
         {{{"X", "x"}, {"primitives", "primitives"}, cycles, spin, sync_ops,
           {"marks-skipped", "run.marks_skipped"}},
          {{"coalescing", "coalescing"}, broadcasts, coalesced, cycles}},
         primitivesRows,
         claims({{.where = {{"x", "2|4"}, {"primitives", "improved"}},
                  .vs = {{"primitives", "basic"}}},
                 {.where = {{"coalescing", "on"}},
                  .vs = {{"coalescing", "off"}},
                  .path = "run.sync_bus_broadcasts"},
                 {.where = {{"coalescing", "on"}},
                  .vs = {{"coalescing", "off"}}}})},
        {"E5", "pipelined vs wavefront relaxation", "Fig. 5.1 (Example 1)",
         "equal parallel steps, but asynchronous pipelining wins on "
         "efficiency/utilization; G trades sync count vs delay; the "
         "statement scheme degrades when SCs are scarce",
         {{{"method", "method"}, {"G/SCs", "g_scs"}, cycles, util, spin_frac,
           sync_ops}},
         relaxationRows,
         claims({{.where = {{"method", pc}, {"g_scs", "1"}},
                  .vs = {{"method", "wavefront+butterfly"}, {"g_scs", ""}}},
                 {.where = {{"method", pc}, {"g_scs", "1"}},
                  .vs = {{"method", "wavefront+counter"}, {"g_scs", ""}}},
                 {.where = {{"method", "pipelined (SC, limited)"},
                            {"g_scs", "63"}},
                  .vs = {{"g_scs", "1"}}},
                 // Sync-ops fall strictly as G rises.
                 {.where = {{"method", pc}, {"g_scs", "2"}},
                  .vs = {{"g_scs", "1"}}, .path = "run.sync_ops"},
                 {.where = {{"method", pc}, {"g_scs", "4"}},
                  .vs = {{"g_scs", "2"}}, .path = "run.sync_ops"},
                 {.where = {{"method", pc}, {"g_scs", "8"}},
                  .vs = {{"g_scs", "4"}}, .path = "run.sync_ops"},
                 {.where = {{"method", pc}, {"g_scs", "16"}},
                  .vs = {{"g_scs", "8"}}, .path = "run.sync_ops"},
                 {.where = {{"method", pc}, {"g_scs", "32"}},
                  .vs = {{"g_scs", "16"}}, .path = "run.sync_ops"}})},
        {"E6", "nested Doacross — implicit coalescing vs exact boundaries",
         "Fig. 5.2 (Example 2)",
         "linearization adds a few enforced-but-unreal arcs yet avoids the "
         "O(r*d) boundary overhead and the per-element keys of "
         "data-oriented schemes",
         {{{"N x M", "shape"}, scheme, cycles, {"+init", "with_init"},
           sync_vars, util, speedup}},
         nestedRows,
         claims({{.where = {{"scheme", pi}}, .vs = {{"scheme", "reference"}}},
                 {.where = {{"scheme", pi}},
                  .vs = {{"scheme", "process-exact-bd"}}}})},
        {"E7", "sources in branches — early vs deferred signaling",
         "Fig. 5.3 (Example 3)",
         "signal untaken sources as soon as possible: sinks wait less than "
         "with signals deferred to the iteration's end",
         {{{"taken-prob", "taken_prob"}, scheme, {"signals", "signals"},
           cycles, spin, util}},
         branchRows,
         claims({{.where = {{"signals", "early"}},
                  .vs = {{"signals", "deferred"}}}})},
        {"E8", "butterfly barrier vs counter barrier", "Fig. 5.4 (Example 4)",
         "the butterfly removes the hot spot and the atomic op, and "
         "performs better than a counter barrier on small bus-based "
         "systems",
         {{{"P", "p"}, {"fabric", "fabric"}, {"butterfly", "butterfly.cycles"},
           {"counter", "counter.cycles"},
           {"hot-spot", "counter.hot_spot_ratio", 2},
           {"ctr-queue", "counter.module_queue_delay"}},
          {{"P", "p"}, {"dissemination", "dissemination.cycles"},
           {"counter", "counter.cycles"}}},
         barrierRows,
         // Scoped to small systems: at P=32 the uncached-era data bus
         // saturates under the butterfly's P log P refills.
         claims({{.where = {{"fabric", "memory"}, {"p", "2|4|8|16"}},
                  .path = "butterfly.cycles", .other = "counter.cycles"},
                 {.where = {{"fabric", "memory"}, {"p", "32"}},
                  .path = "counter.cycles", .other = "butterfly.cycles",
                  .op = Op::atMost}})},
        {"E9", "FFT phase synchronization — pairwise vs global barrier",
         "Example 5",
         "communication is pairwise per stage, so no global barrier is "
         "needed; pairwise PC sync wins, more so under jitter",
         {{{"P", "p"}, {"jitter", "jitter"}, {"pairwise", "pairwise.cycles"},
           {"butterfly", "butterfly.cycles"}, {"counter", "counter.cycles"},
           {"pairwise-gain", "gain", 2}}},
         fftRows,
         claims({{.path = "pairwise.cycles", .other = "butterfly.cycles"},
                 {.path = "pairwise.cycles", .other = "counter.cycles"}})},
        {"E10", "synchronization fabric — registers+broadcast vs memory",
         "section 6",
         "local-register polling is free; memory-resident sync vars turn "
         "busy-waiting into bus and module traffic",
         {{{"fabric", "fabric"}, cycles, util,
           {"data-bus-txn", "run.data_bus_transactions"},
           {"sync-polls", "run.sync_mem_polls"}, broadcasts,
           {"bus-util", "run.data_bus_utilization", 3}},
          {scheme, broadcasts, coalesced}},
         fabricRows,
         claims({{.where = {{"fabric", reg}},
                  .vs = {{"fabric", "memory (cached spin)"}}},
                 {.where = {{"fabric", reg}},
                  .vs = {{"fabric", "memory (polling)"}}},
                 {.where = {{"fabric", reg}}, .path = "run.sync_mem_polls",
                  .op = Op::equal}})},
        {"E11", "the scheme taxonomy, quantified",
         "sections 3-6 (summary of advantages, end of section 6)",
         "the process-oriented scheme uses few variables, cheap "
         "initialization, and competitive-or-better execution time across "
         "the paper's workloads",
         {{scheme, sync_vars, {"storage-B", "storage_bytes"},
           {"init-cyc", "init_cycles"}, cycles, spin_frac, speedup,
           {"vs-bound", "vs_bound", 2}}},
         taxonomyRows,
         claims({{.where = {{"scheme", pi}}, .path = "sync_vars",
                  .op = Op::atMost, .value = 16},
                 {.where = {{"scheme", pi}}, .vs = {{"scheme", "reference"}}},
                 {.where = {{"scheme", pi}}, .vs = {{"scheme", "statement"}}},
                 // No instance row on branches: no branch support.
                 {.where = {{"workload", "fig2.1 (N=256)|nested (32x32)"},
                            {"scheme", pi}},
                  .vs = {{"scheme", "instance"}}}})},
        {"E13", "small-scale bus machine vs large-scale network machine",
         "sections 1-3 (scheme scoping)",
         "broadcast-register PCs shine on bus machines; per-datum keys "
         "keep scaling on network machines where a single broadcast bus "
         "would saturate",
         {{{"P", "p"}, {"machine / scheme", "machine"}, cycles, util,
           speedup}},
         scaleRows,
         claims({{.where = {{"p", "8"}, {"machine", bus}},
                  .vs = {{"machine", omega}}},
                 {.where = {{"p", "64"}, {"machine", omega}},
                  .vs = {{"machine", bus}}}})},
        {"E14", "scheduling-policy ablation",
         "sections 5-6 (self-scheduling assumption)",
         "dynamic self-scheduling balances jittered iterations at the cost "
         "of one dispatch fetch&add per claim; the process-oriented scheme "
         "is correct under all order-preserving policies",
         // dispatchRMW counts all memory accesses: the workload has one
         // data access per statement, so differences are dispatch traffic.
         {{{"jitter", "jitter"}, {"policy", "policy"}, {"chunk", "chunk"},
           cycles, {"dispatchRMW", "run.mem_accesses"}, util, spin_frac}},
         schedulingRows,
         claims({{.where = {{"jitter", "400"}, {"policy", "self"}},
                  .vs = {{"policy", "static"}, {"chunk", "0"}}},
                 {.where = {{"jitter", "0"}, {"policy", "self"}},
                  .vs = {{"policy", "chunked"}, {"chunk", "4"}}}})},
        {"E15", "coverage elimination ablation",
         "section 2 (Fig. 2.1: S1->S4 covered by S1->S3 + S3->S4)",
         "eliminating transitively-enforced arcs removes their waits (and, "
         "for a statement scheme, whole counters) at no correctness cost — "
         "the trace checker still verifies the covered arcs' ordering",
         {{scheme, {"coverage", "coverage"}, cycles, sync_ops, broadcasts}},
         coverageRows,
         claims({{.where = {{"coverage", "on"}}, .vs = {{"coverage", "off"}},
                  .path = "run.sync_ops", .op = Op::atMost},
                 {.where = {{"coverage", "on"}}, .vs = {{"coverage", "off"}},
                  .op = Op::atMost}})},
    };
    return tables;
}

void
renderTable(const ExperimentTable &table, const Rows &rows)
{
    const std::string rule(80, '=');
    std::printf("%s\n%s: %s  (paper artifact: %s)\nclaim: %s\n%s\n",
                rule.c_str(), table.id, table.title, table.artifact,
                table.claim, rule.c_str());
    // Format every cell first: a column is as wide as its widest cell
    // in the part, and left-aligned when it holds labels.
    std::vector<std::vector<Table::Col>> heads;
    for (const Columns &cols : table.parts) {
        heads.emplace_back();
        for (const Column &col : cols)
            heads.back().push_back(
                {col.name, static_cast<int>(std::strlen(col.name)) + 2});
    }
    std::vector<std::vector<std::string>> cells;
    for (const Value &row : rows) {
        std::size_t part = partOf(row);
        cells.emplace_back();
        for (std::size_t c = 0; c < table.parts.at(part).size(); ++c) {
            const Column &col = table.parts[part][c];
            const Value *v = lookup(row, col.key);
            std::string text =
                !v               ? ""
                : v->isString()  ? v->asString()
                : col.precision ? Table::fixed(v->asNumber(), col.precision)
                                 : Table::num(static_cast<std::uint64_t>(
                                       v->asNumber()));
            Table::Col &head = heads[part][c];
            head.width = std::max<int>(head.width, text.size() + 2);
            if (v && v->isString())
                head.align = 'l';
            cells.back().push_back(std::move(text));
        }
    }
    std::string shown; // the part and section of the open header
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Value *section = rows[i].find("section");
        std::size_t part = partOf(rows[i]);
        std::string key = std::to_string(part) + "/" +
                          (section ? section->asString() : "");
        if (i == 0 || key != shown) {
            if (i)
                std::printf("\n");
            if (section)
                std::printf("%s\n", section->asString().c_str());
            Table(heads[part]).header();
            shown = key;
        }
        Table(heads[part]).row(cells[i]);
    }
    std::printf("\n");
}

} // namespace bench
} // namespace psync
