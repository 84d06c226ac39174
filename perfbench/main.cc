/**
 * @file
 * psync_perf: runs one benchmark workload and prints its report.
 *
 *   psync_perf --workload NAME --seed N --seconds S --trace 0|1
 *
 * Workloads: paper-sweep, scale-1024, serve-open-loop,
 * fuzz-campaign. --trace 0 measures the end-to-end metrics with
 * all observation off; --trace 1 is the separate per-layer run.
 *
 * Output: one human-readable line per measured metric, then, as the
 * last line, one JSON object holding the verdict (correct,
 * attempted, failed, problems), every measured metric with its
 * unit, and the provenance of the measurement. perfbench/run.py
 * turns that into the benchmark's result line.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"
#include "core/json.hh"

namespace perf {

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives execve,
    // so it would report the launching process's footprint when that
    // was larger.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

double
calibrationMs()
{
    struct Event
    {
        std::uint64_t when;
        std::uint32_t a, b;
        bool operator<(const Event &o) const { return when > o.when; }
    };
    // Allocated once; later calls touch the same memory.
    static std::vector<Event> heap;
    static std::vector<std::uint64_t> state(4096);
    heap.clear();
    heap.reserve(1024);
    for (std::uint32_t k = 0; k < 1024; ++k)
        heap.push_back(Event{k, k, k * 7});
    std::make_heap(heap.begin(), heap.end());
    std::uint64_t x = 1, acc = 0;
    std::uint64_t scratch[16];
    auto t0 = Clock::now();
    for (int i = 0; i < 150000; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        Event e = heap.back();
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        std::uint64_t &v = state[(e.a * 2654435761u ^ e.b) & 4095];
        v += e.when;
        if (v & 1) {
            const std::size_t len = 8 + (z & 7);
            for (std::size_t j = 0; j < len; ++j)
                scratch[j] = z + j;
            for (std::size_t j = 0; j < len; ++j)
                acc += scratch[j];
        }
        heap.back() = Event{e.when + 1 + (z & 63),
                            static_cast<std::uint32_t>(z >> 40), e.a};
        std::push_heap(heap.begin(), heap.end());
    }
    double ms = msBetween(t0, Clock::now());
    asm volatile("" : : "r"(acc) : "memory");
    return ms;
}

} // namespace perf

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper-sweep|scale-1024|"
                 "serve-open-loop|fuzz-campaign\n"
                 "          --seed N --seconds S --trace 0|1\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perf::Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *value = argv[++i];
        if (arg == "--workload")
            args.workload = value;
        else if (arg == "--seed")
            args.seed = std::strtoull(value, nullptr, 0);
        else if (arg == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (arg == "--trace")
            args.trace = std::strcmp(value, "0") != 0;
        else
            return usage(argv[0]);
    }
    if (!(args.seconds > 0))
        return usage(argv[0]);

    perf::Result r;
    if (args.workload == "paper-sweep")
        r = perf::runPaperSweep(args);
    else if (args.workload == "scale-1024")
        r = perf::runScale1024(args);
    else if (args.workload == "serve-open-loop")
        r = perf::runServeOpenLoop(args);
    else if (args.workload == "fuzz-campaign")
        r = perf::runFuzzCampaign(args);
    else
        return usage(argv[0]);
    r.set("peak_rss_mb", perf::peakRssMb(), "MB");

    using psync::core::json::Value;
    Value metrics = psync::core::json::object();
    for (const auto &m : r.report) {
        std::printf("%-32s %.6g %s\n", m.first.c_str(), m.second.first,
                    m.second.second.c_str());
        Value entry = psync::core::json::object();
        entry.set("value", m.second.first);
        entry.set("unit", m.second.second);
        metrics.set(m.first, std::move(entry));
    }
    for (const auto &p : r.problems)
        std::fprintf(stderr, "FAILED CHECK: %s\n", p.c_str());

    Value prov = psync::core::json::object();
    prov.set("build_type", PERF_BUILD_TYPE);
    prov.set("cxx_flags", PERF_CXX_FLAGS);
    prov.set("compile_definitions", PERF_COMPILE_DEFS);
    prov.set("compiler", PERF_COMPILER);
    prov.set("nproc", static_cast<std::uint64_t>(
                          sysconf(_SC_NPROCESSORS_ONLN)));
    prov.set("workload", args.workload);
    prov.set("seed", args.seed);
    prov.set("seconds", args.seconds);
    prov.set("trace", args.trace);
    // The traced run is the only one with observation (trace
    // recording, profile/timeline/blame) switched on.
    prov.set("observation", args.trace);

    Value problems = psync::core::json::array();
    for (const auto &p : r.problems)
        problems.push(p);

    Value out = psync::core::json::object();
    out.set("correct", r.correct && r.failed == 0);
    out.set("attempted", r.attempted);
    out.set("failed", r.failed);
    out.set("problems", std::move(problems));
    out.set("metrics", std::move(metrics));
    out.set("provenance", std::move(prov));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return 0;
}
