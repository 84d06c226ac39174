/**
 * @file
 * Simulated cycles of every registry scenario, as recorded in the
 * checked-in trajectory (BENCH_PSYNC.json, transform passes on).
 * The sim workloads require every run to reproduce these exactly:
 * host-side speed must never buy a cycle change.
 */

#ifndef PSYNC_PERFBENCH_EXPECTED_CYCLES_HH
#define PSYNC_PERFBENCH_EXPECTED_CYCLES_HH

#include <cstdint>

namespace perf {

struct ExpectedCycles
{
    const char *scenario;
    std::uint64_t cycles;
};

inline constexpr ExpectedCycles kExpectedCycles[] = {
    {"fig21-n64/process-improved", 861},
    {"fig21-n64/statement", 916},
    {"fig21-n64/reference", 1610},
    {"fig21-n256/reference", 5909},
    {"fig21-n256/instance", 5179},
    {"fig21-n256/statement", 3484},
    {"fig21-n256/process-basic", 3271},
    {"fig21-n256/process-improved", 3237},
    {"fig21-n256/reference+cedar", 3013},
    {"nested-32x32/reference", 24448},
    {"nested-32x32/instance", 13692},
    {"nested-32x32/statement", 11523},
    {"nested-32x32/process-basic", 10982},
    {"nested-32x32/process-improved", 10921},
    {"nested-32x32/reference+cedar", 12297},
    {"branches-n256/reference", 18592},
    {"branches-n256/statement", 8614},
    {"branches-n256/process-basic", 8706},
    {"branches-n256/process-improved", 8541},
    {"branches-n256/reference+cedar", 8215},
    {"branches-n256/process-improved-deferred", 10769},
    {"fig32-jitter/statement", 16538},
    {"fig32-jitter/process-basic", 13519},
    {"fig32-jitter/process-improved", 13555},
    {"fabric-fig21/mem-cached", 5631},
    {"fabric-fig21/mem-polling", 5728},
    {"coalescing-fig21/on", 3263},
    {"coalescing-fig21/off", 4116},
    {"folding-x2/process-basic", 6138},
    {"folding-x2/process-improved", 4908},
    {"sched-jitter/self", 13555},
    {"sched-jitter/static-cyclic", 13340},
    {"sched-jitter/chunked-4", 35032},
    {"sched-jitter/guided", 35272},
    {"coverage-dense/on", 14494},
    {"coverage-dense/off", 15739},
    {"scale-n1024/bus-process", 10881},
    {"scale-n1024/omega-reference", 16189},
    {"relax-32x32/process-improved", 24989},
    {"relax-32x32/statement", 24990},
    {"fig32-jitter/statement-mem", 19579},
    {"scale-1024/p256-flat-mem", 401674},
    {"scale-1024/p256-flat-reg", 7425},
    {"scale-1024/p256-combining", 13013},
    {"scale-1024/p256-hier", 7435},
    {"scale-1024/p1024-flat-mem", 6326779},
    {"scale-1024/p1024-flat-reg", 29697},
    {"scale-1024/p1024-combining", 59992},
    {"scale-1024/p1024-hier", 29717},
};

} // namespace perf

#endif // PSYNC_PERFBENCH_EXPECTED_CYCLES_HH
