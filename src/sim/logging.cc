#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace psync {
namespace sim {

namespace {

std::string
vformat(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    return msg;
}

namespace {

struct ComponentName
{
    const char *name;
    unsigned bit;
};

constexpr ComponentName debugComponents[] = {
    {"sync", DebugSync},   {"bus", DebugBus},
    {"mem", DebugMem},     {"proc", DebugProc},
    {"sched", DebugSched}, {"cache", DebugCache},
    {"net", DebugNet},     {"all", DebugAll},
};

std::string
lowered(const std::string &s)
{
    std::string out = s;
    for (char &c : out) {
        if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    }
    return out;
}

} // namespace

unsigned
parseDebugFilter(const std::string &spec, std::string *unknown)
{
    unsigned mask = 0;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token =
            lowered(spec.substr(pos, comma - pos));
        // Trim surrounding spaces.
        size_t b = token.find_first_not_of(" \t");
        size_t e = token.find_last_not_of(" \t");
        token = b == std::string::npos
                    ? std::string()
                    : token.substr(b, e - b + 1);
        if (!token.empty()) {
            bool matched = false;
            for (const auto &c : debugComponents) {
                if (token == c.name) {
                    mask |= c.bit;
                    matched = true;
                    break;
                }
            }
            if (!matched && unknown && unknown->empty())
                *unknown = token;
        }
        pos = comma + 1;
    }
    return mask;
}

namespace detail {

unsigned
initDebugMask()
{
    // First-use initialization from the environment is idempotent,
    // so a racing double-init stores the same value.
    const char *env = std::getenv("PSYNC_DEBUG");
    std::string unknown;
    unsigned mask = env ? parseDebugFilter(env, &unknown) : 0;
    if (!unknown.empty())
        warn("PSYNC_DEBUG: unknown component '%s'", unknown.c_str());
    debugMaskWord.store(mask, std::memory_order_relaxed);
    return mask;
}

} // namespace detail

void
setDebugMask(unsigned mask)
{
    detail::debugMaskWord.store(mask & DebugAll,
                                std::memory_order_relaxed);
}

void
debugPrint(const char *component, Tick tick, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "%10llu: %s: %s\n",
                 static_cast<unsigned long long>(tick), component,
                 msg.c_str());
}

} // namespace sim
} // namespace psync
