#include "util/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace fo4::util
{

namespace
{

void
vreport(const char *tag, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}

} // namespace

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list probe;
    va_copy(probe, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, probe);
    va_end(probe);
    if (n <= 0)
        return std::string();
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vstrprintf(fmt, args);
    va_end(args);
    return out;
}

void
assertFailed(const char *cond, const char *file, int line)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d\n",
                 cond, file, line);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

} // namespace fo4::util
