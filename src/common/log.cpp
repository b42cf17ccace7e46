#include "common/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace phastlane {

namespace {

LogLevel gLevel = LogLevel::Info;

/** vsnprintf into a std::string. */
std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    if (n < 0) {
        va_end(ap2);
        return "<format error>";
    }
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

void
emit(const char *tag, const char *fmt, va_list ap)
{
    const std::string msg = vformat(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
appendF(std::string &out, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    out += vformat(fmt, ap);
    va_end(ap);
}

void
setLogLevel(LogLevel level)
{
    gLevel = level;
}

LogLevel
logLevel()
{
    return gLevel;
}

void
inform(const char *fmt, ...)
{
    if (gLevel < LogLevel::Info)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("info", fmt, ap);
    va_end(ap);
}

void
debugLog(const char *fmt, ...)
{
    if (gLevel < LogLevel::Debug)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("debug", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("warn", fmt, ap);
    va_end(ap);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

namespace detail {

std::string
formatMsg()
{
    return "";
}

std::string
formatMsg(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vformat(fmt, ap);
    va_end(ap);
    return out;
}

} // namespace detail

} // namespace phastlane
