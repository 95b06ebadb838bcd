#include "common/logging.hh"

#include <iostream>

#include "common/mutex.hh"

namespace thermctl
{

namespace
{

/**
 * Serializes warn() lines. Stream insertion on std::cerr is
 * thread-safe per the standard, but each message here is built from
 * several insertions ("warn: ", msg, '\n'), so concurrent callers --
 * sweep workers, serve connection threads -- could interleave
 * fragments mid-line without this lock.
 */
Mutex &
streamMutex()
{
    static Mutex mu;
    return mu;
}

} // namespace

void
warnMessage(const std::string &msg)
{
    MutexLock lock(streamMutex());
    std::cerr << "warn: " << msg << '\n';
}

} // namespace thermctl
