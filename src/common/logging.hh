/**
 * @file
 * Minimal gem5-style status/error reporting.
 *
 * Severity model follows the gem5 convention:
 *  - panic(): an internal invariant was violated (a thermctl bug) — aborts.
 *  - fatal(): the simulation cannot continue due to user input
 *    (bad configuration, impossible parameters) — exits with an error code.
 *  - warn(): advisory messages; never stops the run.
 */

#ifndef THERMCTL_COMMON_LOGGING_HH
#define THERMCTL_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace thermctl
{

/** Thrown by fatal(): unrecoverable user-facing configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Thrown by panic(): internal invariant violation (a thermctl bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace log_detail
{

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace log_detail

/**
 * Report an unrecoverable user error (bad configuration, invalid
 * arguments) and abort the computation by throwing FatalError.
 *
 * Throwing (rather than exiting) keeps the library embeddable and lets the
 * test suite assert on misconfiguration handling.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(log_detail::concat("fatal: ",
                                        std::forward<Args>(args)...));
}

/** Report an internal invariant violation (a thermctl bug). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(log_detail::concat("panic: ",
                                        std::forward<Args>(args)...));
}

/** Print an advisory warning to stderr. */
void warnMessage(const std::string &msg);

/** Formatted wrapper over warnMessage(). */
template <typename... Args>
void
warn(Args &&...args)
{
    warnMessage(log_detail::concat(std::forward<Args>(args)...));
}

} // namespace thermctl

#endif // THERMCTL_COMMON_LOGGING_HH
