/**
 * @file
 * Checked parsing of numeric command-line flag values.
 *
 * std::stoul and friends throw std::invalid_argument / out_of_range,
 * which no tool catches, and they accept a numeric prefix ("1e99" reads
 * as 1). parseFlag() accepts the whole text or nothing and reports a
 * bad value as FatalError, which every tool turns into exit code 2.
 */

#ifndef THERMCTL_COMMON_FLAGS_HH
#define THERMCTL_COMMON_FLAGS_HH

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "common/logging.hh"

namespace thermctl
{

/**
 * Parse all of `text` as a T (an integer type or double) for the
 * command-line flag `flag`. Signs are rejected for unsigned T, and
 * infinities and NaNs for floating T.
 * @throws FatalError naming the flag on anything else.
 */
template <typename T>
[[nodiscard]] T
parseFlag(std::string_view flag, std::string_view text)
{
    static_assert(std::is_arithmetic_v<T>);
    T value{};
    const char *const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    bool ok = ec == std::errc() && ptr == end && !text.empty();
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok) {
        fatal(flag, ": '", text, "' is not ",
              std::is_floating_point_v<T> ? "a finite number"
              : std::is_unsigned_v<T>     ? "a non-negative integer"
                                          : "an integer",
              " in range");
    }
    return value;
}

} // namespace thermctl

#endif // THERMCTL_COMMON_FLAGS_HH
