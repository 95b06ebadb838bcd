/**
 * @file
 * Tests for the error-reporting helpers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace thermctl
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
    try {
        fatal("value was ", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: value was 7");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant"), PanicError);
}

} // namespace
} // namespace thermctl
