/**
 * @file
 * ByteReader defence tests: truncated buffers, oversized length
 * prefixes, and a randomized corruption loop over a serialized
 * RunResult. The contract under test: malformed input flips the reader
 * into a failed state (or yields a typed decode error) — it never
 * crashes, never throws, and never mis-decodes.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "common/hash.hh"
#include "common/serialize.hh"
#include "sim/sweep.hh"

using namespace thermctl;

namespace
{

RunResult
sampleResult()
{
    RunResult r;
    r.benchmark = "183.equake";
    r.policy = "PI";
    r.category = ThermalCategory::High;
    r.ipc = 1.375;
    r.raw_ipc = 1.4375;
    r.avg_power = 41.25;
    r.emergency_fraction = 0.0625;
    r.stress_fraction = 0.25;
    r.max_temperature = 113.5;
    r.mean_duty = 0.9375;
    for (std::size_t i = 0; i < r.structures.size(); ++i) {
        r.structures[i].avg_temp = 70.0 + double(i);
        r.structures[i].max_temp = 95.0 + double(i);
        r.structures[i].emergency_fraction = 0.001 * double(i);
        r.structures[i].stress_fraction = 0.002 * double(i);
        r.structures[i].avg_power = 2.0 + 0.25 * double(i);
    }
    return r;
}

} // namespace

TEST(ByteReader, EmptyBufferFailsEveryRead)
{
    {
        ByteReader r("");
        EXPECT_EQ(r.u8(), 0u);
        EXPECT_FALSE(r.ok());
    }
    {
        ByteReader r("");
        EXPECT_EQ(r.u32(), 0u);
        EXPECT_FALSE(r.ok());
    }
    {
        ByteReader r("");
        EXPECT_EQ(r.u64(), 0u);
        EXPECT_FALSE(r.ok());
    }
    {
        ByteReader r("");
        EXPECT_EQ(r.f64(), 0.0);
        EXPECT_FALSE(r.ok());
    }
    {
        ByteReader r("");
        EXPECT_EQ(r.str(), "");
        EXPECT_FALSE(r.ok());
    }
}

TEST(ByteReader, TruncatedFixedWidthReadsFail)
{
    ByteWriter w;
    w.u64(0x1122334455667788ULL);
    const std::string full = w.buffer();
    for (std::size_t n = 0; n < full.size(); ++n) {
        ByteReader r(std::string_view(full).substr(0, n));
        (void)r.u64();
        EXPECT_FALSE(r.ok()) << "u64 succeeded on " << n << " bytes";
    }

    ByteWriter wf;
    wf.f64(3.14159);
    const std::string fbytes = wf.buffer();
    for (std::size_t n = 0; n < fbytes.size(); ++n) {
        ByteReader r(std::string_view(fbytes).substr(0, n));
        (void)r.f64();
        EXPECT_FALSE(r.ok()) << "f64 succeeded on " << n << " bytes";
    }
}

TEST(ByteReader, FailureIsStickyAndReadsKeepReturningZero)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.buffer());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(r.u32(), 0u); // past the end
    EXPECT_FALSE(r.ok());
    // Once failed, every further read fails too, even if bytes remain.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.atEnd());
}

TEST(ByteReader, OversizedStringLengthPrefixFails)
{
    // A length prefix far beyond the buffer must fail cleanly without
    // attempting the corresponding allocation.
    ByteWriter w;
    w.u64(std::uint64_t(1) << 62);
    w.u8('x');
    ByteReader r(w.buffer());
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());

    // Length prefix that overruns by exactly one byte.
    ByteWriter w2;
    w2.u64(4);
    w2.u8('a');
    w2.u8('b');
    w2.u8('c');
    ByteReader r2(w2.buffer());
    EXPECT_EQ(r2.str(), "");
    EXPECT_FALSE(r2.ok());
}

TEST(ByteReader, MixedStreamRoundTripsAndStopsAtEnd)
{
    ByteWriter w;
    w.u8(9);
    w.u32(123456);
    w.f64(-2.5);
    w.str("hello");
    w.str("");

    ByteReader r(w.buffer());
    EXPECT_EQ(r.u8(), 9u);
    EXPECT_EQ(r.u32(), 123456u);
    EXPECT_EQ(r.f64(), -2.5);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteReader, RemainingTracksConsumptionExactly)
{
    ByteWriter w;
    w.u8(1);
    w.u32(2);
    w.u64(3);
    ByteReader r(w.buffer());
    EXPECT_EQ(r.remaining(), 13u);
    (void)r.u8();
    EXPECT_EQ(r.remaining(), 12u);
    (void)r.u32();
    EXPECT_EQ(r.remaining(), 8u);
    (void)r.u64();
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_TRUE(r.atEnd());
}

TEST(ByteReader, RemainingIsZeroOnceFailed)
{
    // A failed read must zero remaining(): decoders divide by a
    // minimum element size to bound untrusted counts, and a stale
    // nonzero remainder would let a poisoned reader admit a count.
    ByteWriter w;
    w.u8(0xff);
    ByteReader r(w.buffer());
    (void)r.u32(); // runs past the end: 1 byte available, 4 wanted
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_FALSE(r.atEnd());
}

TEST(ByteReader, RemainingBoundsHostileCountPrefix)
{
    // The allocation-bomb guard pattern used by the protocol decoders:
    // a count prefix claiming more elements than the remaining bytes
    // could possibly encode must be rejected before any reserve.
    ByteWriter w;
    w.u64(1u << 20); // claims 2^20 strings...
    w.str("only");   // ...but carries 12 bytes of actual payload
    ByteReader r(w.buffer());
    const std::uint64_t n = r.u64();
    ASSERT_TRUE(r.ok());
    // Each length-prefixed string needs at least 8 bytes (its u64
    // length), so the honest maximum is remaining()/8.
    EXPECT_GT(n, r.remaining() / 8);
}

TEST(ByteReader, StringReadLeavesExactRemainder)
{
    ByteWriter w;
    w.str("abc");
    w.u8(7);
    ByteReader r(w.buffer());
    EXPECT_EQ(r.str(), "abc");
    EXPECT_EQ(r.remaining(), 1u);
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_TRUE(r.atEnd());
}

TEST(RunResultCodec, EveryTruncationIsRejected)
{
    const std::string bytes = serializeRunResult(sampleResult());
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        RunResult out;
        EXPECT_NE(deserializeRunResult(bytes.substr(0, n), out),
                  RunResultDecodeStatus::Ok)
            << "accepted a " << n << "-byte prefix of " << bytes.size();
    }
}

TEST(RunResultCodec, TrailingGarbageIsRejected)
{
    std::string bytes = serializeRunResult(sampleResult());
    bytes.push_back('\0');
    RunResult out;
    EXPECT_EQ(deserializeRunResult(bytes, out),
              RunResultDecodeStatus::Malformed);
}

TEST(RunResultCodec, RandomizedCorruptionNeverDecodes)
{
    const std::string clean = serializeRunResult(sampleResult());
    std::mt19937 rng(0xc0ffee);
    std::uniform_int_distribution<std::size_t> pos_dist(
        0, clean.size() - 1);
    std::uniform_int_distribution<int> xor_dist(1, 255);
    std::uniform_int_distribution<int> count_dist(1, 4);

    for (int iter = 0; iter < 2000; ++iter) {
        std::string bytes = clean;
        const int flips = count_dist(rng);
        for (int f = 0; f < flips; ++f)
            bytes[pos_dist(rng)] ^= char(xor_dist(rng));
        if (bytes == clean)
            continue; // flips cancelled out
        RunResult out;
        // The trailing checksum covers every body byte and the version
        // byte, so any surviving change must be detected.
        EXPECT_NE(deserializeRunResult(bytes, out),
                  RunResultDecodeStatus::Ok)
            << "iteration " << iter << " decoded corrupted bytes";
    }
}

TEST(RunResultCodec, ForeignFormatVersionIsTyped)
{
    std::string bytes = serializeRunResult(sampleResult());
    ASSERT_FALSE(bytes.empty());
    bytes[0] = char(kRunResultFormatVersion + 1);
    // Repair the checksum so only the version byte differs.
    std::string repaired = bytes.substr(0, bytes.size() - 8);
    ByteWriter check;
    check.u64(hashString(repaired));
    repaired += check.buffer();
    RunResult out;
    EXPECT_EQ(deserializeRunResult(repaired, out),
              RunResultDecodeStatus::BadVersion);
}
