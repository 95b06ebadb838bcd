/**
 * @file
 * Tests for the sweep engine (sim/sweep.hh): grid resolution, key/seed
 * stability, result serialization, cache-key digests, parallel
 * determinism, and the on-disk result cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

namespace
{

/** Short protocol so grid tests stay fast. */
RunProtocol
shortProtocol()
{
    RunProtocol proto;
    proto.warmup_cycles = 4000;
    proto.measure_cycles = 12000;
    return proto;
}

/** A 3x3 grid of real profiles x policies. */
SweepSpec
smallGrid()
{
    SweepSpec spec;
    spec.protocol(shortProtocol());
    for (const char *name : {"186.crafty", "301.apsi", "164.gzip"})
        spec.workload(specProfile(name));
    for (auto kind : {DtmPolicyKind::None, DtmPolicyKind::Toggle1,
                      DtmPolicyKind::PID}) {
        DtmPolicySettings s;
        s.kind = kind;
        spec.policy(s);
    }
    return spec;
}

std::vector<std::string>
resultBytes(const SweepResults &res)
{
    std::vector<std::string> bytes;
    for (const auto &oc : res.outcomes())
        bytes.push_back(serializeRunResult(oc.result));
    return bytes;
}

/** Scoped temporary directory for cache tests. */
class TempDir
{
  public:
    TempDir()
    {
        path_ = std::filesystem::temp_directory_path()
            / ("thermctl_sweep_test_" + std::to_string(::getpid()) + "_"
               + std::to_string(counter_++));
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::filesystem::path &path() const { return path_; }

  private:
    static inline int counter_ = 0;
    std::filesystem::path path_;
};

} // namespace

TEST(SweepKey, FormatAndStability)
{
    EXPECT_EQ(sweepKey("186.crafty", "PID"), "186.crafty/PID");
    EXPECT_EQ(sweepKey("186.crafty", "PID", "direct"),
              "186.crafty/PID/direct");
}

TEST(SweepSpec, GridResolutionOrderAndSeeds)
{
    SweepSpec spec = smallGrid();
    spec.variant("a", [](SimConfig &) {});
    spec.variant("b", [](SimConfig &cfg) { cfg.dtm.sample_interval = 500; });

    const auto points = spec.points();
    ASSERT_EQ(points.size(), 18u);
    EXPECT_EQ(spec.size(), 18u);

    // workloads outer, policies middle, variants inner.
    EXPECT_EQ(points[0].key, "186.crafty/none/a");
    EXPECT_EQ(points[1].key, "186.crafty/none/b");
    EXPECT_EQ(points[2].key, "186.crafty/toggle1/a");
    EXPECT_EQ(points[6].key, "301.apsi/none/a");

    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);

    // The variant override resolved into the point's config.
    EXPECT_EQ(points[1].config.dtm.sample_interval, 500u);
    EXPECT_NE(points[0].config.dtm.sample_interval, 500u);
}

TEST(SweepSpec, EmptyAxesDefaultToNeutralElements)
{
    SweepSpec spec;
    spec.protocol(shortProtocol());
    const auto points = spec.points();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].config.policy.kind, SimConfig{}.policy.kind);
}

TEST(SweepSpec, DuplicateKeysAreFatal)
{
    SweepSpec spec;
    spec.protocol(shortProtocol());
    DtmPolicySettings s;
    s.kind = DtmPolicyKind::PID;
    spec.policy(s);
    s.ct_setpoint = 111.2;
    spec.policy(s); // same default label "PID"
    EXPECT_THROW(spec.points(), FatalError);
}

TEST(SweepSerialization, RoundTripsEveryField)
{
    RunResult r;
    r.benchmark = "186.crafty";
    r.policy = "PID";
    r.category = ThermalCategory::High;
    r.ipc = 1.25;
    r.raw_ipc = 1.5;
    r.avg_power = 42.5;
    r.emergency_fraction = 0.001;
    r.stress_fraction = 0.25;
    r.max_temperature = 111.75;
    r.mean_duty = 0.875;
    for (std::size_t i = 0; i < r.structures.size(); ++i) {
        r.structures[i].avg_temp = 100.0 + double(i);
        r.structures[i].max_temp = 110.0 + double(i);
        r.structures[i].emergency_fraction = 0.01 * double(i);
        r.structures[i].stress_fraction = 0.02 * double(i);
        r.structures[i].avg_power = 1.5 * double(i);
    }

    const std::string bytes = serializeRunResult(r);
    EXPECT_EQ(static_cast<std::uint8_t>(bytes[0]),
              kRunResultFormatVersion);
    RunResult out;
    ASSERT_EQ(deserializeRunResult(bytes, out), RunResultDecodeStatus::Ok);
    EXPECT_EQ(serializeRunResult(out), bytes);
    EXPECT_EQ(out.benchmark, r.benchmark);
    EXPECT_EQ(out.policy, r.policy);
    EXPECT_EQ(out.category, r.category);
    EXPECT_EQ(out.raw_ipc, r.raw_ipc);
    EXPECT_EQ(out.mean_duty, r.mean_duty);
    EXPECT_EQ(double(out.structures[5].max_temp),
              double(r.structures[5].max_temp));
}

TEST(SweepSerialization, RejectsMalformedBuffers)
{
    RunResult r;
    r.benchmark = "x";
    const std::string bytes = serializeRunResult(r);

    RunResult out;
    EXPECT_EQ(deserializeRunResult("", out),
              RunResultDecodeStatus::Malformed);
    EXPECT_EQ(
        deserializeRunResult(std::string_view(bytes).substr(0, 10), out),
        RunResultDecodeStatus::Malformed);
    std::string trailing = bytes + "junk";
    EXPECT_EQ(deserializeRunResult(trailing, out),
              RunResultDecodeStatus::Malformed);

    // An old/foreign format version is a typed rejection, not garbage:
    // rewrite the version byte and repair the trailing checksum so only
    // the version mismatch can be the cause.
    std::string old = bytes;
    old[0] = static_cast<char>(kRunResultFormatVersion + 1);
    {
        ByteWriter fix;
        fix.u64(hashString(
            std::string_view(old).substr(0, old.size() - 8)));
        old.replace(old.size() - 8, 8, fix.buffer());
    }
    EXPECT_EQ(deserializeRunResult(old, out),
              RunResultDecodeStatus::BadVersion);
}

TEST(SweepDigest, SensitiveToEveryAxisItCovers)
{
    const SimConfig base;
    const RunProtocol proto = shortProtocol();
    const std::uint64_t d0 = sweepConfigDigest(base, proto);

    // Pure function of its inputs.
    EXPECT_EQ(sweepConfigDigest(base, proto), d0);

    SimConfig c1 = base;
    c1.dtm.sample_interval = base.dtm.sample_interval + 1;
    EXPECT_NE(sweepConfigDigest(c1, proto), d0);

    SimConfig c2 = base;
    c2.thermal.t_emergency = double(base.thermal.t_emergency) + 0.1;
    EXPECT_NE(sweepConfigDigest(c2, proto), d0);

    SimConfig c3 = base;
    c3.policy.ct_setpoint = double(base.policy.ct_setpoint) - 0.4;
    EXPECT_NE(sweepConfigDigest(c3, proto), d0);

    SimConfig c4 = base;
    c4.workload.seed += 1;
    EXPECT_NE(sweepConfigDigest(c4, proto), d0);

    RunProtocol p2 = proto;
    p2.measure_cycles += 1;
    EXPECT_NE(sweepConfigDigest(base, p2), d0);
}

TEST(SweepEngine, DefaultJobsReadsWholeNumbersFromTheEnvironment)
{
    const char *saved = std::getenv("THERMCTL_JOBS");
    const std::string restore = saved ? saved : "";
    ::unsetenv("THERMCTL_JOBS");
    const unsigned fallback = SweepEngine::defaultJobs();
    EXPECT_GE(fallback, 1u);

    ::setenv("THERMCTL_JOBS", "3", 1);
    EXPECT_EQ(SweepEngine::defaultJobs(), 3u);
    // strtol read "4x" as 4; now trailing garbage is ignored with a
    // warning like every other invalid value.
    for (const char *bad : {"4x", "0", "-2", "", " 4", "four"}) {
        ::setenv("THERMCTL_JOBS", bad, 1);
        EXPECT_EQ(SweepEngine::defaultJobs(), fallback) << "'" << bad << "'";
    }

    if (saved)
        ::setenv("THERMCTL_JOBS", restore.c_str(), 1);
    else
        ::unsetenv("THERMCTL_JOBS");
}

TEST(SweepEngine, ParallelResultsBitIdenticalToSerial)
{
    const SweepSpec spec = smallGrid();

    SweepOptions serial;
    serial.jobs = 1;
    const SweepResults r1 = SweepEngine(serial).run(spec);

    SweepOptions parallel;
    parallel.jobs = 8;
    const SweepResults r8 = SweepEngine(parallel).run(spec);

    ASSERT_EQ(r1.size(), 9u);
    ASSERT_EQ(r8.size(), 9u);
    EXPECT_EQ(r1.simulated(), 9u);
    EXPECT_EQ(r8.simulated(), 9u);

    const auto b1 = resultBytes(r1);
    const auto b8 = resultBytes(r8);
    for (std::size_t i = 0; i < b1.size(); ++i) {
        EXPECT_EQ(b1[i], b8[i]) << "point " << r1.outcomes()[i].point.key;
        EXPECT_EQ(r1.outcomes()[i].point.key, r8.outcomes()[i].point.key);
    }
}

TEST(SweepEngine, PointFailureRethrowsAndTheEngineStaysUsable)
{
    WorkloadProfile broken = specProfile("164.gzip");
    broken.name = "broken";
    broken.num_blocks = 0; // rejected when its point builds the workload

    // `bad` is `clean` plus one point that throws.
    SweepSpec clean, bad;
    clean.protocol(shortProtocol());
    bad.protocol(shortProtocol());
    for (const char *name : {"186.crafty", "301.apsi", "164.gzip"}) {
        clean.workload(specProfile(name));
        bad.workload(specProfile(name));
        if (std::string(name) == "186.crafty")
            bad.workload(broken);
    }

    SweepOptions serial;
    serial.jobs = 1;
    const auto expected = resultBytes(SweepEngine(serial).run(clean));

    for (unsigned jobs : {1u, 4u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        const SweepEngine engine(opts);
        EXPECT_THROW(engine.run(bad), FatalError) << "jobs=" << jobs;
        EXPECT_EQ(resultBytes(engine.run(clean)), expected)
            << "jobs=" << jobs;
    }
}

TEST(SweepEngine, JobsCapsThePointsInFlight)
{
    SweepOptions opts;
    opts.jobs = 2;
    SweepEngine engine(opts);
    // The callbacks never run concurrently, so plain counters suffice.
    int in_flight = 0, peak = 0, done = 0;
    SweepTelemetry telemetry;
    telemetry.on_run_start = [&](const SweepPoint &, std::size_t) {
        peak = std::max(peak, ++in_flight);
    };
    telemetry.on_run_done = [&](const SweepOutcome &, std::size_t) {
        --in_flight;
        ++done;
    };
    engine.setTelemetry(telemetry);
    engine.run(smallGrid());
    EXPECT_EQ(done, 9);
    EXPECT_LE(peak, 2);
}

TEST(SweepEngine, WarmCacheServesBitIdenticalResults)
{
    TempDir cache;
    const SweepSpec spec = smallGrid();

    SweepOptions opts;
    opts.jobs = 4;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();

    const SweepResults cold = SweepEngine(opts).run(spec);
    EXPECT_EQ(cold.simulated(), 9u);
    EXPECT_EQ(cold.cacheHits(), 0u);

    const SweepResults warm = SweepEngine(opts).run(spec);
    EXPECT_EQ(warm.simulated(), 0u); // nothing re-simulated
    EXPECT_EQ(warm.cacheHits(), 9u);

    EXPECT_EQ(resultBytes(cold), resultBytes(warm));
}

TEST(SweepEngine, CacheInvalidatesWhenAConfigFieldChanges)
{
    TempDir cache;
    SweepOptions opts;
    opts.jobs = 2;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();
    const SweepEngine engine(opts);

    SweepSpec spec;
    spec.protocol(shortProtocol());
    spec.workload(specProfile("186.crafty"));
    DtmPolicySettings pid;
    pid.kind = DtmPolicyKind::PID;
    spec.policy(pid);

    EXPECT_EQ(engine.run(spec).simulated(), 1u);
    EXPECT_EQ(engine.run(spec).cacheHits(), 1u);

    // Any changed field must miss: same key, different digest.
    SimConfig tweaked;
    tweaked.dtm.sample_interval = 2000;
    spec.base(tweaked);
    const SweepResults changed = engine.run(spec);
    EXPECT_EQ(changed.simulated(), 1u);
    EXPECT_EQ(changed.cacheHits(), 0u);
}

TEST(SweepEngine, CorruptCacheEntriesDegradeToMisses)
{
    TempDir cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();
    const SweepEngine engine(opts);

    SweepSpec spec;
    spec.protocol(shortProtocol());
    spec.workload(specProfile("164.gzip"));

    const SweepResults first = engine.run(spec);
    ASSERT_EQ(first.simulated(), 1u);

    // Truncate every cache file to garbage.
    for (const auto &entry :
         std::filesystem::directory_iterator(cache.path())) {
        FILE *f = std::fopen(entry.path().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a cache entry", f);
        std::fclose(f);
    }

    const SweepResults second = engine.run(spec);
    EXPECT_EQ(second.simulated(), 1u);
    EXPECT_EQ(second.cacheHits(), 0u);
    EXPECT_EQ(resultBytes(first), resultBytes(second));
}

TEST(SweepEngine, CorruptEntriesQuarantineAndSelfHeal)
{
    TempDir cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();
    const SweepEngine engine(opts);

    SweepSpec spec;
    spec.protocol(shortProtocol());
    spec.workload(specProfile("186.crafty"));

    ASSERT_EQ(engine.run(spec).simulated(), 1u);

    // Corrupt the published entry in place (flip one payload byte).
    std::filesystem::path entry;
    for (const auto &it :
         std::filesystem::directory_iterator(cache.path())) {
        if (it.path().extension() == ".run")
            entry = it.path();
    }
    ASSERT_FALSE(entry.empty());
    std::filesystem::resize_file(
        entry, std::filesystem::file_size(entry) - 1);

    // The engine's read path must quarantine (not just miss): the bad
    // file moves aside as *.corrupt and a fresh entry is republished,
    // so the third run is a clean hit instead of a miss-loop.
    const SweepResults healed = engine.run(spec);
    EXPECT_EQ(healed.simulated(), 1u);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(entry.string() + ".corrupt")));
    EXPECT_TRUE(std::filesystem::exists(entry)); // republished
    EXPECT_EQ(engine.run(spec).cacheHits(), 1u);
}

TEST(SweepCacheRecover, QuarantinesTornEntriesAndRemovesTemps)
{
    TempDir cache;
    SweepOptions opts;
    opts.jobs = 2;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();
    const SweepEngine engine(opts);
    ASSERT_EQ(engine.run(smallGrid()).simulated(), 9u);

    // Tear one entry (truncate to half) and abandon a writer temp file.
    std::vector<std::filesystem::path> entries;
    for (const auto &it :
         std::filesystem::directory_iterator(cache.path())) {
        if (it.path().extension() == ".run")
            entries.push_back(it.path());
    }
    ASSERT_EQ(entries.size(), 9u);
    std::sort(entries.begin(), entries.end());
    const auto torn_size = std::filesystem::file_size(entries[0]) / 2;
    std::filesystem::resize_file(entries[0], torn_size);
    {
        std::ofstream tmp(cache.path()
                          / "0123456789abcdef.run.tmp.deadbeef");
        tmp << "abandoned";
    }
    // A file whose name is not a digest is quarantined too.
    {
        std::ofstream stray(cache.path() / "not-a-digest.run");
        stray << "stray";
    }

    const CacheRecoveryStats stats =
        sweepCacheRecover(cache.path().string());
    EXPECT_EQ(stats.scanned, 10u);
    EXPECT_EQ(stats.quarantined, 2u);
    EXPECT_EQ(stats.tmp_removed, 1u);

    // Valid entries were untouched; a second sweep finds nothing.
    const CacheRecoveryStats again =
        sweepCacheRecover(cache.path().string());
    EXPECT_EQ(again.scanned, 8u);
    EXPECT_EQ(again.quarantined, 0u);
    EXPECT_EQ(again.tmp_removed, 0u);

    // And the grid re-runs from the surviving entries: 8 hits, 1
    // honest re-simulation of the quarantined point.
    const SweepResults after = engine.run(smallGrid());
    EXPECT_EQ(after.cacheHits(), 8u);
    EXPECT_EQ(after.simulated(), 1u);

    // A missing directory is a no-op, not an error.
    const CacheRecoveryStats none =
        sweepCacheRecover((cache.path() / "nope").string());
    EXPECT_EQ(none.scanned, 0u);
}

TEST(SweepCacheRecover, OrphanedTempsFromKilledPublisherAreSwept)
{
    TempDir cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();
    const SweepEngine engine(opts);

    SweepSpec spec;
    spec.protocol(shortProtocol());
    spec.workload(specProfile("186.crafty"));
    ASSERT_EQ(engine.run(spec).simulated(), 1u);

    std::filesystem::path entry;
    for (const auto &it :
         std::filesystem::directory_iterator(cache.path())) {
        if (it.path().extension() == ".run")
            entry = it.path();
    }
    ASSERT_FALSE(entry.empty());

    // A publisher killed between write and rename leaves a temp with
    // COMPLETE valid bytes next to the live entry. It must still be
    // removed — a temp is never a source of truth — and the published
    // entry it shadows must be left alone.
    std::filesystem::copy_file(
        entry, std::filesystem::path(entry.string() + ".tmp.cafe1234"));
    // A publisher killed mid-write for a digest that never published.
    {
        std::ofstream tmp(cache.path()
                          / "fedcba9876543210.run.tmp.00000001");
        tmp << "torn mid-wri";
    }
    // ".tmp." anywhere in the name marks a temp, extension or not.
    {
        std::ofstream tmp(cache.path() / "stray.tmp.1");
        tmp << "x";
    }

    const CacheRecoveryStats stats =
        sweepCacheRecover(cache.path().string());
    EXPECT_EQ(stats.tmp_removed, 3u);
    EXPECT_EQ(stats.scanned, 1u);
    EXPECT_EQ(stats.quarantined, 0u);

    // Only the published entry remains, and it still serves a hit.
    std::size_t remaining = 0;
    for (const auto &it :
         std::filesystem::directory_iterator(cache.path())) {
        (void)it;
        ++remaining;
    }
    EXPECT_EQ(remaining, 1u);
    EXPECT_EQ(engine.run(spec).cacheHits(), 1u);
}

TEST(SweepCacheRecover, ConcurrentPublishersRacingSameKeysStayUntorn)
{
    // Two engines (standing in for two separate processes) publish the
    // same 3x3 grid into one cache directory at the same time. The
    // write-to-temp + rename discipline must never expose a torn
    // entry: whoever loses each rename race overwrites an identical
    // file. Afterwards the recovery scan finds nothing to heal and the
    // cache serves every point bit-identical to an uncached run.
    TempDir cache;
    SweepOptions opts;
    opts.jobs = 4;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();

    SweepResults a, b;
    std::thread ta([&] { a = SweepEngine(opts).run(smallGrid()); });
    std::thread tb([&] { b = SweepEngine(opts).run(smallGrid()); });
    ta.join();
    tb.join();
    ASSERT_EQ(a.size(), 9u);
    ASSERT_EQ(b.size(), 9u);
    EXPECT_EQ(resultBytes(a), resultBytes(b));

    const CacheRecoveryStats stats =
        sweepCacheRecover(cache.path().string());
    EXPECT_EQ(stats.scanned, 9u);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.tmp_removed, 0u);

    const SweepResults warm = SweepEngine(opts).run(smallGrid());
    EXPECT_EQ(warm.cacheHits(), 9u);
    EXPECT_EQ(warm.simulated(), 0u);
    EXPECT_EQ(resultBytes(warm), resultBytes(a));

    SweepOptions uncached;
    uncached.jobs = 1;
    EXPECT_EQ(resultBytes(SweepEngine(uncached).run(smallGrid())),
              resultBytes(a));
}

TEST(SweepCacheRecover, SecondStartupRescanLeavesQuarantineAlone)
{
    TempDir cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();
    const SweepEngine engine(opts);

    SweepSpec spec;
    spec.protocol(shortProtocol());
    spec.workload(specProfile("164.gzip"));
    ASSERT_EQ(engine.run(spec).simulated(), 1u);

    std::filesystem::path entry;
    for (const auto &it :
         std::filesystem::directory_iterator(cache.path())) {
        if (it.path().extension() == ".run")
            entry = it.path();
    }
    ASSERT_FALSE(entry.empty());
    const std::filesystem::path aside(entry.string() + ".corrupt");

    // First startup: a torn entry is moved aside for post-mortem.
    std::filesystem::resize_file(
        entry, std::filesystem::file_size(entry) / 2);
    const auto torn_size = std::filesystem::file_size(entry);
    const CacheRecoveryStats first =
        sweepCacheRecover(cache.path().string());
    EXPECT_EQ(first.quarantined, 1u);
    ASSERT_TRUE(std::filesystem::exists(aside));
    EXPECT_FALSE(std::filesystem::exists(entry));

    // Second startup: the .corrupt file is retained evidence, not a
    // cache entry — it is neither re-scanned nor re-quarantined nor
    // deleted, and its bytes are untouched.
    const CacheRecoveryStats second =
        sweepCacheRecover(cache.path().string());
    EXPECT_EQ(second.scanned, 0u);
    EXPECT_EQ(second.quarantined, 0u);
    EXPECT_EQ(second.tmp_removed, 0u);
    ASSERT_TRUE(std::filesystem::exists(aside));
    EXPECT_EQ(std::filesystem::file_size(aside), torn_size);

    // Re-simulation republishes; tearing the fresh entry and
    // recovering again re-quarantines onto the same .corrupt name
    // (latest evidence wins) without tripping over the old file.
    ASSERT_EQ(engine.run(spec).simulated(), 1u);
    ASSERT_TRUE(std::filesystem::exists(entry));
    std::filesystem::resize_file(entry, 3);
    const CacheRecoveryStats third =
        sweepCacheRecover(cache.path().string());
    EXPECT_EQ(third.scanned, 1u);
    EXPECT_EQ(third.quarantined, 1u);
    ASSERT_TRUE(std::filesystem::exists(aside));
    EXPECT_EQ(std::filesystem::file_size(aside), 3u);
    EXPECT_FALSE(std::filesystem::exists(entry));
}

TEST(SweepCacheLookup, ReadOnlyProbeDoesNotQuarantine)
{
    TempDir cache;
    SweepOptions opts;
    opts.jobs = 1;
    opts.use_cache = true;
    opts.cache_dir = cache.path().string();
    const SweepEngine engine(opts);

    SweepSpec spec;
    spec.protocol(shortProtocol());
    spec.workload(specProfile("164.gzip"));
    ASSERT_EQ(engine.run(spec).simulated(), 1u);

    std::filesystem::path entry;
    for (const auto &it :
         std::filesystem::directory_iterator(cache.path())) {
        if (it.path().extension() == ".run")
            entry = it.path();
    }
    ASSERT_FALSE(entry.empty());
    std::uint64_t digest = 0;
    {
        std::stringstream ss;
        ss << std::hex << entry.stem().string();
        ss >> digest;
    }

    RunResult out;
    EXPECT_TRUE(sweepCacheLookup(cache.path().string(), digest, out));

    std::filesystem::resize_file(
        entry, std::filesystem::file_size(entry) / 2);
    EXPECT_FALSE(sweepCacheLookup(cache.path().string(), digest, out));
    // The probe is read-only: the torn entry is still in place.
    EXPECT_TRUE(std::filesystem::exists(entry));
}

TEST(SweepEngine, LookupByKeyAndTriple)
{
    const SweepSpec spec = smallGrid();
    SweepOptions opts;
    opts.jobs = 4;
    const SweepResults res = SweepEngine(opts).run(spec);

    EXPECT_NE(res.find("301.apsi/PID"), nullptr);
    EXPECT_EQ(res.find("301.apsi/nope"), nullptr);
    const RunResult &r = res.at("301.apsi", "PID");
    EXPECT_EQ(r.benchmark, "301.apsi");
    EXPECT_THROW(res.at("no/such/point"), FatalError);
}
