/**
 * @file
 * thermctl-serve tests: wire protocol round-trips and rejection paths,
 * scheduler admission/coalescing/deadline semantics, and socket-level
 * end-to-end runs checked bit-identical against direct
 * ExperimentRunner executions.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/policy_factory.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

RunResult
sampleResult(const std::string &bench, const std::string &policy)
{
    RunResult r;
    r.benchmark = bench;
    r.policy = policy;
    r.category = ThermalCategory::High;
    r.ipc = 1.25;
    r.raw_ipc = 1.5;
    r.avg_power = 34.5;
    r.emergency_fraction = 0.125;
    r.stress_fraction = 0.5;
    r.max_temperature = 112.75;
    r.mean_duty = 0.875;
    for (std::size_t i = 0; i < r.structures.size(); ++i) {
        r.structures[i].avg_temp = 80.0 + double(i);
        r.structures[i].max_temp = 90.0 + double(i);
        r.structures[i].emergency_fraction = 0.01 * double(i);
        r.structures[i].stress_fraction = 0.02 * double(i);
        r.structures[i].avg_power = 1.0 + 0.5 * double(i);
    }
    return r;
}

PointSpec
fastPoint(const std::string &bench = "186.crafty",
          const std::string &policy = "none")
{
    PointSpec p;
    p.benchmark = bench;
    p.policy = policy;
    p.warmup_cycles = 1000;
    p.measure_cycles = 10000;
    return p;
}

/** Poll `pred` for up to `ms` milliseconds. */
bool
waitFor(const std::function<bool()> &pred, int ms = 5000)
{
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
}

/** Unique short Unix socket path (sun_path is tiny). */
std::string
testSocketPath(int idx)
{
    return "/tmp/tserve-" + std::to_string(::getpid()) + "-"
           + std::to_string(idx) + ".sock";
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.raw_ipc, b.raw_ipc);
    EXPECT_EQ(a.avg_power, b.avg_power);
    EXPECT_EQ(a.emergency_fraction, b.emergency_fraction);
    EXPECT_EQ(a.stress_fraction, b.stress_fraction);
    EXPECT_EQ(a.max_temperature, b.max_temperature);
    EXPECT_EQ(a.mean_duty, b.mean_duty);
    for (std::size_t i = 0; i < a.structures.size(); ++i) {
        EXPECT_EQ(a.structures[i].avg_temp, b.structures[i].avg_temp);
        EXPECT_EQ(a.structures[i].max_temp, b.structures[i].max_temp);
        EXPECT_EQ(a.structures[i].avg_power, b.structures[i].avg_power);
    }
}

} // namespace

// ----------------------------------------------------------- framing

TEST(ServeProtocol, FrameRoundTrips)
{
    const std::string frame = encodeFrame(MsgType::RunRequest, "payload");
    ASSERT_GE(frame.size(), kFrameHeaderBytes);
    FrameHeader hdr;
    ASSERT_EQ(decodeFrameHeader(
                  std::string_view(frame).substr(0, kFrameHeaderBytes),
                  hdr),
              FrameStatus::Ok);
    EXPECT_EQ(hdr.version, kWireVersion);
    EXPECT_EQ(hdr.type, MsgType::RunRequest);
    EXPECT_EQ(hdr.payload_len, 7u);
    EXPECT_EQ(frame.substr(kFrameHeaderBytes), "payload");
}

TEST(ServeProtocol, FrameHeaderRejectsCorruption)
{
    std::string frame = encodeFrame(MsgType::StatsRequest, "");
    FrameHeader hdr;

    std::string bad_magic = frame;
    bad_magic[0] = 'X';
    EXPECT_EQ(decodeFrameHeader(
                  std::string_view(bad_magic).substr(0, kFrameHeaderBytes),
                  hdr),
              FrameStatus::BadMagic);

    std::string bad_version = frame;
    bad_version[4] = char(kWireVersion + 7);
    EXPECT_EQ(decodeFrameHeader(std::string_view(bad_version)
                                    .substr(0, kFrameHeaderBytes),
                                hdr),
              FrameStatus::BadVersion);
    EXPECT_EQ(hdr.version, kWireVersion + 7);

    std::string bad_type = frame;
    bad_type[5] = char(200);
    EXPECT_EQ(decodeFrameHeader(
                  std::string_view(bad_type).substr(0, kFrameHeaderBytes),
                  hdr),
              FrameStatus::BadType);

    std::string bad_len = frame;
    for (int i = 6; i < 10; ++i)
        bad_len[i] = char(0xff);
    EXPECT_EQ(decodeFrameHeader(
                  std::string_view(bad_len).substr(0, kFrameHeaderBytes),
                  hdr),
              FrameStatus::BadLength);
}

TEST(ServeProtocol, MsgTypeValidation)
{
    EXPECT_TRUE(msgTypeValid(std::uint8_t(MsgType::RunRequest)));
    EXPECT_TRUE(msgTypeValid(std::uint8_t(MsgType::ErrorReply)));
    EXPECT_FALSE(msgTypeValid(0));
    EXPECT_FALSE(msgTypeValid(42));
    EXPECT_FALSE(msgTypeValid(255));
}

// ------------------------------------------------- payload round-trips

TEST(ServeProtocol, RunRequestRoundTrips)
{
    RunRequest in;
    in.point.benchmark = "179.art";
    in.point.policy = "PI";
    in.point.warmup_cycles = 123;
    in.point.measure_cycles = 456789;
    in.point.ct_setpoint = 110.5;
    in.point.sample_interval = 2500;
    in.point.num_cores = 4;
    in.point.coupling_r = 3.5;
    in.point.chip_budget = 62.5;
    in.point.budget_policy = 2;
    in.deadline_ms = 4000;

    RunRequest out;
    ASSERT_TRUE(RunRequest::decode(in.encode(), out));
    EXPECT_EQ(out.point.benchmark, in.point.benchmark);
    EXPECT_EQ(out.point.policy, in.point.policy);
    EXPECT_EQ(out.point.warmup_cycles, in.point.warmup_cycles);
    EXPECT_EQ(out.point.measure_cycles, in.point.measure_cycles);
    EXPECT_EQ(out.point.ct_setpoint, in.point.ct_setpoint);
    EXPECT_EQ(out.point.sample_interval, in.point.sample_interval);
    EXPECT_EQ(out.point.num_cores, in.point.num_cores);
    EXPECT_EQ(out.point.coupling_r, in.point.coupling_r);
    EXPECT_EQ(out.point.chip_budget, in.point.chip_budget);
    EXPECT_EQ(out.point.budget_policy, in.point.budget_policy);
    EXPECT_EQ(out.deadline_ms, in.deadline_ms);
}

TEST(ServeProtocol, DecodersRejectHostileKnobs)
{
    // The knobs are validated at decode, before any core-count-sized
    // allocation: counts beyond kMaxCores, a non-finite setpoint,
    // non-finite or negative multicore doubles, and unknown budget
    // policies all fail the whole message.
    RunRequest base;
    base.point.benchmark = "186.crafty";
    base.point.policy = "percore-PID";

    RunRequest out;
    ASSERT_TRUE(RunRequest::decode(base.encode(), out));

    RunRequest hostile = base;
    hostile.point.num_cores = 0xffffffffu;
    EXPECT_FALSE(RunRequest::decode(hostile.encode(), out));
    hostile = base;
    hostile.point.num_cores = kMaxCores + 1;
    EXPECT_FALSE(RunRequest::decode(hostile.encode(), out));
    hostile = base;
    hostile.point.coupling_r = -4.0;
    EXPECT_FALSE(RunRequest::decode(hostile.encode(), out));
    hostile = base;
    hostile.point.chip_budget =
        -std::numeric_limits<double>::infinity();
    EXPECT_FALSE(RunRequest::decode(hostile.encode(), out));
    hostile = base;
    hostile.point.coupling_r =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(RunRequest::decode(hostile.encode(), out));
    hostile = base;
    hostile.point.budget_policy = 3;
    EXPECT_FALSE(RunRequest::decode(hostile.encode(), out));
    // A non-finite setpoint would simulate to IPC 0 and a NaN duty.
    for (double setpoint : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()}) {
        hostile = base;
        hostile.point.ct_setpoint = setpoint;
        EXPECT_FALSE(RunRequest::decode(hostile.encode(), out)) << setpoint;
    }

    SweepRequest sweep;
    sweep.benchmarks = {"186.crafty"};
    sweep.policies = {"none"};
    sweep.point.num_cores = 0xffffffffu;
    SweepRequest sweep_out;
    EXPECT_FALSE(SweepRequest::decode(sweep.encode(), sweep_out));
    sweep.point.num_cores = 4;
    sweep.point.budget_policy = 0xff;
    EXPECT_FALSE(SweepRequest::decode(sweep.encode(), sweep_out));
    sweep.point.budget_policy = 0;
    EXPECT_TRUE(SweepRequest::decode(sweep.encode(), sweep_out));
    EXPECT_EQ(sweep_out.point.num_cores, 4u);
}

TEST(ServeProtocol, SweepRequestRoundTrips)
{
    SweepRequest in;
    in.benchmarks = {"186.crafty", "179.art", "164.gzip"};
    in.policies = {"none", "PID"};
    in.point.warmup_cycles = 11;
    in.point.measure_cycles = 22;
    in.point.ct_setpoint = 109.0;
    in.point.sample_interval = 500;
    in.deadline_ms = 9;

    SweepRequest out;
    ASSERT_TRUE(SweepRequest::decode(in.encode(), out));
    EXPECT_EQ(out.benchmarks, in.benchmarks);
    EXPECT_EQ(out.policies, in.policies);
    EXPECT_EQ(out.point.warmup_cycles, in.point.warmup_cycles);
    EXPECT_EQ(out.point.measure_cycles, in.point.measure_cycles);
    EXPECT_EQ(out.point.ct_setpoint, in.point.ct_setpoint);
    EXPECT_EQ(out.point.sample_interval, in.point.sample_interval);
    EXPECT_EQ(out.deadline_ms, in.deadline_ms);
}

TEST(ServeProtocol, SweepRequestPointsAreBenchmarksOuterWithEveryKnob)
{
    SweepRequest grid;
    grid.benchmarks = {"186.crafty", "179.art"};
    grid.policies = {"none", "PI"};
    grid.point.warmup_cycles = 123;
    grid.point.measure_cycles = 456;
    grid.point.ct_setpoint = 109.5;
    grid.point.sample_interval = 750;
    grid.point.num_cores = 2;
    grid.point.coupling_r = 3.5;
    grid.point.chip_budget = 45.0;
    grid.point.budget_policy = 1;

    const std::vector<PointSpec> points = grid.points();
    ASSERT_EQ(points.size(), 4u);
    const char *expect_bench[] = {"186.crafty", "186.crafty", "179.art",
                                  "179.art"};
    const char *expect_policy[] = {"none", "PI", "none", "PI"};
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointSpec &p = points[i];
        EXPECT_EQ(p.benchmark, expect_bench[i]);
        EXPECT_EQ(p.policy, expect_policy[i]);
        EXPECT_EQ(p.warmup_cycles, 123u);
        EXPECT_EQ(p.measure_cycles, 456u);
        EXPECT_EQ(p.ct_setpoint, 109.5);
        EXPECT_EQ(p.sample_interval, 750u);
        EXPECT_EQ(p.num_cores, 2u);
        EXPECT_EQ(p.coupling_r, 3.5);
        EXPECT_EQ(p.chip_budget, 45.0);
        EXPECT_EQ(p.budget_policy, 1u);
    }
}

TEST(ServeProtocol, CacheStatsDrainRequestsRoundTrip)
{
    CacheQueryRequest cq;
    cq.point = fastPoint("300.twolf", "throttle");
    CacheQueryRequest cq_out;
    ASSERT_TRUE(CacheQueryRequest::decode(cq.encode(), cq_out));
    EXPECT_EQ(cq_out.point.benchmark, "300.twolf");
    EXPECT_EQ(cq_out.point.policy, "throttle");

    StatsRequest st_out;
    EXPECT_TRUE(StatsRequest::decode(StatsRequest{}.encode(), st_out));
    DrainRequest dr_out;
    EXPECT_TRUE(DrainRequest::decode(DrainRequest{}.encode(), dr_out));
}

TEST(ServeProtocol, RunReplyRoundTripsResultExactly)
{
    RunReply in;
    in.point.result = sampleResult("183.equake", "PID");
    in.point.cache_hit = true;
    in.point.coalesced = true;
    in.point.server_ms = 12.5;

    RunReply out;
    ASSERT_TRUE(RunReply::decode(in.encode(), out));
    EXPECT_EQ(out.point.error, ServeError::None);
    EXPECT_TRUE(out.point.cache_hit);
    EXPECT_TRUE(out.point.coalesced);
    EXPECT_EQ(out.point.server_ms, 12.5);
    expectSameResult(out.point.result, in.point.result);
}

TEST(ServeProtocol, SweepReplyCarriesMixedOutcomes)
{
    SweepReply in;
    PointReply ok;
    ok.result = sampleResult("186.crafty", "none");
    in.points.push_back(ok);
    PointReply err;
    err.error = ServeError::Overloaded;
    err.message = "queue full";
    in.points.push_back(err);

    SweepReply out;
    ASSERT_TRUE(SweepReply::decode(in.encode(), out));
    ASSERT_EQ(out.points.size(), 2u);
    EXPECT_EQ(out.points[0].error, ServeError::None);
    expectSameResult(out.points[0].result, ok.result);
    EXPECT_EQ(out.points[1].error, ServeError::Overloaded);
    EXPECT_EQ(out.points[1].message, "queue full");
}

TEST(ServeProtocol, StatsCacheDrainErrorRepliesRoundTrip)
{
    StatsReply st;
    st.requests_total = 1;
    st.run_requests = 2;
    st.sweep_requests = 3;
    st.cache_queries = 4;
    st.points_submitted = 5;
    st.points_simulated = 6;
    st.cache_hits = 7;
    st.coalesced = 8;
    st.rejected_overload = 9;
    st.rejected_deadline = 10;
    st.failed = 11;
    st.queue_depth = 12;
    st.queue_high_water = 13;
    st.connections_accepted = 14;
    st.active_connections = 15;
    st.uptime_seconds = 16.5;
    st.latency_count = 17;
    st.latency_mean_ms = 18.5;
    st.latency_p50_ms = 19.5;
    st.latency_p90_ms = 20.5;
    st.latency_p99_ms = 21.5;
    StatsReply st_out;
    ASSERT_TRUE(StatsReply::decode(st.encode(), st_out));
    EXPECT_EQ(st_out.requests_total, 1u);
    EXPECT_EQ(st_out.coalesced, 8u);
    EXPECT_EQ(st_out.queue_high_water, 13u);
    EXPECT_EQ(st_out.uptime_seconds, 16.5);
    EXPECT_EQ(st_out.latency_p99_ms, 21.5);

    CacheQueryReply cq;
    cq.cached = true;
    cq.digest = 0xdeadbeefcafef00dULL;
    CacheQueryReply cq_out;
    ASSERT_TRUE(CacheQueryReply::decode(cq.encode(), cq_out));
    EXPECT_TRUE(cq_out.cached);
    EXPECT_EQ(cq_out.digest, cq.digest);

    DrainReply dr;
    dr.was_draining = true;
    DrainReply dr_out;
    ASSERT_TRUE(DrainReply::decode(dr.encode(), dr_out));
    EXPECT_TRUE(dr_out.was_draining);

    ErrorReply er;
    er.code = ServeError::VersionMismatch;
    er.message = "speak v1";
    ErrorReply er_out;
    ASSERT_TRUE(ErrorReply::decode(er.encode(), er_out));
    EXPECT_EQ(er_out.code, ServeError::VersionMismatch);
    EXPECT_EQ(er_out.message, "speak v1");
}

TEST(ServeProtocol, DecodersRejectEveryTruncation)
{
    RunRequest rr;
    rr.point = fastPoint("179.art", "PI");
    const std::string run_bytes = rr.encode();
    for (std::size_t n = 0; n < run_bytes.size(); ++n) {
        RunRequest out;
        EXPECT_FALSE(
            RunRequest::decode(run_bytes.substr(0, n), out))
            << "accepted truncated RunRequest of " << n << " bytes";
    }

    RunReply reply;
    reply.point.result = sampleResult("186.crafty", "none");
    const std::string reply_bytes = reply.encode();
    for (std::size_t n = 0; n < reply_bytes.size(); ++n) {
        RunReply out;
        EXPECT_FALSE(RunReply::decode(reply_bytes.substr(0, n), out))
            << "accepted truncated RunReply of " << n << " bytes";
    }
}

// ----------------------------------------------------------- scheduler

namespace
{

Scheduler::Options
fastSchedOptions()
{
    Scheduler::Options o;
    o.sweep.use_cache = false;
    o.sweep.jobs = 4;
    o.dispatchers = 1;
    return o;
}

} // namespace

TEST(ServeScheduler, ResolvePointNamesDigest)
{
    const SimConfig base;
    const SweepPoint a = resolvePoint(fastPoint(), base);
    const SweepPoint b = resolvePoint(fastPoint(), base);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.key, "186.crafty/none");

    const SweepPoint other_bench =
        resolvePoint(fastPoint("179.art"), base);
    EXPECT_NE(other_bench.digest, a.digest);

    PointSpec tuned = fastPoint();
    tuned.ct_setpoint = 108.0;
    EXPECT_NE(resolvePoint(tuned, base).digest, a.digest);

    EXPECT_THROW(resolvePoint(fastPoint("186.crafty", "nope"), base),
                 FatalError);
    EXPECT_THROW(resolvePoint(fastPoint("999.missing"), base),
                 FatalError);

    // The multicore engine runs only some policies; the rest are
    // refused here, before any simulation.
    PointSpec chip = fastPoint("186.crafty", "toggle1");
    chip.num_cores = 2;
    EXPECT_THROW(resolvePoint(chip, base), FatalError);
    chip.policy = "PID";
    EXPECT_NO_THROW((void)resolvePoint(chip, base));
}

TEST(ServeScheduler, CoalescesIdenticalInflightRequests)
{
    Scheduler sched(fastSchedOptions());
    const SweepPoint pt = resolvePoint(fastPoint(), SimConfig{});

    sched.pauseDispatch();
    Scheduler::Ticket first = sched.submit(pt, 0);
    EXPECT_FALSE(first.coalesced);
    EXPECT_FALSE(first.rejected);

    std::vector<Scheduler::Ticket> dups;
    for (int i = 0; i < 3; ++i)
        dups.push_back(sched.submit(pt, 0));
    for (const auto &t : dups) {
        EXPECT_TRUE(t.coalesced);
        EXPECT_FALSE(t.rejected);
    }
    sched.resumeDispatch();

    const Scheduler::OutcomePtr base = first.future.get();
    ASSERT_TRUE(base);
    EXPECT_EQ(base->error, ServeError::None);
    EXPECT_EQ(base->result.benchmark, "186.crafty");
    for (auto &t : dups)
        EXPECT_EQ(t.future.get(), base); // same shared outcome object

    sched.awaitIdle();
    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.submitted, 4u);
    EXPECT_EQ(s.coalesced, 3u);
    EXPECT_EQ(s.simulated, 1u); // fewer simulations than requests
}

TEST(ServeScheduler, FullQueueRejectsWithOverloaded)
{
    Scheduler::Options opts = fastSchedOptions();
    opts.max_queue = 2;
    Scheduler sched(opts);

    sched.pauseDispatch();
    Scheduler::Ticket a =
        sched.submit(resolvePoint(fastPoint("186.crafty"), {}), 0);
    Scheduler::Ticket b =
        sched.submit(resolvePoint(fastPoint("179.art"), {}), 0);
    EXPECT_FALSE(a.rejected);
    EXPECT_FALSE(b.rejected);

    Scheduler::Ticket c =
        sched.submit(resolvePoint(fastPoint("164.gzip"), {}), 0);
    EXPECT_TRUE(c.rejected);
    const Scheduler::OutcomePtr oc = c.future.get();
    EXPECT_EQ(oc->error, ServeError::Overloaded);

    // A duplicate of a queued point still coalesces past a full queue.
    Scheduler::Ticket dup =
        sched.submit(resolvePoint(fastPoint("179.art"), {}), 0);
    EXPECT_TRUE(dup.coalesced);

    sched.resumeDispatch();
    EXPECT_EQ(a.future.get()->error, ServeError::None);
    EXPECT_EQ(b.future.get()->error, ServeError::None);
    sched.awaitIdle();
    EXPECT_EQ(sched.stats().rejected_overload, 1u);
}

TEST(ServeScheduler, ExpiredDeadlineFailsWithoutSimulating)
{
    Scheduler sched(fastSchedOptions());
    sched.pauseDispatch();
    Scheduler::Ticket t =
        sched.submit(resolvePoint(fastPoint(), {}), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sched.resumeDispatch();

    const Scheduler::OutcomePtr oc = t.future.get();
    EXPECT_EQ(oc->error, ServeError::DeadlineExceeded);
    sched.awaitIdle();
    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.rejected_deadline, 1u);
    EXPECT_EQ(s.simulated, 0u);
}

TEST(ServeScheduler, DrainFinishesQueuedWorkAndRefusesNew)
{
    Scheduler sched(fastSchedOptions());
    sched.pauseDispatch();
    Scheduler::Ticket queued =
        sched.submit(resolvePoint(fastPoint(), {}), 0);
    sched.beginDrain(); // overrides the pause; queued work must finish

    Scheduler::Ticket refused =
        sched.submit(resolvePoint(fastPoint("179.art"), {}), 0);
    EXPECT_TRUE(refused.rejected);
    EXPECT_EQ(refused.future.get()->error, ServeError::Draining);

    EXPECT_EQ(queued.future.get()->error, ServeError::None);
    sched.awaitIdle();
}

TEST(ServeScheduler, BatchesDistinctBenchmarksInOneDispatch)
{
    Scheduler sched(fastSchedOptions());
    sched.pauseDispatch();
    Scheduler::Ticket a =
        sched.submit(resolvePoint(fastPoint("186.crafty"), {}), 0);
    Scheduler::Ticket b =
        sched.submit(resolvePoint(fastPoint("179.art"), {}), 0);
    sched.resumeDispatch();

    EXPECT_EQ(a.future.get()->result.benchmark, "186.crafty");
    EXPECT_EQ(b.future.get()->result.benchmark, "179.art");
    sched.awaitIdle();
    EXPECT_EQ(sched.stats().simulated, 2u);
}

TEST(ServeScheduler, CacheHitIsNotHeldBackByItsBatch)
{
    const std::filesystem::path cache_dir =
        std::filesystem::temp_directory_path()
        / ("tserve-hit-" + std::to_string(::getpid()));
    std::filesystem::remove_all(cache_dir);
    Scheduler::Options opts = fastSchedOptions();
    opts.sweep.jobs = 1;
    opts.sweep.use_cache = true;
    opts.sweep.cache_dir = cache_dir.string();
    Scheduler sched(opts);

    // Long enough that the fresh point is still simulating when the
    // hit ahead of it has been answered.
    PointSpec hit = fastPoint("186.crafty");
    hit.measure_cycles = 500000;
    PointSpec fresh = hit;
    fresh.benchmark = "179.art";
    ASSERT_EQ(sched.submit(resolvePoint(hit, {}), 0).future.get()->error,
              ServeError::None);

    sched.pauseDispatch();
    Scheduler::Ticket a = sched.submit(resolvePoint(hit, {}), 0);
    Scheduler::Ticket b = sched.submit(resolvePoint(fresh, {}), 0);
    sched.resumeDispatch();

    EXPECT_TRUE(a.future.get()->cache_hit);
    EXPECT_EQ(b.future.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << "the hit waited for the simulation in its batch";
    EXPECT_FALSE(b.future.get()->cache_hit);
    sched.awaitIdle();
    std::filesystem::remove_all(cache_dir);
}

TEST(ServeScheduler, FailuresStayPerPoint)
{
    Scheduler sched(fastSchedOptions());
    SweepPoint bad = resolvePoint(fastPoint("164.gzip"), {});
    bad.config.workload.num_blocks = 0; // fails when the workload builds
    bad.digest = sweepConfigDigest(bad.config, bad.proto);

    sched.pauseDispatch();
    Scheduler::Ticket good =
        sched.submit(resolvePoint(fastPoint("186.crafty"), {}), 0);
    Scheduler::Ticket broken = sched.submit(bad, 0);
    sched.resumeDispatch();

    const Scheduler::OutcomePtr ok = good.future.get();
    EXPECT_EQ(ok->error, ServeError::None) << ok->message;
    EXPECT_EQ(ok->result.benchmark, "186.crafty");
    const Scheduler::OutcomePtr failed = broken.future.get();
    EXPECT_EQ(failed->error, ServeError::Internal);
    EXPECT_NE(failed->message.find("164.gzip/none"), std::string::npos)
        << failed->message;
    sched.awaitIdle();
    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.simulated, 1u);
    EXPECT_EQ(s.failed, 1u);
}

// ------------------------------------------------------------- server

namespace
{

ServerOptions
fastServerOptions(int sock_idx)
{
    ServerOptions o;
    o.unix_path = testSocketPath(sock_idx);
    o.sweep.use_cache = false;
    o.sweep.jobs = 8;
    o.dispatchers = 1;
    // Tests park requests on a paused scheduler while more arrive;
    // every concurrent request needs a worker to block in.
    o.workers = 8;
    return o;
}

/** Raw blocking client socket for protocol-level misbehavior tests. */
int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

TEST(ServeServer, ConcurrentClientsMatchDirectRunsBitExactly)
{
    const ServerOptions opts = fastServerOptions(1);
    Server server(opts);
    server.start();

    const std::vector<std::string> policies = {
        "none", "toggle1", "toggle2", "P",
        "PI",   "PID",     "throttle", "vf-scaling",
    };
    std::vector<PointReply> replies(policies.size());
    std::vector<std::thread> clients;
    clients.reserve(policies.size());
    for (std::size_t i = 0; i < policies.size(); ++i) {
        clients.emplace_back([&, i] {
            ServeClient c = ServeClient::connect(opts.unix_path);
            RunRequest req;
            req.point = fastPoint("186.crafty", policies[i]);
            replies[i] = c.run(req);
        });
    }
    for (auto &t : clients)
        t.join();

    RunProtocol proto;
    proto.warmup_cycles = 1000;
    proto.measure_cycles = 10000;
    const ExperimentRunner runner(proto);
    for (std::size_t i = 0; i < policies.size(); ++i) {
        ASSERT_EQ(replies[i].error, ServeError::None)
            << policies[i] << ": " << replies[i].message;
        SimConfig direct;
        ASSERT_TRUE(
            parseDtmPolicyKind(policies[i], direct.policy.kind));
        const RunResult expect = runner.runOne(
            specProfile("186.crafty"), direct.policy, direct);
        expectSameResult(replies[i].result, expect);
    }

    const StatsReply stats = server.statsSnapshot();
    EXPECT_EQ(stats.run_requests, policies.size());
    EXPECT_EQ(stats.points_simulated, policies.size());
    server.shutdown();
}

TEST(ServeServer, DuplicateConcurrentRequestsCoalesce)
{
    const ServerOptions opts = fastServerOptions(2);
    Server server(opts);
    server.start();

    server.scheduler().pauseDispatch();
    constexpr int kDup = 4;
    std::vector<PointReply> replies(kDup);
    std::vector<std::thread> clients;
    for (int i = 0; i < kDup; ++i) {
        clients.emplace_back([&, i] {
            ServeClient c = ServeClient::connect(opts.unix_path);
            RunRequest req;
            req.point = fastPoint("179.art", "PI");
            replies[i] = c.run(req);
        });
    }
    ASSERT_TRUE(waitFor([&] {
        return server.scheduler().stats().submitted >= kDup;
    }));
    server.scheduler().resumeDispatch();
    for (auto &t : clients)
        t.join();

    for (const auto &r : replies) {
        ASSERT_EQ(r.error, ServeError::None) << r.message;
        EXPECT_EQ(r.result.benchmark, "179.art");
    }
    const StatsReply stats = server.statsSnapshot();
    EXPECT_EQ(stats.points_submitted, std::uint64_t(kDup));
    EXPECT_EQ(stats.coalesced, std::uint64_t(kDup - 1));
    EXPECT_EQ(stats.points_simulated, 1u); // sims < requests
    server.shutdown();
}

TEST(ServeServer, FullQueueAnswersOverloadedImmediately)
{
    ServerOptions opts = fastServerOptions(3);
    opts.max_queue = 1;
    Server server(opts);
    server.start();

    server.scheduler().pauseDispatch();
    PointReply queued_reply;
    std::thread queued([&] {
        ServeClient c = ServeClient::connect(opts.unix_path);
        RunRequest req;
        req.point = fastPoint("186.crafty");
        queued_reply = c.run(req);
    });
    ASSERT_TRUE(waitFor(
        [&] { return server.scheduler().stats().submitted >= 1; }));

    // The queue slot is taken: a distinct point must bounce, not hang.
    ServeClient c = ServeClient::connect(opts.unix_path);
    RunRequest req;
    req.point = fastPoint("179.art");
    const PointReply rejected = c.run(req);
    EXPECT_EQ(rejected.error, ServeError::Overloaded);

    server.scheduler().resumeDispatch();
    queued.join();
    EXPECT_EQ(queued_reply.error, ServeError::None);
    server.shutdown();
}

TEST(ServeServer, SweepBatchesAndAnswersInGridOrder)
{
    std::filesystem::path cache_dir =
        std::filesystem::temp_directory_path()
        / ("tserve-cache-" + std::to_string(::getpid()));
    std::filesystem::remove_all(cache_dir);

    ServerOptions opts = fastServerOptions(4);
    opts.sweep.use_cache = true;
    opts.sweep.cache_dir = cache_dir.string();
    Server server(opts);
    server.start();

    ServeClient c = ServeClient::connect(opts.unix_path);
    SweepRequest req;
    req.benchmarks = {"186.crafty", "179.art"};
    req.policies = {"none", "PI"};
    req.point.warmup_cycles = 1000;
    req.point.measure_cycles = 10000;
    const SweepReply reply = c.sweep(req);

    ASSERT_EQ(reply.points.size(), 4u);
    const char *expect_bench[] = {"186.crafty", "186.crafty", "179.art",
                                  "179.art"};
    const char *expect_policy[] = {"none", "PI", "none", "PI"};
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(reply.points[i].error, ServeError::None)
            << reply.points[i].message;
        EXPECT_EQ(reply.points[i].result.benchmark, expect_bench[i]);
        EXPECT_EQ(reply.points[i].result.policy, expect_policy[i]);
        EXPECT_FALSE(reply.points[i].cache_hit);
    }

    // Read-through cache: the same grid again is served without
    // simulation, and a cache probe confirms the entries exist.
    const SweepReply again = c.sweep(req);
    for (const auto &p : again.points)
        EXPECT_TRUE(p.cache_hit);

    CacheQueryRequest probe;
    probe.point = fastPoint("186.crafty", "PI");
    const CacheQueryReply probed = c.cacheQuery(probe);
    EXPECT_TRUE(probed.cached);
    EXPECT_NE(probed.digest, 0u);

    CacheQueryRequest miss;
    miss.point = fastPoint("300.twolf", "PID");
    EXPECT_FALSE(c.cacheQuery(miss).cached);

    server.shutdown();
    std::filesystem::remove_all(cache_dir);
}

TEST(ServeServer, UnknownNamesComeBackAsBadRequest)
{
    const ServerOptions opts = fastServerOptions(5);
    Server server(opts);
    server.start();

    ServeClient c = ServeClient::connect(opts.unix_path);
    RunRequest req;
    req.point = fastPoint("186.crafty", "warp-drive");
    const PointReply reply = c.run(req);
    EXPECT_EQ(reply.error, ServeError::BadRequest);
    EXPECT_NE(reply.message.find("warp-drive"), std::string::npos);
    server.shutdown();
}

TEST(ServeServer, UnsupportedMulticorePolicyIsABadRequest)
{
    const ServerOptions opts = fastServerOptions(21);
    Server server(opts);
    server.start();

    ServeClient c = ServeClient::connect(opts.unix_path);
    RunRequest req;
    req.point = fastPoint("186.crafty", "toggle1");
    req.point.num_cores = 2;
    const PointReply reply = c.run(req);
    EXPECT_EQ(reply.error, ServeError::BadRequest) << reply.message;
    EXPECT_NE(reply.message.find("multicore engine"), std::string::npos)
        << reply.message;
    EXPECT_EQ(c.stats().points_simulated, 0u);
    server.shutdown();
}

TEST(ServeServer, ForeignWireVersionGetsTypedRejection)
{
    const ServerOptions opts = fastServerOptions(6);
    Server server(opts);
    server.start();

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    std::string frame = encodeFrame(MsgType::StatsRequest, "");
    frame[4] = char(kWireVersion + 1); // a future protocol revision
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              ssize_t(frame.size()));

    MsgType type;
    std::string payload;
    ASSERT_EQ(readFrame(fd, type, payload), ReadStatus::Ok);
    ASSERT_EQ(type, MsgType::ErrorReply);
    ErrorReply err;
    ASSERT_TRUE(ErrorReply::decode(payload, err));
    EXPECT_EQ(err.code, ServeError::VersionMismatch);
    ::close(fd);
    server.shutdown();
}

TEST(ServeServer, MalformedBytesGetTypedErrorThenCloseAndServerSurvives)
{
    const ServerOptions opts = fastServerOptions(14);
    Server server(opts);
    server.start();

    // Regression: flushing the courtesy error reply inline used to
    // destroy the Conn while readReady/eventLoop still held a
    // reference to it (use-after-free on any malformed client).
    const int fd = rawConnect(opts.unix_path);
    ASSERT_GE(fd, 0);
    const std::string garbage = "definitely not a TSRV frame";
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
              ssize_t(garbage.size()));

    MsgType type;
    std::string payload;
    ASSERT_EQ(readFrame(fd, type, payload), ReadStatus::Ok);
    ASSERT_EQ(type, MsgType::ErrorReply);
    ErrorReply err;
    ASSERT_TRUE(ErrorReply::decode(payload, err));
    EXPECT_EQ(err.code, ServeError::BadRequest);

    // Framing is unrecoverable: the server closes after the reply.
    char byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);
    ASSERT_TRUE(waitFor([&] {
        return server.statsSnapshot().active_connections == 0;
    }));

    // The event loop survived; a fresh connection is fully served.
    ServeClient c = ServeClient::connect(opts.unix_path);
    RunRequest req;
    req.point = fastPoint();
    EXPECT_EQ(c.run(req).error, ServeError::None);
    server.shutdown();
}

TEST(ServeServer, PeerHangupDuringExecutionDropsReplyAndCloses)
{
    const ServerOptions opts = fastServerOptions(15);
    Server server(opts);
    server.start();

    // Regression: POLLHUP on a busy connection (event mask 0) was
    // reported on every poll round and never consumed, so the loop
    // busy-spun until the completion arrived.
    server.scheduler().pauseDispatch();
    const int fd = rawConnect(opts.unix_path);
    ASSERT_GE(fd, 0);
    RunRequest req;
    req.point = fastPoint();
    const std::string frame =
        encodeFrame(MsgType::RunRequest, req.encode());
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              ssize_t(frame.size()));
    ASSERT_TRUE(waitFor(
        [&] { return server.scheduler().stats().submitted >= 1; }));
    ASSERT_EQ(server.statsSnapshot().active_connections, 1u);

    ::close(fd); // hang up while the request executes

    // The loop must park the fd, not spin on the perpetual POLLHUP:
    // ~300 ms hung-up-while-busy should cost ~0 process CPU (every
    // other thread is blocked on a condvar or future here).
    rusage before{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    rusage after{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
    auto cpuMs = [](const rusage &r) {
        return double(r.ru_utime.tv_sec + r.ru_stime.tv_sec) * 1000.0
               + double(r.ru_utime.tv_usec + r.ru_stime.tv_usec)
                     / 1000.0;
    };
    EXPECT_LT(cpuMs(after) - cpuMs(before), 150.0);

    server.scheduler().resumeDispatch();

    // The late completion is dropped and the connection reaped.
    ASSERT_TRUE(waitFor([&] {
        return server.statsSnapshot().active_connections == 0;
    }));

    // The server stays healthy for new clients.
    ServeClient c = ServeClient::connect(opts.unix_path);
    RunRequest ok;
    ok.point = fastPoint("179.art");
    EXPECT_EQ(c.run(ok).error, ServeError::None);
    server.shutdown();
}

TEST(ServeScheduler, OverloadedRepliesCarryRetryAfterHint)
{
    Scheduler::Options opts = fastSchedOptions();
    opts.max_queue = 1;
    Scheduler sched(opts);

    sched.pauseDispatch();
    Scheduler::Ticket queued =
        sched.submit(resolvePoint(fastPoint("186.crafty"), {}), 0);
    Scheduler::Ticket rejected =
        sched.submit(resolvePoint(fastPoint("179.art"), {}), 0);
    ASSERT_TRUE(rejected.rejected);

    const Scheduler::OutcomePtr oc = rejected.future.get();
    EXPECT_EQ(oc->error, ServeError::Overloaded);
    // The server-computed backoff hint is present and sane; the retry
    // policy (serve/retry.hh) floors its next sleep on it.
    EXPECT_GE(oc->retry_after_ms, 25u);
    EXPECT_LE(oc->retry_after_ms, 5000u);

    sched.resumeDispatch();
    EXPECT_EQ(queued.future.get()->error, ServeError::None);
    sched.awaitIdle();
}

#if defined(THERMCTL_FAULTS_ENABLED) && THERMCTL_FAULTS_ENABLED

namespace
{

/** Disarm on scope exit so a failing test never poisons the rest. */
struct ScopedDisarm
{
    ~ScopedDisarm() { fault::FaultInjector::instance().disarm(); }
};

} // namespace

TEST(ServeScheduler, WatchdogFailsStalledDispatchWithTypedError)
{
    ScopedDisarm guard;
    Scheduler::Options opts = fastSchedOptions();
    opts.watchdog_ms = 50;
    Scheduler sched(opts);

    fault::FaultInjector::instance().arm(
        fault::FaultPlan::parse("sched.batch=stall:ms=800:max=1"));

    Scheduler::Ticket t = sched.submit(resolvePoint(fastPoint(), {}), 0);
    const Scheduler::OutcomePtr oc = t.future.get();
    EXPECT_EQ(oc->error, ServeError::Stalled);
    EXPECT_NE(oc->message.find("no progress"), std::string::npos);

    // The injected stall is finite: the batch completes underneath,
    // its late result is dropped (the client already has the typed
    // error), and idle/drain do not hang.
    sched.awaitIdle();
    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.stalled, 1u);
    EXPECT_EQ(s.simulated, 0u); // late result never counted as success
}

TEST(ServeScheduler, OneEngineCallPerBatch)
{
    ScopedDisarm guard;
    Scheduler sched(fastSchedOptions());
    sched.pauseDispatch();
    Scheduler::Ticket a =
        sched.submit(resolvePoint(fastPoint("186.crafty", "none"), {}), 0);
    Scheduler::Ticket b =
        sched.submit(resolvePoint(fastPoint("186.crafty", "PI"), {}), 0);

    // sched.batch is probed once per engine call.
    fault::FaultInjector::instance().arm(
        fault::FaultPlan::parse("sched.batch=stall:ms=1"));
    sched.resumeDispatch();
    EXPECT_EQ(a.future.get()->error, ServeError::None);
    EXPECT_EQ(b.future.get()->error, ServeError::None);
    sched.awaitIdle();
    EXPECT_EQ(fault::FaultInjector::instance().firedCount(), 1u);
}

TEST(ServeServer, ShortWritesAndInterruptedReadsStillDeliverExactly)
{
    ScopedDisarm guard;
    const ServerOptions opts = fastServerOptions(8);
    Server server(opts);
    server.start();

    // Every socket write trickles out one byte per send(); every third
    // read attempt is interrupted first. The framing layer must absorb
    // both without corrupting a single bit of the reply.
    fault::FaultInjector::instance().arm(fault::FaultPlan::parse(
        "serve.sock.write=short;serve.sock.read=eintr:every=3"));

    ServeClient c = ServeClient::connect(opts.unix_path);
    RunRequest req;
    req.point = fastPoint("186.crafty", "PI");
    const PointReply reply = c.run(req);
    fault::FaultInjector::instance().disarm();

    ASSERT_EQ(reply.error, ServeError::None) << reply.message;
    RunProtocol proto;
    proto.warmup_cycles = 1000;
    proto.measure_cycles = 10000;
    SimConfig direct;
    ASSERT_TRUE(parseDtmPolicyKind("PI", direct.policy.kind));
    const RunResult expect = ExperimentRunner(proto).runOne(
        specProfile("186.crafty"), direct.policy, direct);
    expectSameResult(reply.result, expect);
    server.shutdown();
}

TEST(ServeServer, AbortedConnectionComesBackAsTypedTransport)
{
    ScopedDisarm guard;
    const ServerOptions opts = fastServerOptions(9);
    Server server(opts);
    server.start();

    ServeClient c = ServeClient::connect(opts.unix_path);
    // The server aborts its first read of the request: the client sees
    // a broken connection — a typed Transport reply, not process death.
    fault::FaultInjector::instance().arm(
        fault::FaultPlan::parse("serve.sock.read=abort:max=1"));
    RunRequest req;
    req.point = fastPoint("186.crafty", "none");
    const PointReply broken = c.run(req);
    fault::FaultInjector::instance().disarm();
    EXPECT_EQ(broken.error, ServeError::Transport);

    // A fresh connection works again (the server survived the abort).
    ServeClient c2 = ServeClient::connect(opts.unix_path);
    EXPECT_EQ(c2.run(req).error, ServeError::None);
    server.shutdown();
}

#endif // THERMCTL_FAULTS_ENABLED

TEST(ServeServer, DrainCompletesInflightThenRefusesNewWork)
{
    const ServerOptions opts = fastServerOptions(7);
    Server server(opts);
    server.start();

    server.scheduler().pauseDispatch();
    PointReply inflight_reply;
    std::thread inflight([&] {
        ServeClient c = ServeClient::connect(opts.unix_path);
        RunRequest req;
        req.point = fastPoint("186.crafty", "PI");
        inflight_reply = c.run(req);
    });
    ASSERT_TRUE(waitFor(
        [&] { return server.scheduler().stats().submitted >= 1; }));

    {
        ServeClient c = ServeClient::connect(opts.unix_path);
        EXPECT_FALSE(c.drain()); // first drain request
    }
    ASSERT_TRUE(waitFor([&] { return server.drainRequested(); }));

    // The admitted request still completes with a real result.
    inflight.join();
    EXPECT_EQ(inflight_reply.error, ServeError::None)
        << inflight_reply.message;
    EXPECT_EQ(inflight_reply.result.benchmark, "186.crafty");

    // New work is refused with the typed Draining error.
    Scheduler::Ticket late = server.scheduler().submit(
        resolvePoint(fastPoint("179.art"), {}), 0);
    EXPECT_TRUE(late.rejected);
    EXPECT_EQ(late.future.get()->error, ServeError::Draining);

    server.shutdown();
}

// ----------------------------------------------- incremental framing

TEST(FrameAssembler, ByteAtATimeFeedYieldsTheFrameOnce)
{
    const std::string frame = encodeFrame(MsgType::StatsRequest, "");
    FrameAssembler fa;
    MsgType type;
    std::string payload;
    for (char b : frame) {
        ASSERT_EQ(fa.next(type, payload), FrameAssembler::Next::NeedMore);
        fa.feed(std::string_view(&b, 1));
    }
    ASSERT_EQ(fa.next(type, payload), FrameAssembler::Next::Frame);
    EXPECT_EQ(type, MsgType::StatsRequest);
    EXPECT_TRUE(payload.empty());
    EXPECT_EQ(fa.next(type, payload), FrameAssembler::Next::NeedMore);
}

TEST(FrameAssembler, OneBurstCanCarryManyFrames)
{
    RunRequest req;
    req.point = fastPoint();
    std::string burst = encodeFrame(MsgType::RunRequest, req.encode());
    burst += encodeFrame(MsgType::StatsRequest, "");
    burst += encodeFrame(MsgType::DrainRequest, "");

    FrameAssembler fa;
    fa.feed(burst);
    MsgType type;
    std::string payload;
    ASSERT_EQ(fa.next(type, payload), FrameAssembler::Next::Frame);
    EXPECT_EQ(type, MsgType::RunRequest);
    RunRequest round;
    ASSERT_TRUE(RunRequest::decode(payload, round));
    EXPECT_EQ(round.point.benchmark, req.point.benchmark);
    ASSERT_EQ(fa.next(type, payload), FrameAssembler::Next::Frame);
    EXPECT_EQ(type, MsgType::StatsRequest);
    ASSERT_EQ(fa.next(type, payload), FrameAssembler::Next::Frame);
    EXPECT_EQ(type, MsgType::DrainRequest);
    EXPECT_EQ(fa.next(type, payload), FrameAssembler::Next::NeedMore);
}

TEST(FrameAssembler, BadMagicIsSticky)
{
    FrameAssembler fa;
    fa.feed("XXXXXXXXXXXX");
    MsgType type;
    std::string payload;
    FrameStatus why = FrameStatus::Ok;
    ASSERT_EQ(fa.next(type, payload, &why), FrameAssembler::Next::Bad);
    EXPECT_EQ(why, FrameStatus::BadMagic);
    // Even valid bytes afterwards cannot resynchronize the stream.
    fa.feed(encodeFrame(MsgType::StatsRequest, ""));
    EXPECT_EQ(fa.next(type, payload, &why), FrameAssembler::Next::Bad);
}

// --------------------------------------------- event-core edge cases

TEST(ServeServer, SlowReaderTricklingOneByteGetsAnIntactReply)
{
    ServerOptions opts = fastServerOptions(10);
    opts.sndbuf = 1; // kernel clamps to its minimum: forces EAGAIN
    Server server(opts);
    server.start();

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    // Shrink the receive window too so the reply cannot fit in kernel
    // buffers and the server must take the POLLOUT partial-write path.
    const int tiny = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));

    // A 12-point grid makes the encoded reply far larger than the
    // minimum kernel send buffer, so it cannot flush in one send().
    SweepRequest req;
    req.benchmarks = {"186.crafty", "179.art"};
    req.policies = {"none", "toggle1", "toggle2", "P", "PI", "PID"};
    req.point.warmup_cycles = 1000;
    req.point.measure_cycles = 10000;
    const std::string frame =
        encodeFrame(MsgType::SweepRequest, req.encode());
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
              ssize_t(frame.size()));

    // Read the reply one byte at a time, pausing every so often, so the
    // server's write buffer drains in dribbles across many loop turns.
    FrameAssembler fa;
    MsgType type = MsgType::ErrorReply;
    std::string payload;
    FrameAssembler::Next what = FrameAssembler::Next::NeedMore;
    std::size_t reads = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (what == FrameAssembler::Next::NeedMore) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        char b;
        const ssize_t n = ::recv(fd, &b, 1, 0);
        ASSERT_GT(n, 0) << "connection broke mid-reply";
        fa.feed(std::string_view(&b, 1));
        if (++reads % 512 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        what = fa.next(type, payload);
    }
    ASSERT_EQ(what, FrameAssembler::Next::Frame);
    ASSERT_EQ(type, MsgType::SweepReply);
    SweepReply reply;
    ASSERT_TRUE(SweepReply::decode(payload, reply));
    ASSERT_EQ(reply.points.size(), 12u);
    for (const auto &p : reply.points)
        EXPECT_EQ(p.error, ServeError::None) << p.message;
    ::close(fd);
    server.shutdown();
}

TEST(ServeServer, WriteBufferBackpressureParksANonReadingPeer)
{
    ServerOptions opts = fastServerOptions(11);
    opts.sndbuf = 1;            // minimal kernel-side reply buffering
    opts.max_write_buffer = 1024; // tiny high water: trip it early
    Server server(opts);
    server.start();

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // Pipeline a burst of requests and read NOTHING: replies must pile
    // up against the high water, not into unbounded server memory.
    constexpr std::uint64_t kBurst = 25;
    RunRequest req;
    req.point = fastPoint("186.crafty", "none");
    const std::string frame =
        encodeFrame(MsgType::RunRequest, req.encode());
    std::string burst;
    for (std::uint64_t i = 0; i < kBurst; ++i)
        burst += frame;
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              ssize_t(burst.size()));

    // Execution stalls once the unread replies cross the high water.
    // Requests run serially (one outstanding per connection), so the
    // counter also holds still *between* executions — only a sustained
    // quiet period, much longer than one simulation, is a real park.
    std::uint64_t plateau = 0;
    auto changed_at = std::chrono::steady_clock::now();
    ASSERT_TRUE(waitFor([&] {
        const std::uint64_t now = server.statsSnapshot().requests_total;
        if (now != plateau) {
            plateau = now;
            changed_at = std::chrono::steady_clock::now();
            return false;
        }
        return now > 0
               && std::chrono::steady_clock::now() - changed_at
                      > std::chrono::milliseconds(1500);
    }, 30000));
    EXPECT_EQ(server.statsSnapshot().requests_total, plateau);
    EXPECT_LT(plateau, kBurst);

    // Start reading: the backlog drains and every reply arrives intact.
    FrameAssembler fa;
    std::uint64_t got = 0;
    char buf[4096];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (got < kBurst) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "connection broke mid-drain";
        fa.feed(std::string_view(buf, std::size_t(n)));
        for (;;) {
            MsgType type;
            std::string payload;
            if (fa.next(type, payload) != FrameAssembler::Next::Frame)
                break;
            ASSERT_EQ(type, MsgType::RunReply);
            RunReply reply;
            ASSERT_TRUE(RunReply::decode(payload, reply));
            EXPECT_EQ(reply.point.error, ServeError::None)
                << reply.point.message;
            got++;
        }
    }
    EXPECT_EQ(got, kBurst);
    EXPECT_EQ(server.statsSnapshot().requests_total, kBurst);
    ::close(fd);
    server.shutdown();
}

TEST(ServeServer, IdleConnectionsAreEvictedOnTimeout)
{
    ServerOptions opts = fastServerOptions(12);
    opts.idle_timeout_ms = 150;
    Server server(opts);
    server.start();

    ServeClient c = ServeClient::connect(opts.unix_path);
    RunRequest req;
    req.point = fastPoint("186.crafty", "none");
    ASSERT_EQ(c.run(req).error, ServeError::None);

    // Go quiet: the loop must evict us without any traffic.
    ASSERT_TRUE(waitFor([&] { return server.idleEvicted() >= 1; }));
    ASSERT_TRUE(waitFor(
        [&] { return server.statsSnapshot().active_connections == 0; }));

    // The evicted socket is dead for the client...
    EXPECT_EQ(c.run(req).error, ServeError::Transport);
    // ...and a fresh connection works (eviction, not shutdown).
    ServeClient c2 = ServeClient::connect(opts.unix_path);
    EXPECT_EQ(c2.run(req).error, ServeError::None);
    server.shutdown();
}

// ------------------------------------------------ redesigned surface

TEST(ServeOptions, SchedulerSliceCarriesEveryKnob)
{
    ServerOptions opts;
    opts.sweep.use_cache = true;
    opts.sweep.cache_dir = "/tmp/cache";
    opts.sweep.jobs = 3;
    opts.max_queue = 99;
    opts.dispatchers = 5;
    opts.batch_window_ms = 11;
    opts.watchdog_ms = 2200;

    const Scheduler::Options sched = opts.schedulerOptions();
    EXPECT_EQ(sched.max_queue, 99u);
    EXPECT_EQ(sched.dispatchers, 5u);
    EXPECT_EQ(sched.batch_window_ms, 11u);
    EXPECT_EQ(sched.watchdog_ms, 2200u);
    EXPECT_TRUE(sched.sweep.use_cache);
    EXPECT_EQ(sched.sweep.cache_dir, "/tmp/cache");
    EXPECT_EQ(sched.sweep.jobs, 3u);
}

TEST(ServeClient, OneClientServesDataAndControlPlanesAlike)
{
    const ServerOptions opts = fastServerOptions(13);
    Server server(opts);
    server.start();

    BackoffConfig single;
    single.max_attempts = 1;
    ServeClient client("unix:" + opts.unix_path, single);
    EXPECT_FALSE(client.connected()); // dials on first use

    RunRequest req;
    req.point = fastPoint("186.crafty", "PI");
    const PointReply viaEndpoint = client.run(req);
    ASSERT_EQ(viaEndpoint.error, ServeError::None) << viaEndpoint.message;

    ServeClient direct = ServeClient::connect(opts.unix_path);
    const PointReply viaDirect = direct.run(req);
    ASSERT_EQ(viaDirect.error, ServeError::None);
    expectSameResult(viaEndpoint.result, viaDirect.result);

    const StatsReply stats = client.stats();
    EXPECT_GE(stats.run_requests, 2u);
    EXPECT_EQ(client.attemptsTotal(), 1u);
    server.shutdown();
}

TEST(ServeClient, SingleAttemptReportsTransportWithoutSleeping)
{
    BackoffConfig single;
    single.max_attempts = 1;
    ServeClient client("unix:/nonexistent/thermctl-test.sock", single);

    const auto t0 = std::chrono::steady_clock::now();
    RunRequest req;
    req.point = fastPoint();
    const PointReply reply = client.run(req);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(reply.error, ServeError::Transport);
    EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0);
    EXPECT_EQ(client.attemptsTotal(), 1u);

    // The control plane is strict: a transport failure is fatal, and
    // it is not counted as a data-plane attempt.
    EXPECT_THROW((void)client.stats(), FatalError);
    EXPECT_EQ(client.attemptsTotal(), 1u);
}

TEST(ServeClient, RejectsMalformedTcpPortsOnBothConnectPaths)
{
    // std::stoi used to read "80x" as port 80 and let 0 / 70000
    // through to getaddrinfo.
    for (const char *port : {"80x", "0", "70000", "-1", ""}) {
        const std::string endpoint = std::string("tcp:127.0.0.1:") + port;
        EXPECT_THROW((void)ServeClient::connect(endpoint), FatalError)
            << endpoint;
        std::string error;
        const ServeClient c = ServeClient::tryConnect(endpoint, 100, error);
        EXPECT_FALSE(c.connected()) << endpoint;
        EXPECT_NE(error.find("bad tcp port"), std::string::npos)
            << endpoint << ": " << error;
        error.clear();
        EXPECT_EQ(dial(endpoint, 0, error), -1) << endpoint;
        EXPECT_NE(error.find("bad tcp port"), std::string::npos) << error;
    }
}

TEST(ServeClient, RecvTimeoutHoldsAcrossReconnects)
{
    // A listener that queues connections but never accepts or answers:
    // every request stalls until the client's receive timeout fires.
    const std::string path = testSocketPath(20);
    ::unlink(path.c_str());
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 8), 0);
    // Should the timeout be lost, closing the listener resets the
    // stalled connection, so the test fails on its timing check
    // instead of hanging.
    std::atomic<bool> done{false};
    std::thread watchdog([&] {
        waitFor([&] { return done.load(); }, 5000);
        ::close(lfd);
    });

    BackoffConfig single;
    single.max_attempts = 1;
    ServeClient client("unix:" + path, single);
    client.setRecvTimeout(150); // set before the first dial
    RunRequest req;
    req.point = fastPoint();
    for (int call = 0; call < 2; ++call) {
        const auto t0 = std::chrono::steady_clock::now();
        const PointReply reply = client.run(req);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        EXPECT_EQ(reply.error, ServeError::Transport) << "call " << call;
        EXPECT_GE(s, 0.1) << "call " << call;
        EXPECT_LT(s, 2.0) << "call " << call << ": timeout not applied";
        // The stalled socket is dropped; the next call redials.
        EXPECT_FALSE(client.connected());
    }
    EXPECT_EQ(client.attemptsTotal(), 2u);
    done = true;
    watchdog.join();
    ::unlink(path.c_str());
}

// ------------------------------------------------------- ping (wire v4)

TEST(ServeProtocol, PingFramesRoundTrip)
{
    EXPECT_TRUE(msgTypeValid(
        static_cast<std::uint8_t>(MsgType::PingRequest)));
    EXPECT_TRUE(
        msgTypeValid(static_cast<std::uint8_t>(MsgType::PingReply)));

    PingRequest req;
    PingRequest req_out;
    EXPECT_TRUE(req.encode().empty());
    EXPECT_TRUE(PingRequest::decode(req.encode(), req_out));

    PingReply pong;
    pong.draining = true;
    pong.queue_depth = 42;
    pong.stalled = 3;
    PingReply out;
    ASSERT_TRUE(PingReply::decode(pong.encode(), out));
    EXPECT_EQ(out.version, kWireVersion);
    EXPECT_TRUE(out.draining);
    EXPECT_EQ(out.queue_depth, 42u);
    EXPECT_EQ(out.stalled, 3u);
    // Canonical form: decode -> encode is bit-stable.
    EXPECT_EQ(out.encode(), pong.encode());
}

TEST(ServeProtocol, PingDecodersRejectHostileBytes)
{
    // A PingRequest carries no payload; trailing bytes are an error,
    // not ignorable slack (strict decoders keep the fuzz surface flat).
    PingRequest req_out;
    EXPECT_FALSE(PingRequest::decode(std::string_view("\x00", 1),
                                     req_out));
    EXPECT_FALSE(PingRequest::decode("garbage", req_out));

    PingReply pong;
    pong.queue_depth = 7;
    const std::string bytes = pong.encode();
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        PingReply out;
        EXPECT_FALSE(PingReply::decode(bytes.substr(0, n), out))
            << "accepted truncated PingReply of " << n << " bytes";
    }
    // Non-boolean draining byte must be rejected outright.
    std::string bad = bytes;
    bad[1] = '\x02';
    PingReply out;
    EXPECT_FALSE(PingReply::decode(bad, out));
    // Trailing garbage after a well-formed reply is rejected too.
    PingReply trail_out;
    EXPECT_FALSE(PingReply::decode(bytes + "x", trail_out));
}

TEST(ServeServer, PingReportsVersionDrainAndQueueDepth)
{
    const ServerOptions opts = fastServerOptions(16);
    Server server(opts);
    server.start();

    ServeClient client = ServeClient::connect(opts.unix_path);
    PingReply pong;
    std::string error;
    ASSERT_TRUE(client.ping(pong, error)) << error;
    EXPECT_EQ(pong.version, kWireVersion);
    EXPECT_FALSE(pong.draining);
    EXPECT_EQ(pong.stalled, 0u);

    // Park a request on a paused scheduler: the probe must see the
    // queue depth without getting stuck behind the parked work (pings
    // answer from connection threads, not scheduler workers).
    server.scheduler().pauseDispatch();
    std::thread parked([&] {
        ServeClient c = ServeClient::connect(opts.unix_path);
        RunRequest req;
        req.point = fastPoint("179.art", "PI");
        (void)c.run(req);
    });
    ASSERT_TRUE(waitFor(
        [&] { return server.scheduler().stats().queue_depth > 0; }));
    ASSERT_TRUE(client.ping(pong, error)) << error;
    EXPECT_GE(pong.queue_depth, 1u);
    server.scheduler().resumeDispatch();
    parked.join();

    // Once drain starts the server stops reading and closes idle
    // connections, so a probe fails fast with a transport error rather
    // than hanging — exactly the signal a coordinator quarantines on.
    {
        ServeClient c = ServeClient::connect(opts.unix_path);
        (void)c.drain();
    }
    ASSERT_TRUE(waitFor([&] { return server.drainRequested(); }));
    EXPECT_FALSE(client.ping(pong, error));
    EXPECT_FALSE(error.empty());
    server.shutdown();
}

TEST(ServeServer, SweepCarriesMulticoreKnobsToEveryPoint)
{
    // Regression: the server's SweepRequest fan-out dropped the
    // multicore knobs (num_cores/coupling_r/chip_budget/budget_policy),
    // silently simulating single-core points. The sweep path and the
    // run path must agree bit-for-bit on a multicore spec.
    const ServerOptions opts = fastServerOptions(17);
    Server server(opts);
    server.start();

    PointSpec spec = fastPoint("186.crafty", "PI");
    spec.num_cores = 2;
    spec.chip_budget = 45.0;
    spec.budget_policy = 1; // demand-proportional

    ServeClient client = ServeClient::connect(opts.unix_path);
    RunRequest run_req;
    run_req.point = spec;
    const PointReply via_run = client.run(run_req);
    ASSERT_EQ(via_run.error, ServeError::None) << via_run.message;

    SweepRequest sweep_req;
    sweep_req.benchmarks = {spec.benchmark};
    sweep_req.policies = {spec.policy};
    sweep_req.point = spec;
    const SweepReply via_sweep = client.sweep(sweep_req);
    ASSERT_EQ(via_sweep.points.size(), 1u);
    ASSERT_EQ(via_sweep.points[0].error, ServeError::None)
        << via_sweep.points[0].message;

    EXPECT_EQ(serializeRunResult(via_sweep.points[0].result),
              serializeRunResult(via_run.result));
    server.shutdown();
}

TEST(ServeServer, ShutdownWithoutBusyConnectionsReturnsPromptly)
{
    using Clock = std::chrono::steady_clock;
    const auto shutdownMs = [](Server &server) {
        // Let the event loop block in poll() first: the stall needed a
        // drain wake-up to land in an iteration that polled before it.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        const auto t0 = Clock::now();
        server.shutdown();
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   Clock::now() - t0)
            .count();
    };

    // No connection at all: nothing to flush, so no flush budget to
    // wait out (drain_flush_ms defaults to 5 s).
    {
        Server server(fastServerOptions(18));
        server.start();
        EXPECT_LT(shutdownMs(server), 500);
    }
    // An idle connection owes no reply: it closes at once as well.
    {
        const ServerOptions opts = fastServerOptions(19);
        Server server(opts);
        server.start();
        const int fd = rawConnect(opts.unix_path);
        ASSERT_GE(fd, 0);
        EXPECT_LT(shutdownMs(server), 500);
        ::close(fd);
    }
}
