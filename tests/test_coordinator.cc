/**
 * @file
 * Coordinator (thermctl-flock) tests: option validation, grid
 * expansion order, sharded runs checked bit-identical against direct
 * ExperimentRunner executions, digest coalescing of duplicate points,
 * run() returning at settlement rather than at the next probe, bounded
 * settlement against dead endpoints, failover from a dead
 * worker to live ones, and injected dispatch/collect faults retried
 * to completion. The full kill -9 / stall soak lives in the chaos
 * harness (tests/chaos) and check.sh cluster-smoke.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "serve/coordinator.hh"
#include "serve/server.hh"
#include "sim/experiment.hh"
#include "sim/policy_factory.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

/** Unique short Unix socket path (sun_path is tiny). */
std::string
coordSocketPath(int idx)
{
    return "/tmp/tcoord-" + std::to_string(::getpid()) + "-"
           + std::to_string(idx) + ".sock";
}

ServerOptions
fastServerOptions(int sock_idx)
{
    ServerOptions o;
    o.unix_path = coordSocketPath(sock_idx);
    o.sweep.use_cache = false;
    o.sweep.jobs = 4;
    o.dispatchers = 1;
    o.workers = 4;
    // The coordinator's prober may leave a probe connection behind;
    // don't let shutdown wait the full default drain window for it.
    o.drain_flush_ms = 100;
    return o;
}

/** Small fast grid: benchmarks outer, policies inner. */
std::vector<PointSpec>
fastGrid(const std::vector<std::string> &benches,
         const std::vector<std::string> &policies)
{
    SweepRequest grid;
    grid.benchmarks = benches;
    grid.policies = policies;
    grid.point.warmup_cycles = 1000;
    grid.point.measure_cycles = 10000;
    return grid.points();
}

/** Coordinator options tuned for tests: short leases, fast probes. */
CoordinatorOptions
fastCoordOptions(std::vector<std::string> endpoints)
{
    CoordinatorOptions o;
    o.endpoints = std::move(endpoints);
    o.lease_ms = 10000;
    o.connect_timeout_ms = 200;
    o.probe_interval_ms = 50;
    o.quarantine_ms = 200;
    return o;
}

/** Direct single-process reference for one point (the ground truth). */
RunResult
directRun(const PointSpec &p)
{
    RunProtocol proto;
    proto.warmup_cycles = p.warmup_cycles;
    proto.measure_cycles = p.measure_cycles;
    SimConfig config;
    if (!parseDtmPolicyKind(p.policy, config.policy.kind))
        fatal("unknown policy in test grid: ", p.policy);
    return ExperimentRunner(proto).runOne(specProfile(p.benchmark),
                                          config.policy, config);
}

} // namespace

// ------------------------------------------------------------ options

TEST(CoordinatorOptions, ValidateRejectsNonsense)
{
    CoordinatorOptions ok;
    ok.endpoints = {"unix:/tmp/x.sock"};
    EXPECT_NO_THROW(ok.validate());

    CoordinatorOptions bad = ok;
    bad.endpoints.clear();
    EXPECT_THROW(bad.validate(), FatalError);

    bad = ok;
    bad.lease_ms = 0;
    EXPECT_THROW(bad.validate(), FatalError);

    bad = ok;
    bad.probe_interval_ms = 0;
    EXPECT_THROW(bad.validate(), FatalError);

    bad = ok;
    bad.max_point_attempts = 0;
    EXPECT_THROW(bad.validate(), FatalError);

    bad = ok;
    bad.unhealthy_after = 0;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(CoordinatorOptions, HealthNamesArePrintable)
{
    EXPECT_STREQ(workerHealthName(WorkerHealth::Healthy), "healthy");
    EXPECT_STREQ(workerHealthName(WorkerHealth::Unhealthy), "unhealthy");
    EXPECT_STREQ(workerHealthName(WorkerHealth::Quarantined),
                 "quarantined");
}

// ------------------------------------------------------------- report

TEST(CoordinatorReport, CompleteAndMissingKeysAgree)
{
    CoordinatorReport report;
    CoordPointOutcome done;
    done.key = "186.crafty/none";
    done.reply.error = ServeError::None;
    CoordPointOutcome missing;
    missing.key = "179.art/PI";
    missing.reply.error = ServeError::Transport;
    report.outcomes = {done, missing};

    EXPECT_FALSE(report.complete());
    const auto keys = report.missingKeys();
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0], "179.art/PI");

    report.outcomes[1].reply.error = ServeError::None;
    EXPECT_TRUE(report.complete());
    EXPECT_TRUE(report.missingKeys().empty());
}

// ------------------------------------------------- sharded execution

TEST(Coordinator, ShardedRunMatchesDirectRunsBitExactly)
{
    Server a(fastServerOptions(1));
    Server b(fastServerOptions(2));
    a.start();
    b.start();

    const auto grid =
        fastGrid({"186.crafty", "179.art"}, {"none", "PI"});
    Coordinator coord(fastCoordOptions(
        {"unix:" + coordSocketPath(1), "unix:" + coordSocketPath(2)}));
    const CoordinatorReport report = coord.run(grid);

    ASSERT_TRUE(report.complete());
    ASSERT_EQ(report.outcomes.size(), grid.size());
    std::uint64_t completed = 0;
    for (const CoordWorkerStats &w : report.workers)
        completed += w.completed;
    EXPECT_GE(completed, grid.size());

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const CoordPointOutcome &out = report.outcomes[i];
        EXPECT_EQ(out.spec.benchmark, grid[i].benchmark);
        EXPECT_EQ(out.spec.policy, grid[i].policy);
        EXPECT_EQ(out.key, grid[i].benchmark + "/" + grid[i].policy);
        EXPECT_FALSE(out.worker.empty());
        // Bit-identical to a direct single-process execution.
        EXPECT_EQ(serializeRunResult(out.reply.result),
                  serializeRunResult(directRun(grid[i])))
            << out.key;
    }

    a.shutdown();
    b.shutdown();
}

TEST(Coordinator, DuplicateGridPointsCoalesceByDigest)
{
    Server server(fastServerOptions(3));
    server.start();

    // The same point three times plus one distinct point: the digest
    // map must collapse the triplicate into one dispatch while the
    // report still answers every requested point, in request order.
    std::vector<PointSpec> grid = fastGrid({"186.crafty"}, {"none"});
    grid.push_back(grid[0]);
    grid.push_back(grid[0]);
    auto extra = fastGrid({"186.crafty"}, {"PI"});
    grid.push_back(extra[0]);

    Coordinator coord(
        fastCoordOptions({"unix:" + coordSocketPath(3)}));
    const CoordinatorReport report = coord.run(grid);

    ASSERT_TRUE(report.complete());
    ASSERT_EQ(report.outcomes.size(), 4u);
    EXPECT_EQ(report.outcomes[0].digest, report.outcomes[1].digest);
    EXPECT_EQ(report.outcomes[0].digest, report.outcomes[2].digest);
    EXPECT_NE(report.outcomes[0].digest, report.outcomes[3].digest);
    EXPECT_EQ(
        serializeRunResult(report.outcomes[0].reply.result),
        serializeRunResult(report.outcomes[1].reply.result));

    // Coalescing means only two distinct digests were ever dispatched.
    std::uint64_t dispatched = 0;
    for (const CoordWorkerStats &w : report.workers)
        dispatched += w.dispatched;
    EXPECT_GE(dispatched, 2u);
    EXPECT_LE(dispatched, 3u); // + at most one end-of-grid shadow

    server.shutdown();
}

TEST(Coordinator, RunReturnsAtSettlementNotAtTheNextProbe)
{
    Server a(fastServerOptions(7));
    Server b(fastServerOptions(8));
    a.start();
    b.start();

    // The prober pings once at start and then waits out its interval;
    // settlement must cut that wait short instead of run() returning
    // at the next probe.
    CoordinatorOptions opts = fastCoordOptions(
        {"unix:" + coordSocketPath(7), "unix:" + coordSocketPath(8)});
    opts.probe_interval_ms = 3000;
    Coordinator coord(opts);
    const auto start = std::chrono::steady_clock::now();
    const CoordinatorReport report =
        coord.run(fastGrid({"186.crafty"}, {"none", "PI"}));
    const auto elapsed = std::chrono::steady_clock::now() - start;

    EXPECT_TRUE(report.complete());
    EXPECT_LT(elapsed, std::chrono::milliseconds(1500));

    a.shutdown();
    b.shutdown();
}

TEST(Coordinator, BadPolicyIsTerminalWithoutDispatch)
{
    Server server(fastServerOptions(4));
    server.start();

    auto grid = fastGrid({"186.crafty"}, {"none"});
    auto bogus = fastGrid({"186.crafty"}, {"none"});
    bogus[0].policy = "no-such-policy";
    grid.push_back(bogus[0]);

    Coordinator coord(
        fastCoordOptions({"unix:" + coordSocketPath(4)}));
    const CoordinatorReport report = coord.run(grid);

    EXPECT_FALSE(report.complete());
    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].reply.error, ServeError::None);
    EXPECT_EQ(report.outcomes[1].reply.error, ServeError::BadRequest);
    const auto missing = report.missingKeys();
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_EQ(missing[0], "186.crafty/no-such-policy");

    server.shutdown();
}

// ---------------------------------------------------- fault tolerance

TEST(Coordinator, DeadEndpointsSettleBoundedWithMissingManifest)
{
    // No worker ever listens: every point must still settle as a typed
    // failure after its attempt budget, never hang. This is the
    // all-quarantined corner: dispatch proceeds anyway so the budget
    // keeps burning toward settlement.
    CoordinatorOptions opts = fastCoordOptions(
        {"unix:/tmp/tcoord-dead-a.sock", "unix:/tmp/tcoord-dead-b.sock"});
    opts.max_point_attempts = 2;
    opts.connect_timeout_ms = 50;

    const auto grid = fastGrid({"186.crafty"}, {"none", "PI"});
    Coordinator coord(opts);
    const CoordinatorReport report = coord.run(grid);

    EXPECT_FALSE(report.complete());
    EXPECT_EQ(report.missingKeys().size(), grid.size());
    for (const CoordPointOutcome &out : report.outcomes) {
        EXPECT_NE(out.reply.error, ServeError::None);
        EXPECT_GE(out.attempts, 1u);
        EXPECT_LE(out.attempts, opts.max_point_attempts);
        EXPECT_NE(out.reply.message.find("gave up"), std::string::npos)
            << out.reply.message;
    }
    std::uint64_t transport = 0;
    for (const CoordWorkerStats &w : report.workers)
        transport += w.transport_failures;
    EXPECT_GE(transport, grid.size());
}

TEST(Coordinator, DeadWorkerFailsOverToLiveOnes)
{
    Server live(fastServerOptions(5));
    live.start();

    CoordinatorOptions opts = fastCoordOptions(
        {"unix:" + coordSocketPath(5), "unix:/tmp/tcoord-dead-c.sock"});
    opts.connect_timeout_ms = 50;

    const auto grid =
        fastGrid({"186.crafty", "179.art"}, {"none", "PI"});
    Coordinator coord(opts);
    const CoordinatorReport report = coord.run(grid);

    ASSERT_TRUE(report.complete());
    for (const CoordPointOutcome &out : report.outcomes) {
        EXPECT_EQ(out.worker, "unix:" + coordSocketPath(5));
        EXPECT_EQ(serializeRunResult(out.reply.result),
                  serializeRunResult(directRun(out.spec)))
            << out.key;
    }
    ASSERT_EQ(report.workers.size(), 2u);
    EXPECT_EQ(report.workers[0].completed, grid.size());
    EXPECT_EQ(report.workers[1].completed, 0u);
    // The dead worker's share was stolen or reassigned to the live one.
    EXPECT_GE(report.workers[1].transport_failures, 1u);

    live.shutdown();
}

TEST(Coordinator, InjectedDispatchAndCollectFaultsAreRetried)
{
    Server server(fastServerOptions(6));
    server.start();

    // First dispatch aborts before sending, first collect drops the
    // reply after the worker computed it: both force re-dispatch, and
    // the rerun must still land bit-identical (determinism is what the
    // duplicate byte-compare leans on).
    fault::FaultInjector::instance().arm(fault::FaultPlan::parse(
        "seed=7;coord.dispatch=abort:max=1;coord.collect=abort:max=1"));

    const auto grid =
        fastGrid({"186.crafty", "179.art"}, {"none", "PI"});
    Coordinator coord(
        fastCoordOptions({"unix:" + coordSocketPath(6)}));
    const CoordinatorReport report = coord.run(grid);

    const std::uint64_t fired =
        fault::FaultInjector::instance().firedCount();
    fault::FaultInjector::instance().disarm();

    EXPECT_EQ(fired, 2u);
    ASSERT_TRUE(report.complete());
    std::uint64_t dispatched = 0;
    for (const CoordWorkerStats &w : report.workers)
        dispatched += w.dispatched;
    EXPECT_GE(dispatched, grid.size() + 2); // both faults re-dispatched
    for (const CoordPointOutcome &out : report.outcomes)
        EXPECT_EQ(serializeRunResult(out.reply.result),
                  serializeRunResult(directRun(out.spec)))
            << out.key;

    server.shutdown();
}
