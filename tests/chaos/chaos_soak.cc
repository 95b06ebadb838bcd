/**
 * @file
 * Chaos soak harness for thermctl-serve under deterministic fault
 * injection (src/fault). It arms a seeded FaultPlan across the
 * transport, scheduler, and cache layers, drives an in-process server
 * with concurrent retrying clients, and asserts the resilience
 * invariant end to end:
 *
 *   every admitted request yields exactly one reply that is either
 *   bit-identical to a fault-free run of the same spec or a typed
 *   ServeError — never a hang, never silent corruption.
 *
 * After the soak it disarms the plan and re-verifies every point
 * through the same server, proving the stack (including the on-disk
 * cache, which saw torn publishes) healed rather than wedged.
 *
 * Failures print the seed so the exact fault sequence replays:
 *
 *   chaos_soak --seed=N [--clients=N] [--requests=N] [--plan=SPEC]
 *              [--max-wall=SECONDS]
 *
 * --cluster switches to the distributed soak: a coordinator shards a
 * sweep grid across several worker *processes* while a seeded
 * supervisor SIGKILLs one mid-sweep and respawns it, and one worker
 * runs under a stall-injecting fault plan. The invariant hardens to:
 * the merged report is complete and every point is bit-identical to a
 * single-process fault-free run, the injected crash was actually
 * observed, and every surviving worker drains cleanly on SIGTERM.
 *
 *   chaos_soak --cluster [--seed=N] [--workers=N] [--max-wall=SECONDS]
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fault/fault.hh"
#include "multicore/multicore_sim.hh"
#include "serve/client.hh"
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

struct SoakFlags
{
    std::uint64_t seed = 1;
    int clients = 4;
    int requests = 16; ///< per client
    int max_wall_s = 240;
    std::string plan;    ///< empty = built-in plan derived from seed
    bool cluster = false; ///< distributed soak (see runCluster)
    int workers = 3;      ///< worker processes in cluster mode
};

bool
flagValue(const char *arg, const char *name, std::string &out)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    out = arg + n + 1;
    return true;
}

SoakFlags
parseFlags(int argc, char **argv)
{
    SoakFlags flags;
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (flagValue(argv[i], "--seed", value))
            flags.seed = parseFlag<std::uint64_t>("--seed", value);
        else if (flagValue(argv[i], "--clients", value))
            flags.clients = parseFlag<int>("--clients", value);
        else if (flagValue(argv[i], "--requests", value))
            flags.requests = parseFlag<int>("--requests", value);
        else if (flagValue(argv[i], "--max-wall", value))
            flags.max_wall_s = parseFlag<int>("--max-wall", value);
        else if (flagValue(argv[i], "--plan", value))
            flags.plan = value;
        else if (flagValue(argv[i], "--workers", value))
            flags.workers = parseFlag<int>("--workers", value);
        else if (std::strcmp(argv[i], "--cluster") == 0)
            flags.cluster = true;
        else
            fatal("chaos_soak: unknown flag '", argv[i],
                  "' (want --seed/--clients/--requests/--plan/--max-wall/"
                  "--cluster/--workers)");
    }
    if (flags.clients < 1 || flags.requests < 1 || flags.max_wall_s < 1)
        fatal("chaos_soak: --clients/--requests/--max-wall must be >= 1");
    if (flags.cluster && flags.workers < 2)
        fatal("chaos_soak: --cluster needs --workers >= 2");
    return flags;
}

/**
 * The built-in plan covers every injectable layer: short and aborted
 * socket I/O on both sides, EINTR storms, dropped accepts, scheduler
 * stalls (including two long enough to trip the watchdog), torn cache
 * publishes, and cache-load failures. Rates are tuned so a small soak
 * sees every site fire while most requests still succeed.
 */
std::string
builtinPlan(std::uint64_t seed)
{
    return "seed=" + std::to_string(seed)
           + ";serve.sock.write=short@0.2"
             ";serve.sock.write=abort@0.04"
             ";serve.sock.read=eintr@0.1"
             ";serve.sock.read=abort@0.04"
             ";serve.accept=abort@0.1:max=3"
             ";sched.batch=stall@0.2:ms=30"
             ";sched.batch=stall@0.04:ms=1500:max=2"
             ";cache.publish=torn@0.3"
             ";cache.load=abort@0.1";
}

/** The point grid the soak requests (small enough to precompute). */
struct SoakPoint
{
    std::string benchmark;
    std::string policy;
    std::uint32_t num_cores = 0; ///< 0 = server default (single core)
    std::string expected;        ///< serialized fault-free RunResult
};

constexpr std::uint64_t kWarmup = 1000;
constexpr std::uint64_t kMeasure = 10000;

std::vector<SoakPoint>
precomputeExpected()
{
    RunProtocol proto;
    proto.warmup_cycles = kWarmup;
    proto.measure_cycles = kMeasure;
    const ExperimentRunner runner(proto);

    std::vector<SoakPoint> points;
    for (const char *bench : {"186.crafty", "179.art"}) {
        for (const char *policy : {"none", "PI", "PID"}) {
            SimConfig cfg;
            if (!parseDtmPolicyKind(policy, cfg.policy.kind))
                fatal("chaos_soak: unknown policy ", policy);
            const RunResult result =
                runner.runOne(specProfile(bench), cfg.policy, cfg);
            points.push_back(
                {bench, policy, 0, serializeRunResult(result)});
        }
    }

    // Multicore points so the soak covers the wire-v3 knobs and the
    // multicore engine backend end to end (faulted transport, cache,
    // scheduler). Direct runs dispatch through the same backend the
    // server uses.
    multicore::ensureBackendRegistered();
    for (const char *policy : {"percore-PID", "adj-integral"}) {
        SimConfig cfg;
        if (!parseDtmPolicyKind(policy, cfg.policy.kind))
            fatal("chaos_soak: unknown policy ", policy);
        cfg.multicore.num_cores = 2;
        const RunResult result =
            runner.runOne(specProfile("186.crafty"), cfg.policy, cfg);
        points.push_back(
            {"186.crafty", policy, 2, serializeRunResult(result)});
    }
    return points;
}

struct ClientTally
{
    std::uint64_t ok = 0;          ///< bit-identical result replies
    std::uint64_t typed_errors = 0;
    std::uint64_t mismatches = 0;  ///< the invariant violation
    std::map<int, std::uint64_t> by_error;
};

ClientTally
runClient(const std::string &endpoint, const SoakFlags &flags,
          int client_id, const std::vector<SoakPoint> &points)
{
    BackoffConfig backoff;
    backoff.base_ms = 5;
    backoff.cap_ms = 100;
    backoff.max_attempts = 6;
    backoff.deadline_ms = 20000;
    backoff.seed = Rng(flags.seed).fork(0x10000u + unsigned(client_id))
                       .next();
    ServeClient client(endpoint, backoff);

    Rng pick(Rng(flags.seed).fork(unsigned(client_id)).next());
    ClientTally tally;
    for (int i = 0; i < flags.requests; ++i) {
        const SoakPoint &point =
            points[pick.below(std::uint64_t(points.size()))];
        RunRequest req;
        req.point.benchmark = point.benchmark;
        req.point.policy = point.policy;
        req.point.num_cores = point.num_cores;
        req.point.warmup_cycles = kWarmup;
        req.point.measure_cycles = kMeasure;
        const PointReply reply = client.run(req);
        if (reply.error == ServeError::None) {
            if (serializeRunResult(reply.result) == point.expected) {
                tally.ok++;
            } else {
                tally.mismatches++;
                std::fprintf(stderr,
                             "MISMATCH client %d req %d %s/%s: reply "
                             "differs from fault-free run\n",
                             client_id, i, point.benchmark.c_str(),
                             point.policy.c_str());
            }
        } else {
            tally.typed_errors++;
            tally.by_error[int(reply.error)]++;
        }
    }
    return tally;
}

// ------------------------------------------------------------ cluster

volatile sig_atomic_t g_worker_term = 0;

void
onWorkerTerm(int)
{
    g_worker_term = 1;
}

/**
 * A worker process: one thermctl-serve instance on a Unix socket,
 * draining cleanly on SIGTERM (exit 0) and dying instantly on SIGKILL
 * like any crashed daemon. One designated worker arms a stall plan so
 * the coordinator sees a chronically slow node, not just a dead one.
 */
[[noreturn]] void
runWorkerProcess(const std::string &socket_path, std::uint64_t seed,
                 bool stall)
{
    struct sigaction sa = {};
    sa.sa_handler = onWorkerTerm;
    ::sigaction(SIGTERM, &sa, nullptr);

    if (stall) {
        fault::FaultInjector::instance().arm(fault::FaultPlan::parse(
            "seed=" + std::to_string(seed)
            + ";sched.batch=stall@0.3:ms=300"));
    }

    ServerOptions opts;
    opts.unix_path = socket_path;
    opts.sweep.use_cache = false;
    opts.sweep.jobs = 2;
    opts.dispatchers = 1;
    opts.workers = 4;
    opts.watchdog_ms = 200;
    opts.drain_flush_ms = 200;
    Server server(opts);
    server.start();
    while (!g_worker_term)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.beginDrain();
    server.shutdown();
    std::_Exit(0);
}

/**
 * The supervisor process (single-threaded, forked before the parent
 * spawns any threads — fork()+threads don't mix under ASan). It forks
 * the workers, then runs a seeded fault schedule synchronized to the
 * sweep via a one-byte command pipe: on 'S' it SIGKILLs a seeded
 * victim mid-sweep, respawns it after a seeded downtime, and on 'Q'
 * (or parent death = EOF) SIGTERMs every survivor and reports how many
 * failed to drain cleanly on the status pipe.
 */
[[noreturn]] void
runSupervisor(const std::vector<std::string> &sockets,
              std::uint64_t seed, int cmd_fd, int status_fd)
{
    const int n = static_cast<int>(sockets.size());
    Rng rng(seed);
    const int victim = static_cast<int>(rng.below(std::uint64_t(n)));
    const int stall_worker = (victim + 1) % n;
    const unsigned kill_delay_ms = 30 + unsigned(rng.below(120));
    const unsigned down_ms = 150 + unsigned(rng.below(350));

    std::vector<pid_t> pids(std::size_t(n), -1);
    const auto spawn = [&](int i) {
        const pid_t pid = ::fork();
        if (pid == 0)
            runWorkerProcess(sockets[std::size_t(i)],
                             seed + std::uint64_t(i),
                             i == stall_worker);
        pids[std::size_t(i)] = pid;
    };
    for (int i = 0; i < n; ++i)
        spawn(i);
    std::fprintf(stderr,
                 "cluster supervisor: %d workers up; victim %d, "
                 "staller %d, kill at +%u ms, down %u ms\n",
                 n, victim, stall_worker, kill_delay_ms, down_ms);

    char cmd = 0;
    if (::read(cmd_fd, &cmd, 1) == 1 && cmd == 'S') {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kill_delay_ms));
        std::fprintf(stderr,
                     "cluster supervisor: SIGKILL worker %d (%s)\n",
                     victim, sockets[std::size_t(victim)].c_str());
        ::kill(pids[std::size_t(victim)], SIGKILL);
        ::waitpid(pids[std::size_t(victim)], nullptr, 0);
        pids[std::size_t(victim)] = -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(down_ms));
        std::fprintf(stderr,
                     "cluster supervisor: respawning worker %d\n",
                     victim);
        spawn(victim);
        (void)::read(cmd_fd, &cmd, 1); // 'Q' or EOF: tear down
    }

    unsigned char unclean = 0;
    for (int i = 0; i < n; ++i) {
        const pid_t pid = pids[std::size_t(i)];
        if (pid < 0)
            continue;
        ::kill(pid, SIGTERM);
        // Bounded reap: a worker that ignores SIGTERM is a drain bug.
        int status = 0;
        bool reaped = false;
        for (int t = 0; t < 500 && !reaped; ++t) {
            if (::waitpid(pid, &status, WNOHANG) == pid)
                reaped = true;
            else
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        if (!reaped) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
        }
        if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr,
                         "cluster supervisor: worker %d did not drain "
                         "cleanly (status %d)\n",
                         i, status);
            unclean++;
        }
    }
    (void)::write(status_fd, &unclean, 1);
    std::_Exit(0);
}

/** Expected bytes per key for the cluster grid, fault-free. */
std::map<std::string, std::string>
clusterExpected(const SweepRequest &grid)
{
    std::map<std::string, std::string> expected;
    for (const PointSpec &cell : grid.points()) {
        const ResolvedPoint pt = resolvePoint(cell, SimConfig{});
        const RunResult result = ExperimentRunner(pt.proto).runOne(
            pt.config.workload, pt.config.policy, pt.config);
        expected[pt.key] = serializeRunResult(result);
    }
    return expected;
}

/**
 * The distributed soak. Fork order matters: the supervisor (and
 * through it every worker) forks while this process is still
 * single-threaded; only then do the watchdog thread and the
 * coordinator's agents start.
 */
int
runCluster(const SoakFlags &flags)
{
    int cmd_pipe[2];
    int status_pipe[2];
    if (::pipe(cmd_pipe) != 0 || ::pipe(status_pipe) != 0)
        fatal("chaos_soak: pipe() failed");

    std::vector<std::string> sockets;
    for (int i = 0; i < flags.workers; ++i)
        sockets.push_back("/tmp/tchaos-cl-" + std::to_string(::getpid())
                          + "-" + std::to_string(i) + ".sock");

    const pid_t sup = ::fork();
    if (sup == 0) {
        ::close(cmd_pipe[1]);
        ::close(status_pipe[0]);
        runSupervisor(sockets, flags.seed, cmd_pipe[0], status_pipe[1]);
    }
    if (sup < 0)
        fatal("chaos_soak: fork() failed");
    ::close(cmd_pipe[0]);
    ::close(status_pipe[1]);

    // Hang watchdog. On _Exit the command pipe closes, the supervisor
    // reads EOF and tears the workers down itself — no orphans.
    std::atomic<bool> done{false};
    std::thread hang_guard([&done, &flags] {
        const auto deadline = std::chrono::steady_clock::now()
                              + std::chrono::seconds(flags.max_wall_s);
        while (!done.load()) {
            if (std::chrono::steady_clock::now() >= deadline) {
                std::fprintf(stderr,
                             "HANG: cluster soak exceeded %d s (replay "
                             "with --cluster --seed=%llu)\n",
                             flags.max_wall_s,
                             static_cast<unsigned long long>(flags.seed));
                std::_Exit(2);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    });

    // Wait until every worker answers a ping.
    for (const std::string &sock : sockets) {
        bool up = false;
        for (int t = 0; t < 500 && !up; ++t) {
            std::string err;
            ServeClient probe =
                ServeClient::tryConnect("unix:" + sock, 200, err);
            if (probe.connected()) {
                PingReply pong;
                up = probe.ping(pong, err);
            }
            if (!up)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
        }
        if (!up)
            fatal("chaos_soak: worker ", sock, " never came up");
    }

    SweepRequest grid;
    grid.benchmarks = {"186.crafty", "179.art", "164.gzip", "301.apsi"};
    grid.policies = {"none", "toggle1", "toggle2", "P",
                     "PI",   "PID",     "throttle", "vf-scaling"};
    grid.point.warmup_cycles = kWarmup;
    grid.point.measure_cycles = kMeasure;

    std::printf("chaos_soak: precomputing %zu fault-free points...\n",
                grid.benchmarks.size() * grid.policies.size());
    const std::map<std::string, std::string> expected =
        clusterExpected(grid);

    CoordinatorOptions copts;
    for (const std::string &sock : sockets)
        copts.endpoints.push_back("unix:" + sock);
    copts.lease_ms = 10000;
    copts.connect_timeout_ms = 300;
    copts.probe_interval_ms = 50;
    copts.quarantine_ms = 300;
    copts.max_point_attempts = 10;
    copts.seed = flags.seed;

    (void)::write(cmd_pipe[1], "S", 1);
    Coordinator coord(copts);
    const CoordinatorReport report =
        coord.run(grid.points());
    (void)::write(cmd_pipe[1], "Q", 1);

    unsigned char unclean = 0xff;
    const ssize_t got = ::read(status_pipe[0], &unclean, 1);
    int sup_status = 0;
    ::waitpid(sup, &sup_status, 0);
    ::close(cmd_pipe[1]);
    ::close(status_pipe[0]);

    bool failed = false;
    if (!report.complete()) {
        for (const std::string &key : report.missingKeys())
            std::fprintf(stderr, "MISSING: %s\n", key.c_str());
        std::fprintf(stderr,
                     "BUG: sweep incomplete despite retries (%zu "
                     "missing)\n",
                     report.missingKeys().size());
        failed = true;
    }
    std::uint64_t mismatches = 0;
    for (const CoordPointOutcome &out : report.outcomes) {
        if (out.reply.error != ServeError::None)
            continue;
        const auto it = expected.find(out.key);
        if (it == expected.end()
            || serializeRunResult(out.reply.result) != it->second) {
            mismatches++;
            std::fprintf(stderr,
                         "MISMATCH %s: merged result differs from "
                         "single-process run\n",
                         out.key.c_str());
        }
    }
    if (mismatches > 0)
        failed = true;

    std::uint64_t disturbances = 0;
    for (const CoordWorkerStats &w : report.workers) {
        disturbances += w.transport_failures + w.lease_expiries
                        + w.stalls + w.quarantines;
        std::printf("chaos_soak: worker %s: %llu dispatched, %llu "
                    "completed, %llu stolen, %llu shadowed, %llu "
                    "transport, %llu lease, %llu stalls, %llu "
                    "quarantines, %s\n",
                    w.endpoint.c_str(),
                    (unsigned long long)w.dispatched,
                    (unsigned long long)w.completed,
                    (unsigned long long)w.stolen,
                    (unsigned long long)w.shadowed,
                    (unsigned long long)w.transport_failures,
                    (unsigned long long)w.lease_expiries,
                    (unsigned long long)w.stalls,
                    (unsigned long long)w.quarantines,
                    workerHealthName(w.health));
    }
    if (disturbances == 0) {
        std::fprintf(stderr,
                     "BUG: the injected kill/stall left no trace — the "
                     "soak exercised nothing\n");
        failed = true;
    }
    if (got != 1 || unclean != 0) {
        std::fprintf(stderr,
                     "BUG: %d worker(s) did not drain cleanly on "
                     "SIGTERM\n",
                     got == 1 ? int(unclean) : -1);
        failed = true;
    }
    if (!WIFEXITED(sup_status) || WEXITSTATUS(sup_status) != 0) {
        std::fprintf(stderr, "BUG: supervisor exited abnormally\n");
        failed = true;
    }

    done.store(true);
    hang_guard.join();
    if (failed) {
        std::fprintf(stderr,
                     "chaos_soak: CLUSTER FAILED (replay with --cluster "
                     "--seed=%llu)\n",
                     static_cast<unsigned long long>(flags.seed));
        return 1;
    }
    std::printf("chaos_soak: CLUSTER PASS (seed %llu, %zu points, %llu "
                "disturbances)\n",
                static_cast<unsigned long long>(flags.seed),
                report.outcomes.size(),
                (unsigned long long)disturbances);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const SoakFlags flags = parseFlags(argc, argv);
    if (flags.cluster)
        return runCluster(flags);

    // Hang watchdog: a chaos bug that wedges a future or a drain would
    // otherwise look like a ctest timeout with no diagnostics. _exit,
    // not exit: wedged threads cannot run destructors.
    std::atomic<bool> done{false};
    std::thread hang_guard([&done, &flags] {
        const auto deadline = std::chrono::steady_clock::now()
                              + std::chrono::seconds(flags.max_wall_s);
        while (!done.load()) {
            if (std::chrono::steady_clock::now() >= deadline) {
                std::fprintf(stderr,
                             "HANG: soak exceeded %d s (replay with "
                             "--seed=%llu)\n",
                             flags.max_wall_s,
                             static_cast<unsigned long long>(flags.seed));
                std::_Exit(2);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    });

    const std::string plan_spec =
        flags.plan.empty() ? builtinPlan(flags.seed) : flags.plan;
    const fault::FaultPlan plan = fault::FaultPlan::parse(plan_spec);
    std::printf("chaos_soak: plan %s\n", plan.describe().c_str());

    std::printf("chaos_soak: precomputing fault-free expectations...\n");
    const std::vector<SoakPoint> points = precomputeExpected();

    const std::string socket_path =
        "/tmp/tchaos-" + std::to_string(::getpid()) + ".sock";
    const std::filesystem::path cache_dir =
        std::filesystem::temp_directory_path()
        / ("thermctl-chaos-cache-" + std::to_string(::getpid()));
    std::filesystem::remove_all(cache_dir);

    ServerOptions opts;
    opts.unix_path = socket_path;
    opts.sweep.use_cache = true;
    opts.sweep.cache_dir = cache_dir.string();
    opts.sweep.jobs = 2;
    opts.dispatchers = 2;
    opts.batch_window_ms = 5;
    opts.watchdog_ms = 1000;
    opts.workers = unsigned(flags.clients); // one in-flight frame each
    Server server(opts);
    server.start();

    fault::FaultInjector::instance().arm(plan);

    std::vector<ClientTally> tallies(std::size_t(flags.clients));
    std::vector<std::thread> threads;
    threads.reserve(std::size_t(flags.clients));
    for (int c = 0; c < flags.clients; ++c) {
        threads.emplace_back([&, c] {
            tallies[std::size_t(c)] =
                runClient("unix:" + socket_path, flags, c, points);
        });
    }
    for (auto &t : threads)
        t.join();

    const std::uint64_t fired =
        fault::FaultInjector::instance().firedCount();
    fault::FaultInjector::instance().disarm();

    // Recovery phase: with faults off, the same server must answer
    // every point fault-free and bit-identical — torn cache entries
    // must have been quarantined, not wedged into permanent errors.
    std::uint64_t recovery_failures = 0;
    {
        ServeClient verify = ServeClient::connect("unix:" + socket_path);
        for (const SoakPoint &point : points) {
            RunRequest req;
            req.point.benchmark = point.benchmark;
            req.point.policy = point.policy;
            req.point.num_cores = point.num_cores;
            req.point.warmup_cycles = kWarmup;
            req.point.measure_cycles = kMeasure;
            const PointReply reply = verify.run(req);
            if (reply.error != ServeError::None
                || serializeRunResult(reply.result) != point.expected) {
                recovery_failures++;
                std::fprintf(stderr,
                             "RECOVERY FAILURE %s/%s: %s %s\n",
                             point.benchmark.c_str(),
                             point.policy.c_str(),
                             std::string(serveErrorName(reply.error))
                                 .c_str(),
                             reply.message.c_str());
            }
        }
    }

    const StatsReply stats = server.statsSnapshot();
    server.beginDrain();
    server.shutdown();

    const CacheRecoveryStats cache_recovery =
        sweepCacheRecover(cache_dir.string());
    std::filesystem::remove_all(cache_dir);

    ClientTally total;
    for (const ClientTally &t : tallies) {
        total.ok += t.ok;
        total.typed_errors += t.typed_errors;
        total.mismatches += t.mismatches;
        for (const auto &[code, n] : t.by_error)
            total.by_error[code] += n;
    }

    std::printf("chaos_soak: %llu ok, %llu typed errors, %llu "
                "mismatches over %d requests\n",
                (unsigned long long)total.ok,
                (unsigned long long)total.typed_errors,
                (unsigned long long)total.mismatches,
                flags.clients * flags.requests);
    for (const auto &[code, n] : total.by_error) {
        std::printf("chaos_soak:   error %s: %llu\n",
                    std::string(serveErrorName(ServeError(code))).c_str(),
                    (unsigned long long)n);
    }
    std::printf("chaos_soak: %llu faults fired; server simulated %llu, "
                "cache hits %llu, stalled %llu\n",
                (unsigned long long)fired,
                (unsigned long long)stats.points_simulated,
                (unsigned long long)stats.cache_hits,
                (unsigned long long)stats.stalled);
    std::printf("chaos_soak: cache recovery scanned %llu, quarantined "
                "%llu, tmp removed %llu\n",
                (unsigned long long)cache_recovery.scanned,
                (unsigned long long)cache_recovery.quarantined,
                (unsigned long long)cache_recovery.tmp_removed);

    bool failed = false;
    if (total.mismatches > 0 || recovery_failures > 0)
        failed = true;
    const std::uint64_t answered = total.ok + total.typed_errors;
    if (answered
        != std::uint64_t(flags.clients) * std::uint64_t(flags.requests)) {
        std::fprintf(stderr, "BUG: %llu replies for %d requests\n",
                     (unsigned long long)answered,
                     flags.clients * flags.requests);
        failed = true;
    }
#if defined(THERMCTL_FAULTS_ENABLED) && THERMCTL_FAULTS_ENABLED
    if (fired == 0) {
        std::fprintf(stderr,
                     "BUG: fault injection armed but nothing fired — "
                     "the soak exercised nothing\n");
        failed = true;
    }
#else
    std::printf("chaos_soak: THERMCTL_FAULTS is OFF — ran as a plain "
                "stress test\n");
#endif

    done.store(true);
    hang_guard.join();
    if (failed) {
        std::fprintf(stderr, "chaos_soak: FAILED (replay with --seed=%llu)\n",
                     static_cast<unsigned long long>(flags.seed));
        return 1;
    }
    std::printf("chaos_soak: PASS (seed %llu)\n",
                static_cast<unsigned long long>(flags.seed));
    return 0;
}
