/**
 * @file
 * thermctl_serve — long-running thermal-simulation daemon.
 *
 * Usage:
 *   thermctl_serve [options]
 *     --socket PATH       Unix-domain listener (default: THERMCTL_SOCKET,
 *                         $XDG_RUNTIME_DIR/thermctl.sock, or
 *                         /tmp/thermctl-<uid>.sock)
 *     --tcp PORT          also listen on TCP loopback (0 = ephemeral;
 *                         the bound port is printed on startup)
 *     --jobs N            sweep engine worker threads (default
 *                         THERMCTL_JOBS or all cores)
 *     --cache-dir PATH    result cache directory (default
 *                         THERMCTL_CACHE_DIR or ~/.cache/thermctl)
 *     --no-cache          disable the on-disk result cache
 *     --max-queue N       admission-control queue bound (default 256)
 *     --dispatchers N     scheduler dispatcher threads (default 2)
 *     --batch-window-ms N hold dispatch briefly so concurrent requests
 *                         coalesce and batch (default 0 = immediate)
 *     --watchdog-ms N     fail dispatches stuck longer than N ms with a
 *                         typed Stalled error (default 0 = off)
 *     --workers N         event-core request workers (default 2)
 *     --idle-timeout-ms N evict connections idle longer than N ms
 *                         (default 30000; 0 = never)
 *     --max-write-buffer N per-connection reply high water in bytes;
 *                         past it the peer is not read until it drains
 *     --sndbuf N          SO_SNDBUF for accepted sockets (testing)
 *     --drain-flush-ms N  reply-flush budget during drain (default 5000)
 *     --fault-plan SPEC   arm the deterministic fault injector with a
 *                         seeded plan, e.g.
 *                         "seed=7;serve.sock.write=abort@0.05"
 *                         (chaos testing; needs a THERMCTL_FAULTS build)
 *
 * On startup the daemon sweeps its cache directory for leftovers of a
 * crashed predecessor: orphaned publish temp files are removed and
 * entries that no longer decode are quarantined, so a crash mid-publish
 * can never poison later runs.
 *
 * SIGTERM/SIGINT trigger a graceful drain: in-flight requests finish
 * and their replies are delivered, new work is refused with a typed
 * Draining error, then the daemon logs its counters and exits 0.
 */

#include <signal.h>
#include <unistd.h>

#include <iostream>
#include <string>
#include <thread>

#include "common/flags.hh"
#include "common/logging.hh"
#include "grid_cli.hh"
#include "serve/server.hh"
#include "sim/sweep.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

void
usage()
{
    std::cout <<
        "usage: thermctl_serve [--socket PATH] [--tcp PORT] [--jobs N]\n"
        "                      [--cache-dir PATH] [--no-cache]\n"
        "                      [--max-queue N] [--dispatchers N]\n"
        "                      [--batch-window-ms N] [--watchdog-ms N]\n"
        "                      [--workers N] [--idle-timeout-ms N]\n"
        "                      [--max-write-buffer N] [--sndbuf N]\n"
        "                      [--drain-flush-ms N] [--fault-plan SPEC]\n";
}

void
logStats(const StatsReply &s)
{
    std::cerr << "thermctl_serve: served " << s.requests_total
              << " requests (" << s.run_requests << " run, "
              << s.sweep_requests << " sweep, " << s.cache_queries
              << " cache-query) over " << s.connections_accepted
              << " connections in " << s.uptime_seconds << " s\n"
              << "thermctl_serve: " << s.points_submitted
              << " points submitted, " << s.points_simulated
              << " simulated, " << s.cache_hits << " cache hits, "
              << s.coalesced << " coalesced, " << s.rejected_overload
              << " overloaded, " << s.rejected_deadline
              << " deadline-expired, " << s.failed << " failed, "
              << s.stalled << " stalled\n"
              << "thermctl_serve: queue high water " << s.queue_high_water
              << ", latency mean " << s.latency_mean_ms << " ms (p50 "
              << s.latency_p50_ms << ", p90 " << s.latency_p90_ms
              << ", p99 " << s.latency_p99_ms << ")\n";
}

} // namespace

int
main(int argc, char **argv)
{
    ServerOptions opts;
    opts.unix_path = defaultSocketPath();
    opts.sweep = SweepEngine::defaultOptions();

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for ", arg);
                return argv[++i];
            };
            if (parseSweepFlag(arg, next, opts.sweep))
                continue;
            if (arg == "--socket") {
                opts.unix_path = next();
            } else if (arg == "--tcp") {
                opts.tcp = true;
                opts.tcp_port = parseFlag<int>(arg, next());
            } else if (arg == "--max-queue") {
                const long v = parseFlag<long>(arg, next());
                if (v < 1)
                    fatal("--max-queue must be >= 1");
                opts.max_queue = static_cast<std::size_t>(v);
            } else if (arg == "--dispatchers") {
                const long v = parseFlag<long>(arg, next());
                if (v < 1)
                    fatal("--dispatchers must be >= 1");
                opts.dispatchers = static_cast<unsigned>(v);
            } else if (arg == "--batch-window-ms") {
                opts.batch_window_ms =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--watchdog-ms") {
                opts.watchdog_ms =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--workers") {
                const long v = parseFlag<long>(arg, next());
                if (v < 1)
                    fatal("--workers must be >= 1");
                opts.workers = static_cast<unsigned>(v);
            } else if (arg == "--idle-timeout-ms") {
                opts.idle_timeout_ms =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--max-write-buffer") {
                opts.max_write_buffer =
                    parseFlag<std::size_t>(arg, next());
            } else if (arg == "--sndbuf") {
                opts.sndbuf = parseFlag<int>(arg, next());
            } else if (arg == "--drain-flush-ms") {
                opts.drain_flush_ms =
                    parseFlag<unsigned>(arg, next());
            } else if (arg == "--fault-plan") {
                opts.fault_plan = next();
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                usage();
                fatal("unknown option ", arg);
            }
        }

        opts.validate(); // surface flag errors before any side effect

        if (!opts.fault_plan.empty()) {
            // Server::start() arms the plan; just log what will run.
            std::cerr << "thermctl_serve: fault plan armed: "
                      << cli::parseFaultPlan(opts.fault_plan).describe()
                      << "\n";
        }

        // Recover the cache directory from a crashed predecessor before
        // the first request can read a half-published entry.
        if (opts.sweep.use_cache) {
            const std::string cache_dir =
                opts.sweep.cache_dir.empty()
                    ? SweepEngine::defaultCacheDir()
                    : opts.sweep.cache_dir;
            const CacheRecoveryStats rec = sweepCacheRecover(cache_dir);
            if (rec.quarantined > 0 || rec.tmp_removed > 0) {
                std::cerr << "thermctl_serve: cache recovery: scanned "
                          << rec.scanned << " entries, quarantined "
                          << rec.quarantined << ", removed "
                          << rec.tmp_removed << " temp files\n";
            }
        }

        // Signals are delivered to a dedicated sigwait thread so the
        // drain path runs in normal (not async-signal) context.
        sigset_t sigs;
        sigemptyset(&sigs);
        sigaddset(&sigs, SIGTERM);
        sigaddset(&sigs, SIGINT);
        pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

        Server server(opts);
        server.start();

        std::thread sig_thread([&server, sigs] {
            int sig = 0;
            sigwait(&sigs, &sig);
            if (!server.drainRequested()) {
                std::cerr << "thermctl_serve: caught "
                          << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                          << ", draining\n";
            }
            server.beginDrain();
        });

        std::cerr << "thermctl_serve: listening on " << opts.unix_path;
        if (opts.tcp)
            std::cerr << " and tcp:127.0.0.1:" << server.tcpPort();
        std::cerr << "\n";

        server.waitForDrainRequest();
        // A client-initiated drain leaves the signal thread parked in
        // sigwait; poke it so it can be joined before `server` dies.
        kill(getpid(), SIGTERM);
        sig_thread.join();
        server.shutdown();
        logStats(server.statsSnapshot());
        return 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
