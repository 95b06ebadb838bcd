/**
 * @file
 * thermctl_client — command-line client for a running thermctl_serve.
 *
 * Usage:
 *   thermctl_client [options]
 *     --socket ENDPOINT  "unix:PATH", "tcp:HOST:PORT", or a bare socket
 *                        path (default: the daemon's default socket)
 *     --bench NAMES      comma-separated benchmark profiles (default
 *                        186.crafty)
 *     --policy NAMES     comma-separated policy names (default none)
 *     --warmup N         warm-up cycles (default 300000)
 *     --cycles N         measured cycles (default 1000000)
 *     --setpoint T       CT setpoint in C, nonzero
 *     --sample N         controller sampling interval, >= 1
 *     --cores N          number of cores, 1..64
 *     --coupling R       inter-core coupling resistance in K/W, > 0
 *     --budget W         chip power budget in W (0 = none)
 *     --budget-policy P  uniform|demand|headroom
 *     --deadline MS      per-request deadline; expired requests fail
 *                        with a typed deadline error (default: none)
 *     --csv PATH         append one CSV record per result
 *     --cache-query      ask whether the point is cached; no simulation
 *     --stats            print server counters and exit
 *     --drain            ask the server to drain and shut down
 *     --retries N        attempts per request incl. the first (default 1
 *                        = no retries, exactly the plain client)
 *     --retry-base-ms N  backoff base sleep (default 50)
 *     --retry-deadline-ms N
 *                        total retry budget across attempts and sleeps
 *                        (default 0 = bounded by --retries alone)
 *     --fault-plan SPEC  arm the deterministic fault injector on the
 *                        client side (chaos testing; needs a
 *                        THERMCTL_FAULTS build)
 *
 * The grid flags (--bench through --budget-policy) parse exactly as in
 * thermctl_run (tools/grid_cli.hh); a knob left unset keeps the
 * server's default. Result blocks are formatted exactly like
 * thermctl_run so outputs can be compared byte-for-byte. Server
 * refusals (bad request, overloaded, draining, deadline) exit 3;
 * transport and usage errors exit 2.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "grid_cli.hh"
#include "serve/client.hh"
#include "serve/server.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

void
usage()
{
    std::cout <<
        "usage: thermctl_client [--socket ENDPOINT]\n"
        "                       [--bench NAME[,NAME...]]\n"
        "                       [--policy NAME[,NAME...]]\n"
        "                       [--warmup N] [--cycles N] [--setpoint T]\n"
        "                       [--sample N] [--cores N] [--coupling R]\n"
        "                       [--budget W]\n"
        "                       [--budget-policy uniform|demand|headroom]\n"
        "                       [--deadline MS] [--csv PATH]\n"
        "                       [--cache-query] [--stats] [--drain]\n"
        "                       [--retries N] [--retry-base-ms N]\n"
        "                       [--retry-deadline-ms N]\n"
        "                       [--fault-plan SPEC]\n";
}

void
printStats(const StatsReply &s)
{
    std::cout << "requests_total      : " << s.requests_total << "\n"
              << "run_requests        : " << s.run_requests << "\n"
              << "sweep_requests      : " << s.sweep_requests << "\n"
              << "cache_queries       : " << s.cache_queries << "\n"
              << "points_submitted    : " << s.points_submitted << "\n"
              << "points_simulated    : " << s.points_simulated << "\n"
              << "cache_hits          : " << s.cache_hits << "\n"
              << "coalesced           : " << s.coalesced << "\n"
              << "rejected_overload   : " << s.rejected_overload << "\n"
              << "rejected_deadline   : " << s.rejected_deadline << "\n"
              << "failed              : " << s.failed << "\n"
              << "stalled             : " << s.stalled << "\n"
              << "queue_depth         : " << s.queue_depth << "\n"
              << "queue_high_water    : " << s.queue_high_water << "\n"
              << "connections_accepted: " << s.connections_accepted << "\n"
              << "active_connections  : " << s.active_connections << "\n"
              << "uptime_seconds      : " << s.uptime_seconds << "\n"
              << "latency_count       : " << s.latency_count << "\n"
              << "latency_mean_ms     : " << s.latency_mean_ms << "\n"
              << "latency_p50_ms      : " << s.latency_p50_ms << "\n"
              << "latency_p90_ms      : " << s.latency_p90_ms << "\n"
              << "latency_p99_ms      : " << s.latency_p99_ms << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string endpoint;
    SweepRequest grid = cli::defaultGrid();
    std::string csv_path;
    bool do_cache_query = false;
    bool do_stats = false;
    bool do_drain = false;
    BackoffConfig backoff;
    backoff.max_attempts = 1; // default: exactly the plain client
    std::string fault_plan_spec;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for ", arg);
                return argv[++i];
            };
            if (cli::parseGridFlag(arg, next, grid))
                continue;
            if (arg == "--socket") {
                endpoint = next();
            } else if (arg == "--deadline") {
                grid.deadline_ms = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--csv") {
                csv_path = next();
            } else if (arg == "--retries") {
                const long v = parseFlag<long>(arg, next());
                if (v < 1)
                    fatal("--retries must be >= 1");
                backoff.max_attempts = static_cast<std::uint32_t>(v);
            } else if (arg == "--retry-base-ms") {
                backoff.base_ms =
                    parseFlag<std::uint32_t>(arg, next());
            } else if (arg == "--retry-deadline-ms") {
                backoff.deadline_ms = parseFlag<std::uint64_t>(arg, next());
            } else if (arg == "--fault-plan") {
                fault_plan_spec = next();
            } else if (arg == "--cache-query") {
                do_cache_query = true;
            } else if (arg == "--stats") {
                do_stats = true;
            } else if (arg == "--drain") {
                do_drain = true;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                usage();
                fatal("unknown option ", arg);
            }
        }

        if (endpoint.empty())
            endpoint = defaultSocketPath();
        if (!fault_plan_spec.empty())
            fault::FaultInjector::instance().arm(
                cli::parseFaultPlan(fault_plan_spec));

        // One client for every command (the default --retries 1 is a
        // single attempt). Control-plane calls never retry; a transport
        // failure there throws FatalError and exits 2.
        ServeClient client(endpoint, backoff);

        if (do_stats) {
            printStats(client.stats());
            return 0;
        }
        if (do_drain) {
            const bool was = client.drain();
            std::cout << (was ? "server was already draining\n"
                              : "drain requested\n");
            return 0;
        }
        const std::vector<PointSpec> cells = grid.points();
        if (do_cache_query) {
            if (cells.size() > 1)
                fatal("--cache-query takes a single benchmark and "
                      "policy");
            CacheQueryRequest req;
            req.point = cells.front();
            const CacheQueryReply reply = client.cacheQuery(req);
            std::cout << (reply.cached ? "cached" : "not cached")
                      << " (digest " << std::hex << reply.digest
                      << std::dec << ")\n";
            return reply.cached ? 0 : 1;
        }

        std::vector<PointReply> points;
        if (cells.size() == 1) {
            RunRequest req;
            req.point = cells.front();
            req.deadline_ms = grid.deadline_ms;
            points.push_back(client.run(req));
        } else {
            points = client.sweep(grid).points;
        }

        int failures = 0;
        bool transport_failure = false;
        cli::ResultPrinter printer(grid.point.measure_cycles, csv_path);
        for (const auto &p : points) {
            if (p.error != ServeError::None) {
                std::cerr << "thermctl_client: "
                          << serveErrorName(p.error) << ": " << p.message
                          << "\n";
                failures++;
                transport_failure |= p.error == ServeError::Transport;
                continue;
            }
            printer.print(p.result);
        }
        if (failures == 0)
            return 0;
        return transport_failure ? 2 : 3;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
