/**
 * @file
 * cluster_grid: a serve::Coordinator sharding a 72-point grid across two
 * in-process serve workers. Points are small, so dispatch round-trips,
 * leases and probing are a visible share of the grid's time.
 */

#include <filesystem>
#include <memory>

#include "serve/client.hh"
#include "serve/coordinator.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"
#include "workload/spec_profiles.hh"
#include "workloads.hh"

namespace thermctl::perf
{

namespace fs = std::filesystem;
using namespace thermctl::serve;

namespace
{

constexpr std::size_t kVerified = 16;
constexpr unsigned kProbeIntervalMs = 20;

/**
 * 18 profiles x {none, PID, PI, toggle1}; each repetition has its own
 * setpoint, so no two repetitions share a digest.
 */
std::vector<PointSpec>
gridFor(const RunContext &ctx, unsigned rep)
{
    std::vector<PointSpec> grid;
    for (const std::string &name : specProfileNames()) {
        for (const char *pol : {"none", "PID", "PI", "toggle1"}) {
            PointSpec s;
            s.benchmark = name;
            s.policy = pol;
            s.warmup_cycles = 4000 / ctx.cycleDiv();
            s.measure_cycles = 16000 / ctx.cycleDiv();
            s.ct_setpoint = seededSetpoint(ctx.seed, 1 + rep);
            grid.push_back(s);
        }
    }
    return grid;
}

/** Coordinator-side accounting of one grid. */
struct GridStats
{
    double wall_ms = 0.0;
    double server_ms_sum = 0.0;
    std::vector<double> server_ms; ///< PointReply::server_ms per point
    std::uint64_t points = 0;
    std::uint64_t attempts = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t stolen = 0;
};

} // namespace

Report
runClusterGrid(const RunContext &ctx, Tracer *tracer, LayerInputs &li)
{
    Report rep;
    std::vector<std::string> endpoints;
    for (int w = 0; w < 2; ++w) {
        endpoints.push_back(
            "unix:"
            + (fs::path(ctx.out_dir) / ("cluster-w" + std::to_string(w)
                                        + ".sock"))
                  .string());
    }
    std::vector<std::unique_ptr<Server>> workers;
    const auto runGrid = [&](std::size_t nworkers, unsigned r,
                             std::vector<std::string> *keep) {
        CoordinatorOptions opts;
        opts.endpoints.assign(endpoints.begin(),
                              endpoints.begin() + nworkers);
        opts.seed = ctx.seed;
        // run() returns only when the prober next wakes from its
        // uninterruptible sleep; at the default 200 ms that rounds grid
        // times to 200 ms steps and hides the coordinator's own cost.
        opts.probe_interval_ms = kProbeIntervalMs;
        const std::vector<PointSpec> grid = gridFor(ctx, r);
        const Clock::time_point t0 = Clock::now();
        CoordinatorReport report;
        {
            ScopedSpan span(tracer, "coord.grid.w" + std::to_string(nworkers),
                            r);
            report = Coordinator(opts).run(grid);
        }
        GridStats g;
        g.wall_ms = secondsSince(t0) * 1e3;
        g.points = grid.size();
        rep.check(report.complete(),
                  "grid incomplete: " + std::to_string(
                      report.missingKeys().size()) + " points missing");
        for (const CoordPointOutcome &o : report.outcomes) {
            g.server_ms_sum += o.reply.server_ms;
            g.server_ms.push_back(o.reply.server_ms);
            g.attempts += o.attempts;
            if (keep && keep->size() < kVerified)
                keep->push_back(serializeRunResult(o.reply.result));
        }
        for (const CoordWorkerStats &w : report.workers) {
            g.dispatched += w.dispatched;
            g.stolen += w.stolen;
        }
        return g;
    };

    const auto stopWorkers = [&] {
        for (std::size_t w = 0; w < workers.size(); ++w)
            stopServer(workers[w], endpoints[w]);
        workers.clear();
    };
    unsigned setup_reps = 0;
    const double setup_s = medianSetupSeconds(kSetupReps, [&] {
        stopWorkers();
        for (const std::string &ep : endpoints) {
            ServerOptions o;
            o.unix_path = ep.substr(5);
            o.workers = 1;
            o.dispatchers = 1;
            o.sweep.jobs = 1;
            workers.push_back(std::make_unique<Server>(o));
            workers.back()->start();
            std::string err;
            PingReply pong;
            ServeClient c = ServeClient::tryConnect(ep, 1000, err);
            rep.check(c.connected() && c.ping(pong, err),
                      ep + ": worker did not answer a ping: " + err);
        }
        // Time to a first result: one grid, at a setpoint no timed
        // repetition uses.
        (void)runGrid(2, 1000 + setup_reps++, nullptr);
    });
    rep.add(rep.e2e, "setup_s", setup_s, "s");

    std::vector<std::string> served;
    std::vector<GridStats> w2, w1;
    runRounds(ctx.seconds, [&](unsigned r) {
        w2.push_back(runGrid(2, r, r == 0 ? &served : nullptr));
        if (ctx.trace)
            w1.push_back(runGrid(1, r, nullptr));
    });
    stopWorkers();

    // Cluster bytes must equal a direct run of the same resolved point.
    const std::vector<PointSpec> first = gridFor(ctx, 0);
    for (std::size_t i = 0; i < kVerified; ++i) {
        const ResolvedPoint rp = resolvePoint(first[i], {});
        const std::string direct = serializeRunResult(
            ExperimentRunner(rp.proto).runOne(rp.config.workload,
                                              rp.config.policy, rp.config));
        rep.digestResult(direct);
        rep.check(i < served.size() && served[i] == direct,
                  rp.key + ": cluster RunResult differs from a direct run");
    }

    std::vector<double> grid_ms, overhead, busy;
    GridStats tot;
    for (const GridStats &g : w2) {
        grid_ms.push_back(g.wall_ms);
        const double mean_server = g.server_ms_sum / g.points;
        overhead.push_back(2.0 * g.wall_ms / g.points - mean_server);
        busy.push_back(g.server_ms_sum / (2.0 * g.wall_ms));
        tot.points += g.points;
        tot.attempts += g.attempts;
        tot.dispatched += g.dispatched;
        tot.stolen += g.stolen;
    }
    addOpMetrics(rep, grid_ms);
    const double points = static_cast<double>(first.size());
    rep.add(rep.extra, "cluster_pps_w2", points / (median(grid_ms) / 1e3),
            "1/s");
    rep.add(rep.extra, "coord.overhead_ms_per_point", median(overhead),
            "ms");
    rep.add(rep.extra, "coord.worker_busy_frac", median(busy), "count");
    rep.add(rep.extra, "coord.attempts_per_point",
            static_cast<double>(tot.attempts) / tot.points, "count");
    rep.add(rep.extra, "coord.shadow_frac",
            static_cast<double>(tot.dispatched - tot.points)
                / std::max<double>(1.0, tot.dispatched),
            "count");
    rep.add(rep.extra, "coord.stolen", static_cast<double>(tot.stolen),
            "count");
    if (!w1.empty()) {
        std::vector<double> w1_ms;
        for (const GridStats &g : w1)
            w1_ms.push_back(g.wall_ms);
        rep.add(rep.extra, "cluster_pps_w1", points / (median(w1_ms) / 1e3),
                "1/s");
        rep.add(rep.extra, "coord.w2_speedup",
                median(w1_ms) / median(grid_ms), "count");
    }
    std::vector<double> server_ms;
    for (const GridStats &g : w2)
        server_ms.insert(server_ms.end(), g.server_ms.begin(),
                         g.server_ms.end());
    rep.add(rep.extra, "coord.point_server_ms_p50", median(server_ms), "ms");
    addColdStartShare(resolvePoint(first.front(), {}).proto, rep);

    if (ctx.trace) {
        const ResolvedPoint rp = resolvePoint(first.at(1), {});
        li.twins.push_back({rp.config, rp.proto, {}, 0.0});
        li.probe_config = rp.config;
        li.probe_proto = rp.proto;
        li.probe_spec = first.at(1);
    }
    return rep;
}

} // namespace thermctl::perf
