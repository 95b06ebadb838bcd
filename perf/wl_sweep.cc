/**
 * @file
 * sweep_cache: SweepEngine over all 18 profiles x {none, PID} with the
 * on-disk result cache on. Cold passes simulate and publish into a fresh
 * directory each; warm passes over the cache set-up filled simulate
 * nothing and only digest, look up and deserialize.
 */

#include <filesystem>

#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"
#include "workloads.hh"

namespace thermctl::perf
{

namespace fs = std::filesystem;

namespace
{

/**
 * Share of the timed phase given to warm passes. A warm pass costs about
 * 0.3 ms against 0.8 s for a cold one, so a few seconds hold thousands.
 */
constexpr double kWarmShare = 0.15;

RunProtocol
gridProtocol(const RunContext &ctx)
{
    return {20000 / ctx.cycleDiv(), 80000 / ctx.cycleDiv()};
}

SweepSpec
gridSpec(const RunContext &ctx)
{
    std::vector<WorkloadProfile> profiles;
    for (const std::string &name : specProfileNames())
        profiles.push_back(seededProfile(name, ctx.seed));
    DtmPolicySettings pid;
    pid.kind = DtmPolicyKind::PID;
    SweepSpec spec;
    spec.protocol(gridProtocol(ctx))
        .workloads(profiles)
        .policy(DtmPolicySettings{})
        .policy(pid);
    return spec;
}

SweepOptions
cachedOptions(const RunContext &ctx, const fs::path &dir)
{
    SweepOptions so;
    so.jobs = std::min(ctx.nproc, 4u);
    so.use_cache = true;
    so.cache_dir = dir.string();
    return so;
}

std::vector<std::string>
resultBytes(const SweepResults &res)
{
    std::vector<std::string> out;
    for (const SweepOutcome &o : res.outcomes())
        out.push_back(serializeRunResult(o.result));
    return out;
}

/** Check a pass against the reference bytes and the expected path. */
void
checkPass(const SweepResults &res, const std::vector<std::string> &ref,
          bool want_hits, Report &rep)
{
    const std::vector<std::string> bytes = resultBytes(res);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const SweepOutcome &o = res.outcomes()[i];
        rep.check(bytes[i] == ref[i] && o.cache_hit == want_hits,
                  o.point.key
                      + (o.cache_hit == want_hits
                             ? ": RunResult bytes differ across passes"
                             : want_hits ? ": warm pass missed the cache"
                                         : ": cold pass hit the cache"));
    }
}

} // namespace

Report
runSweepCache(const RunContext &ctx, Tracer *tracer, LayerInputs &li)
{
    Report rep;
    const fs::path root = fs::path(ctx.out_dir) / "sweep-cache";
    const fs::path warm_dir = root / "warm";
    SweepSpec spec;
    std::vector<std::string> ref;
    // Set-up is the time to a first grid: one cold pass, which also
    // fills the cache the warm passes read.
    const double setup_s = medianSetupSeconds(kSetupReps, [&] {
        fs::remove_all(root);
        spec = gridSpec(ctx);
        ref = resultBytes(SweepEngine(cachedOptions(ctx, warm_dir)).run(spec));
    });
    rep.add(rep.e2e, "setup_s", setup_s, "s");

    std::vector<double> cold_ms, point_ms, busy;
    const unsigned jobs = std::min(ctx.nproc, 4u);
    runRounds(ctx.seconds * (1.0 - kWarmShare), [&](unsigned r) {
        const fs::path dir = root / ("pass-" + std::to_string(r));
        const Clock::time_point t0 = Clock::now();
        SweepResults res = [&] {
            ScopedSpan span(tracer, "sweep.cold_pass", r);
            return SweepEngine(cachedOptions(ctx, dir)).run(spec);
        }();
        const double s = secondsSince(t0);
        cold_ms.push_back(s * 1e3);
        double busy_s = 0.0;
        for (const SweepOutcome &o : res.outcomes()) {
            busy_s += o.wall_seconds;
            point_ms.push_back(o.wall_seconds * 1e3);
        }
        busy.push_back(busy_s / (jobs * s));
        checkPass(res, ref, false, rep);
        fs::remove_all(dir);
    });

    // Serial warm passes: the read path alone, without the pool start-up
    // the cold passes already measure.
    std::vector<double> warm_ms;
    std::uint64_t hits = 0;
    SweepOptions warm = cachedOptions(ctx, warm_dir);
    warm.jobs = 1;
    const SweepEngine engine(warm);
    runRounds(ctx.seconds * kWarmShare, [&](unsigned r) {
        const Clock::time_point t0 = Clock::now();
        SweepResults res = [&] {
            ScopedSpan span(tracer, "sweep.warm_pass", r);
            return engine.run(spec);
        }();
        warm_ms.push_back(secondsSince(t0) * 1e3);
        hits += res.cacheHits();
        checkPass(res, ref, true, rep);
    });

    addOpMetrics(rep, cold_ms);
    for (const auto &b : ref)
        rep.digestResult(b);
    const double points = static_cast<double>(spec.size());
    rep.add(rep.extra, "sweep_cold_pps", points / (median(cold_ms) / 1e3),
            "1/s");
    rep.add(rep.extra, "sweep_warm_pps", points / (median(warm_ms) / 1e3),
            "1/s");
    rep.add(rep.extra, "sweep.warm_pass_ms_p50", median(warm_ms), "ms");
    rep.add(rep.extra, "sweep.warm_passes",
            static_cast<double>(warm_ms.size()), "count");
    rep.add(rep.extra, "sweep.warm_hits", static_cast<double>(hits),
            "count");
    rep.add(rep.extra, "sweep.pool_busy_frac", median(busy), "count");
    rep.add(rep.extra, "sweep.cold_point_ms_p50", median(point_ms), "ms");
    rep.add(rep.extra, "sweep.jobs", jobs, "count");
    addColdStartShare(gridProtocol(ctx), rep);

    if (ctx.trace) {
        const SweepPoint p = spec.points().at(1); // first profile, PID
        li.twins.push_back({p.config, gridProtocol(ctx), {}, 0.0});
        li.probe_config = p.config;
        li.probe_proto = gridProtocol(ctx);
        li.probe_spec.benchmark = p.config.workload.name;
        li.probe_spec.policy = dtmPolicyKindName(p.config.policy.kind);
        li.probe_spec.warmup_cycles = li.probe_proto.warmup_cycles;
        li.probe_spec.measure_cycles = li.probe_proto.measure_cycles;
    }
    fs::remove_all(root);
    return rep;
}

} // namespace thermctl::perf
