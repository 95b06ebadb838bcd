/**
 * @file
 * sim_single and sim_chip16: uncached, serial ExperimentRunner::runOne
 * calls, the path every other workload's simulation goes through.
 */

#include <algorithm>

#include "multicore/multicore_sim.hh"
#include "sim/sweep.hh"
#include "workloads.hh"

namespace thermctl::perf
{

namespace
{

/**
 * Runs each point of a fixed set in rounds, checking repeats agree. The
 * operation is one round: every point once. The points differ in cost
 * by 2x or more, so the median of single points would jump between
 * profiles from run to run; a round weighs each profile the same way
 * every time.
 */
struct PointRounds
{
    std::vector<SimConfig> points;
    std::vector<std::string> first;            ///< bytes, first run
    std::vector<std::vector<double>> point_ms; ///< per point
    std::vector<double> round_ms;
    double sim_seconds = 0.0;
    double core_cycles = 0.0; ///< simulated core-cycles, all points

    /** Round r runs the points forward when even, backward when odd. */
    void
    run(const RunContext &ctx, const RunProtocol &proto, Tracer *tracer,
        Report &rep)
    {
        const ExperimentRunner runner(proto);
        const std::size_t n = points.size();
        first.assign(n, {});
        point_ms.assign(n, {});
        runRounds(ctx.seconds, [&](unsigned r) {
            const Clock::time_point t0 = Clock::now();
            for (std::size_t k = 0; k < n; ++k)
                runPoint(runner, proto, r % 2 ? n - 1 - k : k, tracer, rep);
            round_ms.push_back(secondsSince(t0) * 1e3);
        });
    }

    void
    runPoint(const ExperimentRunner &runner, const RunProtocol &proto,
             std::size_t i, Tracer *tracer, Report &rep)
    {
        const SimConfig &cfg = points[i];
        std::string bytes;
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(tracer, "sim.runOne", i);
            bytes = serializeRunResult(
                runner.runOne(cfg.workload, cfg.policy, cfg));
        }
        const double s = secondsSince(t0);
        sim_seconds += s;
        core_cycles += static_cast<double>(proto.warmup_cycles
                                           + proto.measure_cycles)
            * cfg.multicore.num_cores;
        point_ms[i].push_back(s * 1e3);
        if (first[i].empty()) {
            first[i] = bytes;
            rep.check(!bytes.empty(), "empty result");
        } else {
            rep.check(bytes == first[i],
                      cfg.workload.name + ": a repeat run's RunResult bytes "
                                          "differ from the first run's");
        }
    }

    void
    report(const RunProtocol &proto, Report &rep)
    {
        addOpMetrics(rep, round_ms);
        for (const auto &b : first)
            rep.digestResult(b);
        std::vector<double> all_ms;
        for (const auto &v : point_ms)
            all_ms.insert(all_ms.end(), v.begin(), v.end());
        rep.add(rep.extra, "sim_mcycles_per_s",
                core_cycles / sim_seconds / 1e6, "Mcycles/s");
        rep.add(rep.extra, "point_ms_p50", median(all_ms), "ms");
        addColdStartShare(proto, rep);
    }
};

serve::PointSpec
specFor(const SimConfig &cfg, const RunProtocol &proto)
{
    serve::PointSpec s;
    s.benchmark = cfg.workload.name;
    s.policy = dtmPolicyKindName(cfg.policy.kind);
    s.warmup_cycles = proto.warmup_cycles;
    s.measure_cycles = proto.measure_cycles;
    if (cfg.multicore.num_cores > 1) {
        s.num_cores = cfg.multicore.num_cores;
        s.coupling_r = cfg.multicore.coupling_resistance.value();
        s.chip_budget = cfg.multicore.chip_budget.value();
        s.budget_policy =
            static_cast<std::uint8_t>(cfg.multicore.budget_policy);
    }
    return s;
}

} // namespace

// Low to extreme thermal categories and small to large memory and code
// footprints: a gain that only helps full pipelines shows as spread.
Report
runSimSingle(const RunContext &ctx, Tracer *tracer, LayerInputs &li)
{
    static const char *const kProfiles[] = {
        "164.gzip", "300.twolf", "255.vortex",
        "176.gcc",  "179.art",   "186.crafty",
    };
    Report rep;
    // Long points: the first kColdStartCycles after a cold start run at
    // about 1.6x the steady rate; here they are 4% of a point's cycles
    // (1.3% under the default 300k + 1.2M protocol). Every workload
    // reports its own share.
    const RunProtocol proto{100000 / ctx.cycleDiv(),
                            400000 / ctx.cycleDiv()};
    PointRounds pr;
    const double setup_s = medianSetupSeconds(kSetupReps, [&] {
        pr.points.clear();
        for (const char *name : kProfiles) {
            for (const DtmPolicyKind kind :
                 {DtmPolicyKind::None, DtmPolicyKind::PID}) {
                SimConfig cfg;
                cfg.workload = seededProfile(name, ctx.seed);
                cfg.policy.kind = kind;
                pr.points.push_back(cfg);
            }
        }
        // Time to a first result: the first point, once.
        (void)ExperimentRunner(proto).runOne(pr.points[0].workload,
                                             pr.points[0].policy,
                                             pr.points[0]);
    });

    pr.run(ctx, proto, tracer, rep);
    pr.report(proto, rep);
    rep.add(rep.e2e, "setup_s", setup_s, "s");

    if (ctx.trace) {
        for (std::size_t i = 0; i < pr.points.size(); ++i) {
            li.twins.push_back(
                {pr.points[i], proto, pr.first[i], median(pr.point_ms[i])});
        }
        li.probe_config = pr.points.front();
        li.probe_proto = proto;
        li.probe_spec = specFor(pr.points.front(), proto);
    }
    return rep;
}

/**
 * Chip budget, well below unconstrained demand (≈390 W for 176.gcc on 16
 * cores); the traced run checks that it caps ladder levels.
 */
inline constexpr double kChip16BudgetW = 160.0;

// The only workload where per-core windows, ChipModel and the budget
// coordinator run.
Report
runSimChip16(const RunContext &ctx, Tracer *tracer, LayerInputs &li)
{
    // The cheapest first: set-up runs the first point.
    static const char *const kProfiles[] = {
        "164.gzip", "176.gcc", "179.art", "186.crafty",
    };
    Report rep;
    const RunProtocol proto{20000 / ctx.cycleDiv(), 80000 / ctx.cycleDiv()};
    PointRounds pr;
    const double setup_s = medianSetupSeconds(kSetupReps, [&] {
        pr.points.clear();
        for (const char *name : kProfiles) {
            SimConfig cfg;
            cfg.workload = seededProfile(name, ctx.seed);
            cfg.policy.kind = DtmPolicyKind::PerCorePid;
            cfg.multicore.num_cores = 16;
            cfg.multicore.coupling_resistance = 4.0;
            cfg.multicore.chip_budget = kChip16BudgetW;
            cfg.multicore.budget_policy = BudgetPolicy::ThermalHeadroom;
            pr.points.push_back(cfg);
        }
        (void)ExperimentRunner(proto).runOne(pr.points[0].workload,
                                             pr.points[0].policy,
                                             pr.points[0]);
    });

    pr.run(ctx, proto, tracer, rep);
    pr.report(proto, rep);
    rep.add(rep.e2e, "setup_s", setup_s, "s");

    if (!ctx.trace)
        return rep;

    // The traced extras run on 176.gcc, the profile whose demand the
    // budget is sized against.
    const std::size_t gcc = 1;
    const SimConfig &cfg = pr.points[gcc];

    // The budget must bind: the same point without it runs faster. Only
    // decidable when the measured window spans a couple of budget epochs.
    if (proto.measure_cycles >= 2 * cfg.dtm.sample_interval
                                    * cfg.multicore.budget_epoch_samples) {
        ScopedSpan span(tracer, "chip.unbudgeted", 0);
        SimConfig free_cfg = cfg;
        free_cfg.multicore.chip_budget = 0.0;
        RunResult capped;
        rep.check(deserializeRunResult(pr.first[gcc], capped)
                      == RunResultDecodeStatus::Ok,
                  "cannot decode the first chip point");
        const RunResult free_run = ExperimentRunner(proto).runOne(
            free_cfg.workload, free_cfg.policy, free_cfg);
        rep.add(rep.extra, "multicore.unbudgeted_power_w",
                free_run.avg_power.value(), "W");
        rep.add(rep.extra, "multicore.budget_duty_drop",
                free_run.mean_duty - capped.mean_duty, "count");
        rep.check(capped.mean_duty < free_run.mean_duty,
                  "chip budget never capped a ladder level");
    }

    // Window-by-window run: host time per sample window, and the same
    // statistics as one unchunked run.
    {
        const std::uint64_t window = cfg.dtm.sample_interval;
        multicore::MulticoreSimulator chunked(cfg);
        multicore::MulticoreSimulator whole(cfg);
        chunked.warmUp(proto.warmup_cycles);
        whole.warmUp(proto.warmup_cycles);
        std::vector<double> window_us;
        for (std::uint64_t done = 0; done < proto.measure_cycles;) {
            const std::uint64_t n =
                std::min(window, proto.measure_cycles - done);
            const Clock::time_point t0 = Clock::now();
            chunked.run(n);
            window_us.push_back(secondsSince(t0) * 1e6);
            done += n;
        }
        whole.run(proto.measure_cycles);
        const auto &a = chunked.stats();
        const auto &b = whole.stats();
        rep.check(a.nominal_cycles == b.nominal_cycles
                      && a.executed_cycles == b.executed_cycles
                      && a.committed == b.committed
                      && a.emergency_cycles == b.emergency_cycles
                      && a.stress_cycles == b.stress_cycles
                      && a.samples == b.samples
                      && a.freq_scale_sum == b.freq_scale_sum
                      && a.max_temperature == b.max_temperature,
                  "chunked multicore run differs from the unchunked run");
        const double w = median(window_us);
        rep.add(rep.extra, "multicore.window_us", w, "us");
        rep.add(rep.extra, "multicore.window_per_core_us",
                w / cfg.multicore.num_cores, "us");
    }

    // A standalone 16-core thermal network step.
    {
        const Floorplan fp(cfg.floorplan);
        multicore::ChipModel chip(fp, cfg.thermal,
                                  cfg.power.tech.cycleSeconds(),
                                  cfg.multicore);
        std::vector<PowerVector> power(cfg.multicore.num_cores);
        for (auto &p : power)
            p.value.fill(1.0);
        const std::size_t n = ctx.smoke ? 200 : 5000;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            chip.step(power);
        rep.add(rep.extra, "thermal.chip_step_us",
                secondsSince(t0) * 1e6 / static_cast<double>(n), "us");
    }

    // Twin: the single-core PID run of the same profile.
    SimConfig single;
    single.workload = cfg.workload;
    single.policy.kind = DtmPolicyKind::PID;
    li.twins.push_back({single, proto, {}, 0.0});
    li.probe_config = cfg;
    li.probe_proto = proto;
    li.probe_spec = specFor(cfg, proto);
    return rep;
}

} // namespace thermctl::perf
