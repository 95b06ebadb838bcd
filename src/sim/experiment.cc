#include "sim/experiment.hh"

#include "multicore/multicore_sim.hh"

namespace thermctl
{

bool
needsMulticoreEngine(const SimConfig &cfg)
{
    return cfg.multicore.num_cores > 1
        || cfg.policy.kind == DtmPolicyKind::PerCorePid
        || cfg.policy.kind == DtmPolicyKind::AdjIntegral;
}

ExperimentRunner::ExperimentRunner(const RunProtocol &protocol)
    : protocol_(protocol)
{
}

RunResult
ExperimentRunner::runOne(const WorkloadProfile &profile,
                         const DtmPolicySettings &policy,
                         const SimConfig &base) const
{
    SimConfig cfg = base;
    cfg.workload = profile;
    cfg.policy = policy;

    if (needsMulticoreEngine(cfg))
        return multicore::runMulticoreOne(cfg, protocol_);

    Simulator sim(cfg);
    sim.warmUp(protocol_.warmup_cycles);
    sim.run(protocol_.measure_cycles);
    return collectRunResult(sim);
}

RunResult
collectRunResult(const Simulator &sim)
{
    const SimConfig &cfg = sim.config();
    RunResult result;
    result.benchmark = cfg.workload.name;
    result.policy = dtmPolicyKindName(cfg.policy.kind);
    result.category = cfg.workload.category;
    // Wall-time-normalized performance: equals IPC except under
    // frequency scaling, which must be charged for its slower clock.
    result.ipc = sim.measuredPerformance();
    result.raw_ipc = sim.measuredIpc();
    result.avg_power = sim.stats().avgPower();

    const auto &dtm_stats = sim.dtm().stats();
    result.emergency_fraction = dtm_stats.emergencyFraction();
    result.stress_fraction = dtm_stats.stressFraction();
    result.max_temperature = dtm_stats.max_temperature;
    result.mean_duty = dtm_stats.samples
        ? dtm_stats.duty_sum / static_cast<double>(dtm_stats.samples)
        : 1.0;

    const auto &stats = sim.stats();
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        const auto id = static_cast<StructureId>(i);
        auto &det = result.structures[i];
        const auto &s = stats.structures[i];
        det.avg_temp = stats.avgTemperature(id);
        det.max_temp = s.temp_max;
        det.avg_power = stats.avgStructurePower(id);
        const double cycles = static_cast<double>(stats.cycles);
        det.emergency_fraction = cycles
            ? static_cast<double>(s.emergency_cycles) / cycles
            : 0.0;
        det.stress_fraction = cycles
            ? static_cast<double>(s.stress_cycles) / cycles
            : 0.0;
    }
    return result;
}

BoxcarWindows
runBoxcarProxies(const WorkloadProfile &profile, const RunProtocol &proto,
                 BoxcarProxyKind kind)
{
    SimConfig cfg;
    cfg.workload = profile;
    Simulator sim(cfg);
    const Celsius t_emergency = cfg.thermal.t_emergency;
    // Only `kind`'s proxies are built and fed, one per window.
    std::vector<StructureBoxcarProxy> structure;
    std::vector<ChipBoxcarProxy> chip;
    for (std::size_t window : {10000, 500000}) {
        if (kind == BoxcarProxyKind::Chip)
            chip.emplace_back(window, 47.0);
        else
            structure.emplace_back(sim.floorplan(), cfg.thermal, window,
                                   t_emergency);
    }
    sim.warmUp(proto.warmup_cycles);

    BoxcarWindows run;
    ProxyComparison *const windows[] = {&run.small, &run.large};
    const TemperatureVector &temps = sim.thermal().temperatures();
    for (std::uint64_t c = 0; c < proto.measure_cycles; ++c) {
        sim.tick();
        const PowerVector &p = sim.lastPower();
        for (std::size_t w = 0; w < chip.size(); ++w) {
            chip[w].add(p.total());
            windows[w]->record(temps.maxHotspot() > t_emergency,
                               chip[w].triggered());
        }
        for (std::size_t w = 0; w < structure.size(); ++w) {
            structure[w].add(p);
            for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
                const auto id = static_cast<StructureId>(i);
                windows[w]->record(temps[id] > t_emergency,
                                   structure[w].triggered(id));
            }
        }
    }
    return run;
}

ThermalCategory
classifyThermalBehaviour(const RunResult &run)
{
    // Paper Table 5: extreme programs actually enter emergency; high
    // ones spend essentially all their time within a degree of it
    // (the paper's "as much as 98%"); medium ones a substantial
    // fraction; low ones only occasionally.
    if (run.emergency_fraction > 0.001)
        return ThermalCategory::Extreme;
    if (run.stress_fraction >= 0.97)
        return ThermalCategory::High;
    if (run.stress_fraction >= 0.40)
        return ThermalCategory::Medium;
    return ThermalCategory::Low;
}

} // namespace thermctl
