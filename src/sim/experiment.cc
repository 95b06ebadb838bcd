#include "sim/experiment.hh"

#include <atomic>

#include "common/logging.hh"

namespace thermctl
{

namespace
{

std::atomic<MulticoreRunFn> g_multicore_backend{nullptr};

} // namespace

void
registerMulticoreBackend(MulticoreRunFn fn)
{
    g_multicore_backend.store(fn, std::memory_order_release);
}

bool
needsMulticoreEngine(const SimConfig &cfg)
{
    return cfg.multicore.num_cores > 1
        || isMulticorePolicy(cfg.policy.kind);
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

    if (needsMulticoreEngine(cfg)) {
        const MulticoreRunFn fn =
            g_multicore_backend.load(std::memory_order_acquire);
        if (!fn) {
            fatal("multicore config (num_cores=", cfg.multicore.num_cores,
                  ", policy=", dtmPolicyKindName(cfg.policy.kind),
                  ") but no multicore backend registered; call "
                  "multicore::ensureBackendRegistered() at startup");
        }
        return fn(cfg, protocol_);
    }

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
