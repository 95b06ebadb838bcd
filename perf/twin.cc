#include "twin.hh"

#include <algorithm>
#include <memory>

#include "perf_util.hh"
#include "sim/policy_factory.hh"
#include "sim/simulator.hh"

namespace thermctl::perf
{

namespace
{

/** The synthetic workload behind a tick counter. */
class TimedStream : public InstructionStream
{
  public:
    explicit TimedStream(const WorkloadProfile &profile) : inner_(profile) {}

    MicroOp
    next() override
    {
        const std::uint64_t t = ticks();
        const MicroOp op = inner_.next();
        ticks_ += ticks() - t;
        ++calls_;
        return op;
    }

    MicroOp
    synthesizeAt(Addr pc) override
    {
        const std::uint64_t t = ticks();
        const MicroOp op = inner_.synthesizeAt(pc);
        ticks_ += ticks() - t;
        ++calls_;
        return op;
    }

    bool done() const override { return inner_.done(); }

    std::uint64_t ticks_ = 0;
    std::uint64_t calls_ = 0;

  private:
    SyntheticWorkload inner_;
};

/** Cycle-counter ticks per layer, summed over every simulated cycle. */
struct LayerTicks
{
    std::uint64_t cpu = 0, power = 0, thermal = 0, dtm = 0, glue = 0;
    std::uint64_t loop = 0; ///< the cycle loops themselves
    std::uint64_t cold = 0; ///< the first kColdStartCycles of `loop`
};

/** Snapshot of the cumulative counters the window counts diff against. */
struct CounterBase
{
    BranchPredictorStats branch;
    CacheStats l1i, l1d, l2;
};

double
missRate(const CacheStats &now, const CacheStats &base)
{
    const auto acc = static_cast<double>(now.accesses() - base.accesses());
    return acc > 0.0
        ? static_cast<double>(now.misses() - base.misses()) / acc
        : 0.0;
}

/**
 * Simulator's member layout and cycle, for the fixed-clock, leakage-off
 * configurations twinSupports() admits. Every floating-point operation
 * that feeds the result happens in Simulator's order.
 */
class Twin
{
  public:
    explicit Twin(const SimConfig &cfg)
        : cfg_(cfg), stream_(cfg.workload), memory_(cfg.memory),
          core_(cfg.cpu, stream_, memory_),
          power_(cfg.power, cfg.cpu, cfg.memory),
          floorplan_(cfg.floorplan),
          thermal_(floorplan_, cfg.thermal, cfg.power.tech.cycleSeconds()),
          plant_(deriveDtmPlant(floorplan_, power_, cfg.dtm,
                                cfg.power.tech.cycleSeconds()))
    {
        dtm_ = std::make_unique<DtmManager>(
            cfg.dtm, cfg.thermal,
            makeDtmPolicy(cfg.policy, plant_, cfg.dtm,
                          cfg.power.tech.cycleSeconds()));
    }

    /**
     * One cycle. Segments are chained (each starts where the previous
     * ended, across cycles too), so the layers tile the loop and the
     * glue segment absorbs the loop's own overhead.
     */
    void
    tick()
    {
        const std::uint64_t t0 = last_stamp_;
        const DtmCommand &cmd = dtm_->command();
        if (cmd.freq_scale != 1.0)
            clock_fixed_ = false;
        core_.setFetchWidthLimit(cmd.width_limit);
        core_.setSpeculationLimit(cmd.spec_limit);
        core_.setFetchEnabled(fetch_allowed_);
        const std::uint64_t w0 = stream_.ticks_;
        const std::uint64_t t1 = ticks();
        core_.tick();
        const std::uint64_t t2 = ticks();
        last_power_ = power_.cyclePower(core_.activity());
        const std::uint64_t t3 = ticks();
        thermal_.step(last_power_);
        measured_wall_seconds_ += 1.0 * cfg_.power.tech.cycleSeconds();
        const std::uint64_t t4 = ticks();
        fetch_allowed_ = dtm_->tick(thermal_.temperatures(), now_);
        const std::uint64_t t5 = ticks();

        ++stats_.cycles;
        const auto &temps = thermal_.temperatures();
        const Celsius t_emerg = cfg_.thermal.t_emergency;
        const Celsius t_stress = cfg_.thermal.stressLevel();
        for (std::size_t i = 0; i < kNumStructures; ++i) {
            stats_.power_sum.value[i] += last_power_.value[i];
            auto &s = stats_.structures[i];
            const Celsius t = temps.value[i];
            s.temp_sum += t;
            s.temp_max = std::max(s.temp_max, t);
            if (t > t_emerg)
                ++s.emergency_cycles;
            if (t > t_stress)
                ++s.stress_cycles;
        }
        ++now_;
        const std::uint64_t t6 = ticks();
        last_stamp_ = t6;

        layers_.cpu += (t2 - t1) - (stream_.ticks_ - w0);
        layers_.power += t3 - t2;
        layers_.thermal += t4 - t3;
        layers_.dtm += t5 - t4;
        layers_.glue += (t1 - t0) + (t6 - t5);
        if (now_ <= kColdStartCycles)
            layers_.cold += t6 - t0;
    }

    void
    run(std::uint64_t n)
    {
        const std::uint64_t t = ticks();
        last_stamp_ = t;
        for (std::uint64_t i = 0; i < n; ++i)
            tick();
        layers_.loop += last_stamp_ - t;
    }

    void
    warmUp(std::uint64_t cycles)
    {
        const std::uint64_t half = cycles / 2;
        run(half);
        PowerVector avg;
        for (std::size_t i = 0; i < kNumStructures; ++i) {
            avg.value[i] = stats_.cycles
                ? stats_.power_sum.value[i]
                      / static_cast<double>(stats_.cycles)
                : 0.0;
        }
        thermal_.warmStart(avg);
        run(cycles - half);
        resetMeasurement();
    }

    void
    resetMeasurement()
    {
        stats_ = SimulatorStats{};
        core_.resetStats();
        dtm_->resetStats();
        measured_wall_seconds_ = 0.0;
        base_ = {core_.predictor().stats(), memory_.l1i().stats(),
                 memory_.l1d().stats(), memory_.l2().stats()};
    }

    /** Mirror of ExperimentRunner::runOne's result assembly. */
    RunResult
    result() const
    {
        RunResult result;
        result.benchmark = cfg_.workload.name;
        result.policy = dtmPolicyKindName(cfg_.policy.kind);
        result.category = cfg_.workload.category;
        result.ipc = measured_wall_seconds_ > 0.0
            ? static_cast<double>(core_.stats().committed)
                / (measured_wall_seconds_ * cfg_.power.tech.freq_hz)
            : 0.0;
        result.raw_ipc = core_.stats().ipc();
        result.avg_power = stats_.avgPower();

        const auto &dtm_stats = dtm_->stats();
        result.emergency_fraction = dtm_stats.emergencyFraction();
        result.stress_fraction = dtm_stats.stressFraction();
        result.max_temperature = dtm_stats.max_temperature;
        result.mean_duty = dtm_stats.samples
            ? dtm_stats.duty_sum / static_cast<double>(dtm_stats.samples)
            : 1.0;

        for (std::size_t i = 0; i < kNumStructures; ++i) {
            const auto id = static_cast<StructureId>(i);
            auto &det = result.structures[i];
            const auto &s = stats_.structures[i];
            det.avg_temp = stats_.avgTemperature(id);
            det.max_temp = s.temp_max;
            det.avg_power = stats_.avgStructurePower(id);
            const double cycles = static_cast<double>(stats_.cycles);
            det.emergency_fraction = cycles
                ? static_cast<double>(s.emergency_cycles) / cycles
                : 0.0;
            det.stress_fraction = cycles
                ? static_cast<double>(s.stress_cycles) / cycles
                : 0.0;
        }
        return result;
    }

    void
    fillCounts(TwinOutcome &out) const
    {
        const CpuStats &cs = core_.stats();
        const auto &bp = core_.predictor().stats();
        out.ipc = cs.ipc();
        out.wrong_path_frac = cs.fetched
            ? static_cast<double>(cs.wrong_path_ops)
                / static_cast<double>(cs.fetched)
            : 0.0;
        out.squashes_per_kcycle = cs.cycles
            ? 1000.0 * static_cast<double>(cs.squashes)
                / static_cast<double>(cs.cycles)
            : 0.0;
        out.dir_wrong_per_kinst = cs.committed
            ? 1000.0
                * static_cast<double>(bp.dir_wrong - base_.branch.dir_wrong)
                / static_cast<double>(cs.committed)
            : 0.0;
        out.l1i_miss_rate = missRate(memory_.l1i().stats(), base_.l1i);
        out.l1d_miss_rate = missRate(memory_.l1d().stats(), base_.l1d);
        out.l2_miss_rate = missRate(memory_.l2().stats(), base_.l2);
        out.clock_fixed = clock_fixed_;
        out.workload_calls = stream_.calls_;
    }

    const LayerTicks &layerTicks() const { return layers_; }
    std::uint64_t workloadTicks() const { return stream_.ticks_; }

  private:
    SimConfig cfg_;
    TimedStream stream_;
    MemoryHierarchy memory_;
    Core core_;
    PowerModel power_;
    Floorplan floorplan_;
    SimplifiedRCModel thermal_;
    FopdtPlant plant_;
    std::unique_ptr<DtmManager> dtm_;

    bool fetch_allowed_ = true;
    bool clock_fixed_ = true;
    Cycle now_ = 0;
    PowerVector last_power_;
    SimulatorStats stats_;
    double measured_wall_seconds_ = 0.0;
    CounterBase base_;
    LayerTicks layers_;
    std::uint64_t last_stamp_ = 0; ///< end of the previous segment
};

} // namespace

bool
twinSupports(const SimConfig &cfg)
{
    const DtmPolicyKind k = cfg.policy.kind;
    return cfg.trace_path.empty() && cfg.multicore.num_cores <= 1
        && !cfg.power.leakage_enabled && !cfg.policy.failsafe
        && (k == DtmPolicyKind::None || k == DtmPolicyKind::PID);
}

TwinOutcome
runTwin(const SimConfig &cfg, const RunProtocol &proto)
{
    Twin twin(cfg);
    const std::int64_t ns0 = nowNs();
    const std::uint64_t tk0 = ticks();
    twin.warmUp(proto.warmup_cycles);
    twin.run(proto.measure_cycles);
    const std::uint64_t tk1 = ticks();
    const std::int64_t ns1 = nowNs();

    TwinOutcome out;
    out.result = twin.result();
    twin.fillCounts(out);
    out.cycles = proto.warmup_cycles + proto.measure_cycles;
    const double ns_per_tick = tk1 > tk0
        ? static_cast<double>(ns1 - ns0) / static_cast<double>(tk1 - tk0)
        : 1.0;
    const auto ns = [&](std::uint64_t t) {
        return static_cast<double>(t) * ns_per_tick;
    };
    const LayerTicks &lt = twin.layerTicks();
    out.wall_ns = ns(lt.loop);
    out.cold_ns = ns(lt.cold);
    out.cpu_ns = ns(lt.cpu);
    out.workload_ns = ns(twin.workloadTicks());
    out.power_ns = ns(lt.power);
    out.thermal_ns = ns(lt.thermal);
    out.dtm_ns = ns(lt.dtm);
    out.glue_ns = ns(lt.glue);
    return out;
}

} // namespace thermctl::perf
