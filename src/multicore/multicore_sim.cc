#include "multicore/multicore_sim.hh"

#include <algorithm>
#include <cmath>

#include "check/invariants.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/policy_factory.hh"
#include "workload/trace.hh"

namespace thermctl::multicore
{

namespace
{

/** Instruction source for one core: trace or seed-offset synthetic. */
std::unique_ptr<InstructionStream>
makeStream(const SimConfig &cfg, std::size_t core_index)
{
    if (!cfg.trace_path.empty()) {
        return std::make_unique<TraceReader>(cfg.trace_path,
                                             cfg.trace_loop);
    }
    // Offset the workload seed per core so cores run decorrelated
    // instances of the same profile (identical seeds would phase-lock
    // every core's activity and defeat the budget-contention scenarios).
    WorkloadProfile profile = cfg.workload;
    profile.seed += core_index;
    return std::make_unique<SyntheticWorkload>(profile);
}

/** Build one core's controller for the configured policy kind. */
std::unique_ptr<CoreController>
makeController(const SimConfig &cfg, const FopdtPlant &plant)
{
    const DtmPolicySettings &s = cfg.policy;
    const Seconds sample_dt =
        static_cast<double>(cfg.dtm.sample_interval)
        * cfg.power.tech.cycleSeconds();

    const auto make_pid = [&](ControllerKind kind, Celsius setpoint) {
        PidConfig pc = tuneLoopShaping(kind, plant, s.shaping);
        pc.setpoint = setpoint;
        pc.dt = sample_dt;
        pc.out_min = 0.0;
        pc.out_max = 1.0;
        pc.anti_windup = AntiWindup::Conditional;
        pc.integral_init = pc.out_max; // cool core starts at full speed
        return std::make_unique<FixedPidCoreController>(pc);
    };

    switch (s.kind) {
      case DtmPolicyKind::None:
        return nullptr; // uncapped: budget clamp may still engage
      case DtmPolicyKind::P:
        return make_pid(ControllerKind::P, s.p_setpoint);
      case DtmPolicyKind::PI:
        return make_pid(ControllerKind::PI, s.ct_setpoint);
      case DtmPolicyKind::PID:
      case DtmPolicyKind::PerCorePid:
        return make_pid(ControllerKind::PID, s.ct_setpoint);
      case DtmPolicyKind::AdjIntegral: {
        AdjustableIntegralConfig ac;
        ac.setpoint = s.ct_setpoint;
        // Seed the sensitivity estimate from the derived plant gain
        // (the temperature swing a full-range duty change commands);
        // the online estimator refines it from observed responses.
        ac.initial_sensitivity = std::clamp(
            plant.gain, ac.sensitivity_min, ac.sensitivity_max);
        return std::make_unique<AdjustableIntegralController>(ac);
      }
      default:
        fatal("policy '", dtmPolicyKindName(s.kind),
              "' is not supported by the multicore engine (supported: "
              "none, P, PI, PID, percore-PID, adj-integral)");
    }
}

} // namespace

MulticoreSimulator::MulticoreSimulator(const SimConfig &cfg)
    : cfg_(cfg),
      floorplan_(cfg.floorplan),
      power_(cfg.power, cfg.cpu, cfg.memory),
      chip_(floorplan_, cfg.thermal, cfg.power.tech.cycleSeconds(),
            cfg.multicore)
{
    const MulticoreConfig &mc = cfg.multicore;
    if (mc.budget_epoch_samples < 1)
        fatal("MulticoreSimulator: budget_epoch_samples must be >= 1");
    if (cfg.dtm.sample_interval == 0)
        fatal("MulticoreSimulator: sample interval must be positive");

    const FopdtPlant plant = deriveDtmPlant(
        floorplan_, power_, cfg.dtm, cfg.power.tech.cycleSeconds());

    // Bounded: chip_'s ChipModel ctor ran in the member-init list above
    // and fatally rejects num_cores outside [1, kMaxCores].
    const std::size_t n = mc.num_cores;
    cores_.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
        auto unit = std::make_unique<CoreUnit>(mc.dvfs_levels,
                                               mc.dvfs_min_scale);
        unit->workload = makeStream(cfg, c);
        unit->memory = std::make_unique<MemoryHierarchy>(cfg.memory);
        unit->core = std::make_unique<Core>(cfg.cpu, *unit->workload,
                                            *unit->memory);
        unit->controller = makeController(cfg, plant);
        cores_.push_back(std::move(unit));
    }

    if (mc.chip_budget.value() > 0.0) {
        coordinator_ = std::make_unique<BudgetCoordinator>(
            mc.chip_budget, mc.budget_policy, cfg.thermal.t_emergency);
    }

    sample_power_.resize(n);
    hottest_.resize(n);
    demand_.resize(n);
}

void
MulticoreSimulator::run(std::uint64_t nominal_cycles)
{
    // Cores interact only through sample(): between two window
    // barriers each one runs alone, so the cores of a segment are
    // ticked in parallel and joined before anything shared is touched.
    const std::uint64_t interval = cfg_.dtm.sample_interval;
    while (nominal_cycles > 0) {
        const std::uint64_t segment =
            std::min(nominal_cycles, interval - since_sample_);
        parallelFor(cores_.size(), [this, segment](std::size_t c) {
            runCore(*cores_[c], segment);
        });
        for (const auto &unit : cores_) {
            stats_.executed_cycles += unit->executed_cycles;
            unit->executed_cycles = 0;
        }
        stats_.nominal_cycles += segment;
        nominal_cycles -= segment;
        if ((since_sample_ += segment) >= interval)
            sample();
    }
}

void
MulticoreSimulator::runCore(CoreUnit &unit, std::uint64_t cycles) const
{
    // The ladder level only changes in sample(), so the power scale is
    // fixed for the whole segment.
    const double ps =
        unit.ladder.powerScale(cfg_.power.voltage_scaling_alpha);
    for (std::uint64_t k = 0; k < cycles; ++k) {
        if (!unit.ladder.clockGate())
            continue; // scaled core skips this nominal edge
        unit.core->tick();
        const PowerVector p = power_.cyclePower(unit.core->activity());
        for (std::size_t j = 0; j < kNumStructures; ++j)
            unit.window_power.value[j] += p.value[j] * ps;
        ++unit.executed_cycles;
    }
}

void
MulticoreSimulator::sample()
{
    const std::uint64_t window = since_sample_;
    if (window == 0)
        return;
    const std::size_t n = cores_.size();
    const double inv = 1.0 / static_cast<double>(window);
    const double alpha = cfg_.power.voltage_scaling_alpha;

    // Window-average power per core, plus ladder leakage (linear in V).
    for (std::size_t c = 0; c < n; ++c) {
        const CoreUnit &unit = *cores_[c];
        PowerVector &sp = sample_power_[c];
        for (std::size_t j = 0; j < kNumStructures; ++j)
            sp.value[j] = unit.window_power.value[j] * inv;
        if (cfg_.power.leakage_enabled) {
            const PowerVector leak =
                power_.leakagePower(chip_.temperatures(c).value);
            const double v = unit.ladder.voltageRatio(alpha);
            for (std::size_t j = 0; j < kNumStructures; ++j)
                sp.value[j] += leak.value[j] * v;
        }
        THERMCTL_INVARIANT(check::verifyFinite(
            sp, "MulticoreSimulator::sample"));
    }

    chip_.stepSpan(sample_power_, window);

    // ------------------------------------------------------- metrics
    const Celsius t_emerg = cfg_.thermal.t_emergency;
    const Celsius t_stress = cfg_.thermal.stressLevel();
    bool chip_emerg = false;
    bool chip_stress = false;
    std::array<bool, kNumStructures> st_emerg{};
    std::array<bool, kNumStructures> st_stress{};
    for (std::size_t c = 0; c < n; ++c) {
        const TemperatureVector &temps = chip_.temperatures(c);
        hottest_[c] = temps.maxHotspot();
        stats_.max_temperature =
            std::max(stats_.max_temperature, hottest_[c]);
        if (hottest_[c] > t_emerg)
            chip_emerg = true;
        if (hottest_[c] > t_stress)
            chip_stress = true;
        for (std::size_t j = 0; j < kNumStructures; ++j) {
            auto &s = stats_.structures[j];
            const Celsius t = temps.value[j];
            s.temp_sum += t.value() * static_cast<double>(window);
            s.temp_max = std::max(s.temp_max, t);
            s.power_sum += sample_power_[c].value[j]
                * static_cast<double>(window);
            if (t > t_emerg)
                st_emerg[j] = true;
            if (t > t_stress)
                st_stress[j] = true;
        }
        for (std::size_t j = 0; j < kNumStructures; ++j) {
            cores_[c]->meas_power.value[j] += sample_power_[c].value[j]
                * static_cast<double>(window);
        }
    }
    for (std::size_t j = 0; j < kNumStructures; ++j) {
        if (st_emerg[j])
            stats_.structures[j].emergency_cycles += window;
        if (st_stress[j])
            stats_.structures[j].stress_cycles += window;
    }
    if (chip_emerg)
        stats_.emergency_cycles += window;
    if (chip_stress)
        stats_.stress_cycles += window;

    // ------------------------------------------------------- control
    for (std::size_t c = 0; c < n; ++c) {
        CoreUnit &unit = *cores_[c];
        if (unit.controller)
            unit.ladder.setDuty(unit.controller->update(hottest_[c]));
        else
            unit.ladder.setLevel(unit.ladder.levels());
    }

    // -------------------------------------------------- budget epoch
    if (coordinator_) {
        if (++samples_since_epoch_
            >= cfg_.multicore.budget_epoch_samples) {
            samples_since_epoch_ = 0;
            for (std::size_t c = 0; c < n; ++c) {
                const CoreUnit &unit = *cores_[c];
                // Full-speed demand: what this core would draw at the
                // nominal operating point, estimated by unscaling the
                // window's observed power.
                double total = 0.0;
                for (double w : sample_power_[c].value)
                    total += w;
                demand_[c] =
                    Watts(total / unit.ladder.powerScale(alpha));
            }
            const std::vector<Watts> budgets =
                coordinator_->split(demand_, hottest_);
            for (std::size_t c = 0; c < n; ++c) {
                cores_[c]->budget_cap_level =
                    capLevel(demand_[c], budgets[c]);
            }
        }
        // The cap from the current epoch clamps every sample.
        for (const auto &unit : cores_) {
            if (unit->ladder.level() > unit->budget_cap_level)
                unit->ladder.setLevel(unit->budget_cap_level);
        }
    }

    for (const auto &unit : cores_)
        stats_.freq_scale_sum += unit->ladder.freqScale();
    ++stats_.samples;
    // Core commit counters reset together with stats_, so the running
    // total is the measurement-window total (refreshed per sample).
    stats_.committed = committedTotal();

    for (const auto &unit : cores_)
        unit->window_power = PowerVector{};
    since_sample_ = 0;
}

std::uint32_t
MulticoreSimulator::capLevel(Watts full_speed_demand, Watts cap) const
{
    const double alpha = cfg_.power.voltage_scaling_alpha;
    const DvfsLadder &ladder = cores_[0]->ladder;
    const double demand = std::max(full_speed_demand.value(), 1e-9);
    for (std::uint32_t level = ladder.levels();; --level) {
        const double s = ladder.freqScale(level);
        const double v = alpha + (1.0 - alpha) * s;
        if (demand * s * v * v <= cap.value() || level == 0)
            return level;
    }
}

void
MulticoreSimulator::warmUp(std::uint64_t cycles)
{
    const std::uint64_t half = cycles / 2;
    run(half);

    // Jump the thermal network to the steady state of the per-core
    // average power observed so far, then settle for the second half.
    const double den =
        std::max<double>(1.0, static_cast<double>(stats_.nominal_cycles));
    std::vector<PowerVector> avg(cores_.size());
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        for (std::size_t j = 0; j < kNumStructures; ++j)
            avg[c].value[j] = cores_[c]->meas_power.value[j] / den;
    }
    chip_.warmStart(avg);

    run(cycles - half);
    resetMeasurement();
}

void
MulticoreSimulator::resetMeasurement()
{
    stats_ = ChipStats{};
    for (const auto &unit : cores_) {
        unit->core->resetStats();
        unit->meas_power = PowerVector{};
    }
}

std::uint64_t
MulticoreSimulator::committedTotal() const
{
    std::uint64_t total = 0;
    for (const auto &unit : cores_)
        total += unit->core->stats().committed;
    return total;
}

RunResult
runMulticoreOne(const SimConfig &cfg, const RunProtocol &proto)
{
    MulticoreSimulator sim(cfg);
    sim.warmUp(proto.warmup_cycles);
    sim.run(proto.measure_cycles);

    const ChipStats &s = sim.stats();
    const double nom = static_cast<double>(s.nominal_cycles);
    const double ncores = static_cast<double>(sim.numCores());

    RunResult r;
    r.benchmark = cfg.workload.name;
    r.policy = dtmPolicyKindName(cfg.policy.kind);
    r.category = cfg.workload.category;
    // Aggregate chip throughput on the nominal wall clock: every
    // nominal cycle is one period of wall time, so committed / nominal
    // charges DVFS slowdown exactly like measuredPerformance() does.
    r.ipc = nom > 0.0
        ? static_cast<double>(sim.committedTotal()) / nom
        : 0.0;
    r.raw_ipc = s.executed_cycles
        ? static_cast<double>(sim.committedTotal())
            / static_cast<double>(s.executed_cycles)
        : 0.0;
    double p_total = 0.0;
    for (const auto &st : s.structures)
        p_total += st.power_sum;
    r.avg_power = nom > 0.0 ? p_total / nom : 0.0;
    r.emergency_fraction = nom > 0.0
        ? static_cast<double>(s.emergency_cycles) / nom
        : 0.0;
    r.stress_fraction = nom > 0.0
        ? static_cast<double>(s.stress_cycles) / nom
        : 0.0;
    r.max_temperature = s.samples ? s.max_temperature : Celsius(0.0);
    r.mean_duty = s.samples
        ? s.freq_scale_sum
            / (static_cast<double>(s.samples) * ncores)
        : 1.0;
    for (std::size_t j = 0; j < kNumStructures; ++j) {
        auto &det = r.structures[j];
        const auto &st = s.structures[j];
        det.avg_temp = nom > 0.0 ? st.temp_sum / (nom * ncores) : 0.0;
        det.max_temp = s.samples
            ? st.temp_max
            : Celsius(0.0);
        det.avg_power = nom > 0.0 ? st.power_sum / nom : 0.0;
        det.emergency_fraction = nom > 0.0
            ? static_cast<double>(st.emergency_cycles) / nom
            : 0.0;
        det.stress_fraction = nom > 0.0
            ? static_cast<double>(st.stress_cycles) / nom
            : 0.0;
    }
    return r;
}

void
ensureBackendRegistered()
{
    registerMulticoreBackend(&runMulticoreOne);
}

} // namespace thermctl::multicore
