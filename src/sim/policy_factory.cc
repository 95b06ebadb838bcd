#include "sim/policy_factory.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "dtm/failsafe.hh"

namespace thermctl
{

const char *
dtmPolicyKindName(DtmPolicyKind kind)
{
    switch (kind) {
      case DtmPolicyKind::None: return "none";
      case DtmPolicyKind::Toggle1: return "toggle1";
      case DtmPolicyKind::Toggle2: return "toggle2";
      case DtmPolicyKind::Manual: return "M";
      case DtmPolicyKind::P: return "P";
      case DtmPolicyKind::PI: return "PI";
      case DtmPolicyKind::PID: return "PID";
      case DtmPolicyKind::Throttle: return "throttle";
      case DtmPolicyKind::SpecControl: return "spec-ctrl";
      case DtmPolicyKind::VfScale: return "vf-scaling";
      case DtmPolicyKind::Hierarchical: return "PID+vf";
      case DtmPolicyKind::PerCorePid: return "percore-PID";
      case DtmPolicyKind::AdjIntegral: return "adj-integral";
      default: return "?";
    }
}

const char *
budgetPolicyName(BudgetPolicy policy)
{
    switch (policy) {
      case BudgetPolicy::Uniform: return "uniform";
      case BudgetPolicy::DemandProportional: return "demand";
      case BudgetPolicy::ThermalHeadroom: return "headroom";
      default: return "?";
    }
}

bool
parseBudgetPolicy(const std::string &name, BudgetPolicy &out)
{
    for (BudgetPolicy p :
         {BudgetPolicy::Uniform, BudgetPolicy::DemandProportional,
          BudgetPolicy::ThermalHeadroom}) {
        if (name == budgetPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

namespace
{

/** The kinds the multicore engine runs. */
constexpr std::array<DtmPolicyKind, 6> kMulticoreEnginePolicies = {
    DtmPolicyKind::None,       DtmPolicyKind::P,
    DtmPolicyKind::PI,         DtmPolicyKind::PID,
    DtmPolicyKind::PerCorePid, DtmPolicyKind::AdjIntegral,
};

/** The kinds a user can name on the CLI or over the wire. */
constexpr std::array<DtmPolicyKind, 13> kNamedPolicies = {
    DtmPolicyKind::None,        DtmPolicyKind::Toggle1,
    DtmPolicyKind::Toggle2,     DtmPolicyKind::Manual,
    DtmPolicyKind::P,           DtmPolicyKind::PI,
    DtmPolicyKind::PID,         DtmPolicyKind::Throttle,
    DtmPolicyKind::SpecControl, DtmPolicyKind::VfScale,
    DtmPolicyKind::Hierarchical, DtmPolicyKind::PerCorePid,
    DtmPolicyKind::AdjIntegral,
};

} // namespace

void
requireMulticoreEnginePolicy(DtmPolicyKind kind)
{
    const auto &runs = kMulticoreEnginePolicies;
    if (std::find(runs.begin(), runs.end(), kind) != runs.end())
        return;
    std::string all;
    for (DtmPolicyKind k : runs)
        all += std::string(all.empty() ? "" : ", ") + dtmPolicyKindName(k);
    fatal("policy '", dtmPolicyKindName(kind),
          "' is not supported by the multicore engine (supported: ", all,
          ")");
}

bool
parseDtmPolicyKind(const std::string &name, DtmPolicyKind &out)
{
    for (DtmPolicyKind kind : kNamedPolicies) {
        if (name == dtmPolicyKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

DtmPolicyKind
requireDtmPolicyKind(const std::string &name)
{
    DtmPolicyKind kind;
    if (parseDtmPolicyKind(name, kind))
        return kind;
    std::string all;
    for (DtmPolicyKind k : kNamedPolicies)
        all += std::string(all.empty() ? "" : "|") + dtmPolicyKindName(k);
    fatal("unknown policy '", name, "' (expected one of ", all, ")");
}

FopdtPlant
deriveDtmPlant(const Floorplan &floorplan, const PowerModel &power,
               const DtmConfig &dtm, Seconds cycle_seconds)
{
    FopdtPlant plant;
    plant.tau = 0.0;
    plant.gain = 0.0;
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        const auto id = static_cast<StructureId>(i);
        const auto &blk = floorplan.block(id);
        plant.tau = std::max(plant.tau, blk.rc().value());
        // Power swing commanded by the duty range: about half the
        // block's peak (from full activity down to the gated floor).
        const double swing = 0.5 * power.peak()[id];
        plant.gain = std::max(plant.gain, blk.resistance * swing);
    }
    plant.dead_time =
        0.5 * static_cast<double>(dtm.sample_interval) * cycle_seconds;
    return plant;
}

PidConfig
ctPidConfig(ControllerKind kind, const FopdtPlant &plant,
            const LoopShapingSpec &shaping, Celsius setpoint,
            Seconds sample_dt)
{
    PidConfig cfg = tuneLoopShaping(kind, plant, shaping);
    cfg.setpoint = setpoint;
    cfg.dt = sample_dt;
    cfg.out_min = 0.0;
    cfg.out_max = 1.0;
    cfg.anti_windup = AntiWindup::Conditional;
    cfg.integral_init = cfg.out_max;
    return cfg;
}

namespace
{

/** Wrap in the sensor-fault failsafe when the settings ask for it. */
std::unique_ptr<DtmPolicy>
maybeFailsafe(std::unique_ptr<DtmPolicy> policy,
              const DtmPolicySettings &settings)
{
    if (!settings.failsafe)
        return policy;
    FailsafeConfig cfg;
    cfg.stuck_samples = settings.failsafe_stuck_samples;
    cfg.min_plausible = settings.failsafe_min_plausible;
    cfg.max_plausible = settings.failsafe_max_plausible;
    return std::make_unique<FailsafePolicy>(std::move(policy), cfg);
}

std::unique_ptr<DtmPolicy>
makeInnerPolicy(const DtmPolicySettings &settings, const FopdtPlant &plant,
                const DtmConfig &dtm, Seconds cycle_seconds)
{
    const double sample_dt =
        static_cast<double>(dtm.sample_interval) * cycle_seconds;

    auto make_ct = [&](ControllerKind kind, Celsius setpoint,
                       Celsius range_low) {
        return std::make_unique<CtPolicy>(
            kind,
            ctPidConfig(kind, plant, settings.shaping, setpoint, sample_dt),
            range_low);
    };

    switch (settings.kind) {
      case DtmPolicyKind::None:
        return std::make_unique<NoDtmPolicy>();
      case DtmPolicyKind::Toggle1:
        return std::make_unique<FixedTogglePolicy>(
            0.0, settings.nonct_trigger, settings.policy_delay,
            "toggle1");
      case DtmPolicyKind::Toggle2:
        return std::make_unique<FixedTogglePolicy>(
            0.5, settings.nonct_trigger, settings.policy_delay,
            "toggle2");
      case DtmPolicyKind::Manual:
        return std::make_unique<ManualProportionalPolicy>(
            settings.nonct_trigger, settings.nonct_trigger + 1.0);
      case DtmPolicyKind::P:
        return make_ct(ControllerKind::P, settings.p_setpoint,
                       settings.p_range_low);
      case DtmPolicyKind::PI:
        return make_ct(ControllerKind::PI, settings.ct_setpoint,
                       settings.ct_range_low);
      case DtmPolicyKind::PID:
        return make_ct(ControllerKind::PID, settings.ct_setpoint,
                       settings.ct_range_low);
      case DtmPolicyKind::Throttle:
        return std::make_unique<FetchThrottlePolicy>(
            settings.throttle_width, settings.nonct_trigger,
            settings.policy_delay);
      case DtmPolicyKind::SpecControl:
        return std::make_unique<SpeculationControlPolicy>(
            settings.spec_max_branches, settings.nonct_trigger,
            settings.policy_delay);
      case DtmPolicyKind::VfScale:
        return std::make_unique<VoltageScalingPolicy>(
            settings.vf_scale, settings.nonct_trigger,
            settings.vf_policy_delay);
      case DtmPolicyKind::Hierarchical:
        return std::make_unique<HierarchicalPolicy>(
            make_ct(ControllerKind::PID, settings.ct_setpoint,
                    settings.ct_range_low),
            settings.hierarchy_backup_trigger, settings.vf_scale,
            settings.vf_policy_delay);
      case DtmPolicyKind::PerCorePid:
      case DtmPolicyKind::AdjIntegral:
        panic("policy '", dtmPolicyKindName(settings.kind),
              "' needs the multicore engine (src/multicore); it cannot "
              "run inside the single-core DTM manager");
      default:
        panic("unknown DTM policy kind");
    }
}

} // namespace

std::unique_ptr<DtmPolicy>
makeDtmPolicy(const DtmPolicySettings &settings, const FopdtPlant &plant,
              const DtmConfig &dtm, Seconds cycle_seconds)
{
    return maybeFailsafe(
        makeInnerPolicy(settings, plant, dtm, cycle_seconds), settings);
}

} // namespace thermctl
