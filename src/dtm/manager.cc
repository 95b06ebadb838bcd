#include "dtm/manager.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "common/logging.hh"

namespace thermctl
{

DtmManager::DtmManager(const DtmConfig &cfg,
                       const ThermalConfig &thermal_cfg,
                       std::unique_ptr<DtmPolicy> policy)
    : cfg_(cfg), thermal_cfg_(thermal_cfg), policy_(std::move(policy)),
      sensors_(cfg.sensor), toggler_(cfg.toggle_levels)
{
    if (!policy_)
        fatal("DtmManager: policy must not be null");
    if (cfg.sample_interval == 0)
        fatal("DtmManager: sample interval must be positive");
}

void
DtmManager::observe(const TemperatureVector &truth, Cycle now)
{
    THERMCTL_INVARIANT(check::verifyFinite(truth, "DtmManager::tick"));

    // ------------------------------------------------------- metrics
    ++stats_.cycles;
    const Celsius hottest = truth.maxHotspot();
    stats_.max_temperature = std::max(stats_.max_temperature, hottest);
    if (hottest > thermal_cfg_.t_emergency)
        ++stats_.emergency_cycles;
    if (hottest > thermal_cfg_.stressLevel())
        ++stats_.stress_cycles;

    // ------------------------------------------------------ sampling
    // Samples fall on multiples of the interval; for non-decreasing
    // cycles this equals testing now % interval on every call.
    if (now < next_sample_)
        return;
    const Cycle phase = now % cfg_.sample_interval;
    next_sample_ = now - phase + cfg_.sample_interval;
    if (phase != 0)
        return;
    const TemperatureVector sensed = sensors_.read(truth);
    const DtmCommand cmd = policy_->onSample(sensed, now);
    THERMCTL_INVARIANT(check::verifyFinite(
        cmd.duty, "policy duty", "DtmManager::tick"));
    ++stats_.samples;
    stats_.duty_sum += cmd.duty;

    if (cfg_.engagement == EngagementMechanism::Direct) {
        current_command_ = cmd;
        toggler_.setDuty(cmd.duty);
    } else if (!(cmd
                 == (has_pending_ ? pending_command_ : current_command_))) {
        // Interrupt-based: the change lands after the handler runs.
        // A sample repeating the already-pending command does not
        // re-arm (and hence postpone) the interrupt.
        pending_command_ = cmd;
        pending_at_ = now + cfg_.interrupt_delay;
        has_pending_ = true;
    }
}

bool
DtmManager::actuate(Cycle now)
{
    if (has_pending_ && now >= pending_at_) {
        current_command_ = pending_command_;
        toggler_.setDuty(pending_command_.duty);
        has_pending_ = false;
    }

    const bool allow = toggler_.allowFetch();
    if (toggler_.level() < toggler_.levels())
        ++engaged_cycles_;
    return allow;
}

} // namespace thermctl
