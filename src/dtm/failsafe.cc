#include "dtm/failsafe.hh"

#include <cmath>

namespace thermctl
{

FailsafePolicy::FailsafePolicy(std::unique_ptr<DtmPolicy> inner,
                               const FailsafeConfig &cfg)
    : inner_(std::move(inner)), cfg_(cfg)
{
}

namespace
{

bool
identical(const TemperatureVector &a, const TemperatureVector &b)
{
    if (a.value.size() != b.value.size())
        return false;
    for (std::size_t i = 0; i < a.value.size(); i++) {
        if (a.value[i].value() != b.value[i].value())
            return false;
    }
    return true;
}

} // namespace

bool
FailsafePolicy::implausible(const TemperatureVector &sensed)
{
    // The check:: primitives panic on violation; the failsafe exists to
    // keep running through bad data, so it uses plain predicates: a
    // non-finite reading, one outside the plausible range, or a stuck
    // sensor (too many identical consecutive samples).
    for (const Celsius &t : sensed.value) {
        if (!std::isfinite(t.value()) || t < cfg_.min_plausible
            || t > cfg_.max_plausible)
            return true;
    }
    if (have_prev_ && identical(sensed, prev_)) {
        identical_run_++;
        if (cfg_.stuck_samples > 0 && identical_run_ >= cfg_.stuck_samples)
            return true;
    } else {
        identical_run_ = 0;
    }
    prev_ = sensed;
    have_prev_ = true;
    return false;
}

DtmCommand
FailsafePolicy::onSample(const TemperatureVector &sensed, Cycle now)
{
    if (!tripped_)
        tripped_ = implausible(sensed);
    if (tripped_) {
        // Paper fallback: full fetch toggling. Duty 0 bounds the
        // temperature regardless of what the sensors claim.
        DtmCommand fallback;
        fallback.duty = 0.0;
        return fallback;
    }
    return inner_->onSample(sensed, now);
}

std::string
FailsafePolicy::name() const
{
    return inner_->name() + "+failsafe";
}

void
FailsafePolicy::reset()
{
    tripped_ = false;
    have_prev_ = false;
    identical_run_ = 0;
    inner_->reset();
}

} // namespace thermctl
