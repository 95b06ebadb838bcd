#include "dtm/actuator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace thermctl
{

FetchToggler::FetchToggler(std::uint32_t levels)
    : levels_(levels), level_(levels)
{
    if (levels == 0)
        fatal("FetchToggler: needs at least one duty level");
}

void
FetchToggler::setDuty(double duty)
{
    duty = std::clamp(duty, 0.0, 1.0);
    setLevel(static_cast<std::uint32_t>(
        std::lround(duty * static_cast<double>(levels_))));
}

void
FetchToggler::setLevel(std::uint32_t level)
{
    level_ = std::min(level, levels_);
}

bool
FetchToggler::allowFetch()
{
    // Bresenham accumulator: emits `level_` allowed cycles out of every
    // `levels_`, spaced as evenly as the integer arithmetic permits.
    accumulator_ += level_;
    if (accumulator_ >= levels_) {
        accumulator_ -= levels_;
        return true;
    }
    return false;
}

// ------------------------------------------------------------- DvfsLadder

DvfsLadder::DvfsLadder(std::uint32_t levels, double min_scale)
    : levels_(levels), level_(levels), min_scale_(min_scale)
{
    if (levels == 0)
        fatal("DvfsLadder: needs at least one level");
    if (!(min_scale > 0.0 && min_scale < 1.0))
        fatal("DvfsLadder: min_scale must be in (0, 1)");
}

void
DvfsLadder::setDuty(double duty)
{
    duty = std::clamp(duty, 0.0, 1.0);
    setLevel(static_cast<std::uint32_t>(
        std::lround(duty * static_cast<double>(levels_))));
}

void
DvfsLadder::setLevel(std::uint32_t level)
{
    level_ = std::min(level, levels_);
}

double
DvfsLadder::freqScale() const
{
    return freqScale(level_);
}

double
DvfsLadder::freqScale(std::uint32_t level) const
{
    level = std::min(level, levels_);
    return min_scale_
        + (1.0 - min_scale_)
        * (static_cast<double>(level) / static_cast<double>(levels_));
}

double
DvfsLadder::voltageRatio(double alpha) const
{
    return alpha + (1.0 - alpha) * freqScale();
}

double
DvfsLadder::powerScale(double alpha) const
{
    const double v = voltageRatio(alpha);
    return freqScale() * v * v;
}

bool
DvfsLadder::clockGate()
{
    accumulator_ += freqScale();
    if (accumulator_ >= 1.0) {
        accumulator_ -= 1.0;
        return true;
    }
    return false;
}

} // namespace thermctl
