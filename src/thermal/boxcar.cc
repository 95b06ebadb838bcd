#include "thermal/boxcar.hh"

#include "common/logging.hh"

namespace thermctl
{

StructureBoxcarProxy::StructureBoxcarProxy(const Floorplan &floorplan,
                                           const ThermalConfig &cfg,
                                           std::size_t window,
                                           Celsius trigger_temp)
{
    if (window == 0)
        fatal("StructureBoxcarProxy: window must be positive");
    averages_.reserve(kNumStructures);
    for (StructureId id : kAllStructures) {
        averages_.emplace_back(window);
        // The average power that would hold the block at trigger_temp:
        // P_trig = (T_trig - T_base) / R.
        trigger_power_[static_cast<std::size_t>(id)] =
            (trigger_temp - cfg.t_base)
            / floorplan.block(id).resistance;
    }
}

void
StructureBoxcarProxy::add(const PowerVector &power)
{
    for (std::size_t i = 0; i < kNumStructures; ++i)
        averages_[i].add(power.value[i]);
}

bool
StructureBoxcarProxy::triggered(StructureId id) const
{
    const std::size_t i = static_cast<std::size_t>(id);
    return averages_[i].average() > trigger_power_[i];
}

std::size_t
StructureBoxcarProxy::window() const
{
    return averages_.front().window();
}

ChipBoxcarProxy::ChipBoxcarProxy(std::size_t window, Watts trigger_watts)
    : avg_(window), trigger_watts_(trigger_watts)
{
    if (trigger_watts <= 0.0)
        fatal("ChipBoxcarProxy: trigger wattage must be positive");
}

void
ChipBoxcarProxy::add(Watts total_power)
{
    avg_.add(total_power);
}

bool
ChipBoxcarProxy::triggered() const
{
    return avg_.average() > trigger_watts_;
}

} // namespace thermctl
