#include "thermal/rc_model.hh"

#include <algorithm>
#include <cmath>

#include "check/invariants.hh"
#include "common/logging.hh"

namespace thermctl
{

// --------------------------------------------------------- SimplifiedRCModel

SimplifiedRCModel::SimplifiedRCModel(const Floorplan &floorplan,
                                     const ThermalConfig &cfg, Seconds dt)
    : floorplan_(floorplan), cfg_(cfg), dt_(dt)
{
    if (dt.value() <= 0.0)
        fatal("SimplifiedRCModel: dt must be positive");
    for (StructureId id : kAllStructures) {
        const auto &blk = floorplan.block(id);
        const std::size_t i = static_cast<std::size_t>(id);
        if (blk.capacitance.value() <= 0.0 || blk.resistance.value() <= 0.0)
            fatal("SimplifiedRCModel: non-positive R or C for block ",
                  structureName(id));
        inv_c_[i] = dt_ / blk.capacitance;
        inv_rc_[i] = dt_ / blk.rc();
        if (inv_rc_[i] >= 1.0)
            fatal("SimplifiedRCModel: dt too large for block time "
                  "constant (forward Euler unstable)");
        max_inv_rc_ = std::max(max_inv_rc_, inv_rc_[i]);
        temps_.value[i] = cfg.t_base;
    }
}

void
SimplifiedRCModel::step(const PowerVector &power)
{
    THERMCTL_INVARIANT(check::verifyFinite(power, "SimplifiedRCModel::step"));
    // Paper Eq. 5: T += dt/C * P - dt/(RC) * (T - T_base)
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        temps_.value[i] += power.value[i] * inv_c_[i]
            - (temps_.value[i] - cfg_.t_base) * inv_rc_[i];
    }
    THERMCTL_INVARIANT(check::verifyFinite(temps_,
                                           "SimplifiedRCModel::step"));
}

void
SimplifiedRCModel::stepScaled(const PowerVector &power, double dt_mult)
{
    if (dt_mult <= 0.0)
        panic("SimplifiedRCModel::stepScaled: dt_mult must be positive");
    THERMCTL_INVARIANT(check::verifyEulerStable(
        max_inv_rc_ * dt_mult, 1.0, "SimplifiedRCModel::stepScaled",
        "stiffest block"));
    THERMCTL_INVARIANT(check::verifyFinite(
        power, "SimplifiedRCModel::stepScaled"));
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        temps_.value[i] += dt_mult
            * (power.value[i] * inv_c_[i]
               - (temps_.value[i] - cfg_.t_base) * inv_rc_[i]);
    }
    THERMCTL_INVARIANT(check::verifyFinite(
        temps_, "SimplifiedRCModel::stepScaled"));
}

void
SimplifiedRCModel::stepExact(const PowerVector &power, std::uint64_t cycles)
{
    THERMCTL_INVARIANT(check::verifyFinite(power,
                                           "SimplifiedRCModel::stepExact"));
    const double span = dt_.value() * static_cast<double>(cycles);
    for (StructureId id : kAllStructures) {
        const std::size_t i = static_cast<std::size_t>(id);
        const auto &blk = floorplan_.block(id);
        const double t_ss = cfg_.t_base
            + power.value[i] * blk.resistance.value();
        const double decay = std::exp(-span / blk.rc().value());
        temps_.value[i] = t_ss + (temps_.value[i] - t_ss) * decay;
    }
    THERMCTL_INVARIANT(check::verifyFinite(temps_,
                                           "SimplifiedRCModel::stepExact"));
}

void
SimplifiedRCModel::warmStart(const PowerVector &power)
{
    for (StructureId id : kAllStructures) {
        const std::size_t i = static_cast<std::size_t>(id);
        temps_.value[i] = steadyState(id, power.value[i]);
    }
    THERMCTL_INVARIANT(check::verifyFinite(temps_,
                                           "SimplifiedRCModel::warmStart"));
}

Celsius
SimplifiedRCModel::steadyState(StructureId id, Watts p) const
{
    // dT = P * R: the Table 1 duality algebra, statically checked.
    return cfg_.t_base + p * floorplan_.block(id).resistance;
}

// ------------------------------------------------------------ ChipLevelModel

ChipLevelModel::ChipLevelModel(const FloorplanConfig &cfg, Celsius initial,
                               Seconds dt)
    : r_(cfg.chip_resistance), c_(cfg.chip_capacitance),
      ambient_(cfg.ambient), temp_(initial), dt_(dt)
{
    if (r_.value() <= 0.0 || c_.value() <= 0.0 || dt.value() <= 0.0)
        fatal("ChipLevelModel: R, C and dt must be positive");
}

void
ChipLevelModel::step(Watts total_power)
{
    // Fully typed Eq. 5: (s * W) / (J/K) = K and (s * K) / s = K.
    temp_ += dt_ * total_power / c_
        - (dt_ * (temp_ - ambient_)) / timeConstant();
    THERMCTL_INVARIANT(check::verifyFinite(temp_.value(), "temperature",
                                           "ChipLevelModel::step"));
}

void
ChipLevelModel::stepExact(Watts total_power, std::uint64_t cycles)
{
    const double span = dt_.value() * static_cast<double>(cycles);
    const Celsius t_ss = ambient_ + total_power * r_;
    temp_ = t_ss
        + (temp_ - t_ss) * std::exp(-span / timeConstant().value());
    THERMCTL_INVARIANT(check::verifyFinite(temp_.value(), "temperature",
                                           "ChipLevelModel::stepExact"));
}

} // namespace thermctl
