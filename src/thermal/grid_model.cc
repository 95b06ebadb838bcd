#include "thermal/grid_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "thermal/silicon.hh"

namespace thermctl
{

GridThermalModel::GridThermalModel(const Floorplan &floorplan,
                                   const ThermalConfig &cfg,
                                   double dt_seconds, double cell_mm)
    : floorplan_(floorplan), cfg_(cfg), dt_(dt_seconds),
      cell_mm_(cell_mm)
{
    if (dt_seconds <= 0.0)
        fatal("GridThermalModel: dt must be positive");
    const double die_mm = 10.0;
    const double cells = die_mm / cell_mm;
    if (cell_mm <= 0.0
        || std::abs(cells - std::round(cells)) > 1e-9) {
        fatal("GridThermalModel: cell size must divide the 10 mm die, "
              "got ", cell_mm);
    }
    n_ = static_cast<std::uint32_t>(std::lround(cells));

    const std::size_t total = static_cast<std::size_t>(n_) * n_;
    temps_.assign(total, cfg.t_base);
    owner_.assign(total, StructureId::RestOfChip);
    inv_c_.assign(total, 0.0);
    g_vert_.assign(total, 0.0);
    flow_scratch_.assign(total, 0.0);

    const auto &fcfg = floorplan.config();
    const double rho = silicon::thermalResistivity(fcfg.reference_temp);
    const double c_v =
        silicon::volumetricHeatCapacity(fcfg.reference_temp);
    const double cell_area_m2 = cell_mm * cell_mm * 1e-6;
    const double cell_c = c_v * cell_area_m2 * fcfg.active_layer_m;

    // Lateral conduction between adjacent cells: a slab path of length
    // cell_mm and cross-section cell_mm x die thickness.
    g_lat_ = fcfg.die_thickness_m / rho;

    // Assign owners and per-cell vertical paths. The vertical R uses the
    // owning block's spreading factor so a uniformly heated isolated
    // block matches the lumped model's steady state.
    std::array<std::uint32_t, kNumStructures> cells_of_block{};
    for (std::uint32_t iy = 0; iy < n_; ++iy) {
        for (std::uint32_t ix = 0; ix < n_; ++ix) {
            const double cx = (ix + 0.5) * cell_mm;
            const double cy = (iy + 0.5) * cell_mm;
            StructureId owner = StructureId::RestOfChip;
            for (StructureId id : kAllStructures) {
                const auto &r = floorplan.rect(id);
                if (cx >= r.x_mm && cx < r.x_mm + r.w_mm
                    && cy >= r.y_mm && cy < r.y_mm + r.h_mm) {
                    owner = id;
                    break;
                }
            }
            const std::size_t i = index(ix, iy);
            owner_[i] = owner;
            ++cells_of_block[static_cast<std::size_t>(owner)];
            inv_c_[i] = dt_ / cell_c;
            const double k =
                fcfg.k_spread[static_cast<std::size_t>(owner)];
            const double r_vert =
                k * rho * fcfg.die_thickness_m / cell_area_m2;
            g_vert_[i] = 1.0 / r_vert;
        }
    }
    for (std::size_t b = 0; b < kNumStructures; ++b) {
        if (cells_of_block[b] == 0)
            fatal("GridThermalModel: block ",
                  structureName(static_cast<StructureId>(b)),
                  " has no cells at resolution ", cell_mm, " mm");
        block_cell_share_[b] = 1.0 / cells_of_block[b];
    }

    // Euler stability: dt_sub < C / G_total. Keep a 4x safety margin.
    double min_tau = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < total; ++i) {
        const double g_total = g_vert_[i] + 4.0 * g_lat_;
        min_tau = std::min(min_tau, cell_c / g_total);
    }
    max_substep_cycles_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(0.25 * min_tau / dt_));
}

void
GridThermalModel::step(const PowerVector &power)
{
    const std::size_t total = temps_.size();
    for (std::size_t i = 0; i < total; ++i) {
        const std::size_t b = static_cast<std::size_t>(owner_[i]);
        double q = power.value[b] * block_cell_share_[b];
        q -= g_vert_[i] * (temps_[i] - cfg_.t_base);
        flow_scratch_[i] = q;
    }
    // Lateral exchange.
    for (std::uint32_t iy = 0; iy < n_; ++iy) {
        for (std::uint32_t ix = 0; ix < n_; ++ix) {
            const std::size_t i = index(ix, iy);
            if (ix + 1 < n_) {
                const std::size_t j = index(ix + 1, iy);
                const double f = g_lat_ * (temps_[i] - temps_[j]);
                flow_scratch_[i] -= f;
                flow_scratch_[j] += f;
            }
            if (iy + 1 < n_) {
                const std::size_t j = index(ix, iy + 1);
                const double f = g_lat_ * (temps_[i] - temps_[j]);
                flow_scratch_[i] -= f;
                flow_scratch_[j] += f;
            }
        }
    }
    for (std::size_t i = 0; i < total; ++i)
        temps_[i] += inv_c_[i] * flow_scratch_[i];
}

void
GridThermalModel::stepSpan(const PowerVector &power, std::uint64_t cycles)
{
    const double saved_dt = dt_;
    std::uint64_t remaining = cycles;
    while (remaining > 0) {
        const std::uint64_t chunk =
            std::min(remaining, max_substep_cycles_);
        // Temporarily stretch the step.
        const double mult = static_cast<double>(chunk);
        for (auto &v : inv_c_)
            v *= mult;
        step(power);
        for (auto &v : inv_c_)
            v /= mult;
        remaining -= chunk;
    }
    dt_ = saved_dt;
}

Celsius
GridThermalModel::blockMax(StructureId id) const
{
    Celsius best = std::numeric_limits<double>::lowest();
    for (std::size_t i = 0; i < temps_.size(); ++i)
        if (owner_[i] == id)
            best = std::max(best, temps_[i]);
    return best;
}

Celsius
GridThermalModel::blockMean(StructureId id) const
{
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < temps_.size(); ++i) {
        if (owner_[i] == id) {
            sum += temps_[i];
            ++count;
        }
    }
    return count ? Celsius(sum / static_cast<double>(count)) : cfg_.t_base;
}

Celsius
GridThermalModel::blockGradient(StructureId id) const
{
    Celsius lo = std::numeric_limits<double>::max(),
            hi = std::numeric_limits<double>::lowest();
    for (std::size_t i = 0; i < temps_.size(); ++i) {
        if (owner_[i] == id) {
            lo = std::min(lo, temps_[i]);
            hi = std::max(hi, temps_[i]);
        }
    }
    return hi >= lo ? hi - lo : Kelvin(0.0);
}

} // namespace thermctl
