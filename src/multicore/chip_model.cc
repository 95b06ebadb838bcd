#include "multicore/chip_model.hh"

#include <algorithm>
#include <cmath>

#include "check/invariants.hh"
#include "common/logging.hh"
#include "fault/fault.hh"

namespace thermctl::multicore
{

ChipModel::ChipModel(const Floorplan &floorplan, const ThermalConfig &cfg,
                     Seconds dt, const MulticoreConfig &mc)
    : floorplan_(floorplan), cfg_(cfg), dt_(dt), t_sink_(cfg.t_base)
{
    if (dt.value() <= 0.0)
        fatal("ChipModel: dt must be positive");
    if (mc.num_cores < 1 || mc.num_cores > kMaxCores)
        fatal("ChipModel: num_cores must be in [1, ", kMaxCores,
              "], got ", mc.num_cores);

    const std::size_t n = mc.num_cores;
    temps_.resize(n);
    flow_.resize(n);
    for (std::size_t c = 0; c < n; ++c)
        temps_[c].value.fill(cfg.t_base);

    // Per-core network: the Figure 3B block conductances.
    for (StructureId id : kAllStructures) {
        const std::size_t i = static_cast<std::size_t>(id);
        conductance_[i][kNumStructures] =
            1.0 / floorplan.block(id).resistance;
    }
    for (const auto &tan : floorplan.tangential()) {
        const std::size_t a = static_cast<std::size_t>(tan.a);
        const std::size_t b = static_cast<std::size_t>(tan.b);
        const double g = 1.0 / tan.resistance;
        conductance_[a][b] += g;
        conductance_[b][a] += g;
    }

    // Shared heatsink: capacitance and ambient conductance scale with
    // the core count so each core sees the single-chip package path.
    sink_to_ambient_g_ = static_cast<double>(n)
        / floorplan.config().chip_resistance;
    sink_capacitance_ =
        static_cast<double>(n) * floorplan.config().chip_capacitance;

    // Lateral coupling: every block that touches a vertical die edge
    // faces its mirror image on the adjacent core, so each adjacent
    // pair of cores couples the same structure to itself.
    if (n > 1 && mc.coupling_resistance.value() > 0.0) {
        double die_w = 0.0;
        for (StructureId id : kAllStructures) {
            const BlockRect &r = floorplan.rect(id);
            die_w = std::max(die_w, r.x_mm + r.w_mm);
        }
        const double edge_eps = 1e-6 * die_w;
        const double g = 1.0 / mc.coupling_resistance;
        for (StructureId id : kAllStructures) {
            const BlockRect &r = floorplan.rect(id);
            const bool left = r.x_mm <= edge_eps;
            const bool right = r.x_mm + r.w_mm >= die_w - edge_eps;
            if (left || right) {
                coupling_.push_back(
                    {static_cast<std::size_t>(id), g});
            }
        }
        if (coupling_.empty())
            fatal("ChipModel: floorplan has no boundary blocks to "
                  "couple (degenerate layout?)");
    }

    // Forward-Euler stability guard: each node's total conductance over
    // its capacitance bounds the integration rate; Eq. 5 diverges once
    // dt exceeds 2 C / G_total (we insist on the stricter
    // non-oscillating dt < C / G_total). Coupling conductance adds to
    // each boundary block's total.
    double sink_g_total = sink_to_ambient_g_;
    for (StructureId id : kAllStructures) {
        const std::size_t i = static_cast<std::size_t>(id);
        double g_total = 0.0;
        for (std::size_t j = 0; j <= kNumStructures; ++j)
            g_total += conductance_[i][j];
        for (const CouplingPath &cp : coupling_) {
            // An interior core couples across both seams.
            if (cp.block == i)
                g_total += 2.0 * cp.conductance;
        }
        sink_g_total +=
            static_cast<double>(n) * conductance_[i][kNumStructures];
        const double rate = g_total / floorplan.block(id).capacitance;
        max_g_over_c_ = std::max(max_g_over_c_, rate);
        if (dt.value() * rate >= 1.0)
            fatal("ChipModel: dt too large for block ",
                  structureName(id), " (forward Euler unstable)");
    }
    const double sink_rate = sink_g_total / sink_capacitance_;
    max_g_over_c_ = std::max(max_g_over_c_, sink_rate);
    if (dt.value() * sink_rate >= 1.0)
        fatal("ChipModel: dt too large for the heatsink node "
              "(forward Euler unstable)");
}

void
ChipModel::step(const std::vector<PowerVector> &power)
{
    const std::size_t n = temps_.size();
    THERMCTL_INVARIANT({
        if (power.size() != n)
            panic("ChipModel::step: ", power.size(),
                  " power vectors for ", n, " cores");
        for (const PowerVector &p : power)
            check::verifyFinite(p, "ChipModel::step");
    });

    double sink_flow = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        const TemperatureVector &t = temps_[c];
        auto &flow = flow_[c];
        for (std::size_t i = 0; i < kNumStructures; ++i) {
            double q = power[c].value[i];
            // Tangential exchange within the core.
            for (std::size_t j = 0; j < kNumStructures; ++j) {
                if (conductance_[i][j] != 0.0) {
                    q -= conductance_[i][j]
                        * (t.value[i] - t.value[j]);
                }
            }
            // Normal path to the shared heatsink node.
            const double to_sink = conductance_[i][kNumStructures]
                * (t.value[i] - t_sink_);
            q -= to_sink;
            sink_flow += to_sink;
            flow[i] = q;
        }
    }

    // Lateral exchange across each adjacent-core seam. Empty when
    // num_cores == 1 or coupling is disabled, so the single-core case
    // is exactly the Figure 3B network.
    for (std::size_t c = 0; c + 1 < n; ++c) {
        for (const CouplingPath &cp : coupling_) {
            const double q = cp.conductance
                * (temps_[c].value[cp.block]
                   - temps_[c + 1].value[cp.block]);
            flow_[c][cp.block] -= q;
            flow_[c + 1][cp.block] += q;
        }
    }

    for (std::size_t c = 0; c < n; ++c) {
        for (StructureId id : kAllStructures) {
            const std::size_t i = static_cast<std::size_t>(id);
            temps_[c].value[i] += dt_ * flow_[c][i]
                / floorplan_.block(id).capacitance;
        }
    }

    sink_flow -= sink_to_ambient_g_
        * (t_sink_ - floorplan_.config().ambient);
    t_sink_ += dt_.value() * sink_flow / sink_capacitance_;
    THERMCTL_INVARIANT({
        for (const TemperatureVector &t : temps_)
            check::verifyFinite(t, "ChipModel::step");
    });
}

void
ChipModel::stepSpan(const std::vector<PowerVector> &power,
                    std::uint64_t cycles)
{
    // Forward Euler stays stable well below the smallest node time
    // constant; sub-step in chunks of at most 1 us.
    const double max_chunk_s = 1e-6;
    const std::uint64_t chunk_cycles = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(max_chunk_s / dt_));
    std::uint64_t remaining = cycles;
    const Seconds saved_dt = dt_;

#if THERMCTL_INVARIANTS_ENABLED
    check::EnergyAudit audit;
    const auto storedEnergy = [this]() -> Joules {
        Joules e = 0.0;
        for (const TemperatureVector &t : temps_) {
            for (StructureId id : kAllStructures) {
                e += floorplan_.block(id).capacitance
                    * Kelvin(t[id].value());
            }
        }
        e += JoulePerKelvin(sink_capacitance_)
            * Kelvin(t_sink_.value());
        return e;
    };
    audit.setStoredBefore(storedEnergy());
    Watts p_total = 0.0;
    for (const PowerVector &p : power)
        p_total += p.total();
#endif

    // Chaos hook: inject unaccounted stored energy inside the audited
    // span so the energy-balance invariant provably fires
    // (tests/test_multicore.cc seeds this via a fault plan).
    if (THERMCTL_FAULT_POINT("multicore.energy").abort())
        temps_[0].value[0] += 5.0;

    while (remaining > 0) {
        const std::uint64_t n = std::min(remaining, chunk_cycles);
        const Seconds chunk = saved_dt * static_cast<double>(n);
        THERMCTL_INVARIANT(check::verifyEulerStable(
            chunk.value() * max_g_over_c_, 1.0, "ChipModel::stepSpan",
            "stiffest node"));
#if THERMCTL_INVARIANTS_ENABLED
        audit.addInput(p_total * chunk);
        audit.addAmbientLoss(
            Watts(sink_to_ambient_g_
                  * (t_sink_ - floorplan_.config().ambient))
            * chunk);
#endif
        dt_ = chunk;
        step(power);
        dt_ = saved_dt;
        remaining -= n;
    }

#if THERMCTL_INVARIANTS_ENABLED
    audit.setStoredAfter(storedEnergy());
    audit.verify("ChipModel::stepSpan");
#endif
}

void
ChipModel::warmStart(const std::vector<PowerVector> &power)
{
    const std::size_t n = temps_.size();
    if (power.size() != n)
        panic("ChipModel::warmStart: ", power.size(),
              " power vectors for ", n, " cores");
    // The shared sink is quasi-static: its time constant is
    // chip_resistance * chip_capacitance per core (~20 s, invariant
    // under the N-scaling of both parameters), orders of magnitude
    // beyond any simulated span, so a warm start leaves it at its
    // current (t_base) value — the same quasi-constant-base assumption
    // the paper's simplified model rests on. Blocks jump to their own
    // P*R above the sink (tangential and lateral flows neglected; they
    // only redistribute a fraction of a degree, which the
    // post-warm-start settling run absorbs).
    for (std::size_t c = 0; c < n; ++c) {
        for (StructureId id : kAllStructures) {
            const std::size_t i = static_cast<std::size_t>(id);
            temps_[c].value[i] = t_sink_
                + power[c].value[i]
                * floorplan_.block(id).resistance.value();
        }
        THERMCTL_INVARIANT(check::verifyFinite(
            temps_[c], "ChipModel::warmStart"));
    }
}

void
ChipModel::setTemperatures(std::size_t core, const TemperatureVector &temps)
{
    temps_.at(core) = temps;
}

} // namespace thermctl::multicore
