/**
 * @file
 * The Wattch-style per-structure power model.
 *
 * Per-cycle structure energies are computed from the core's activity
 * counters and CACTI-lite access energies, under a configurable
 * conditional-clocking style (Wattch's cc0-cc3). The default is the
 * affine cc3 style used in the paper's methodology: power scales linearly
 * with port usage and idle structures still dissipate 10% of peak
 * (clocking overhead that gating cannot remove).
 */

#ifndef THERMCTL_POWER_MODEL_HH
#define THERMCTL_POWER_MODEL_HH

#include "cache/hierarchy.hh"
#include "cpu/activity.hh"
#include "cpu/config.hh"
#include "power/array.hh"
#include "power/structures.hh"
#include "power/technology.hh"

namespace thermctl
{

/** Wattch conditional-clocking styles. */
enum class ClockGatingStyle
{
    Cc0, ///< no gating: every structure at peak every cycle
    Cc1, ///< on/off: peak when accessed at all, zero when idle
    Cc2, ///< linear with port usage, zero when idle
    Cc3, ///< linear with port usage, idle floor of 10% of peak
};

/** Power-model configuration. */
struct PowerConfig
{
    Technology tech{};
    ClockGatingStyle gating = ClockGatingStyle::Cc3;

    /** Idle floor fraction for Cc3. */
    double idle_fraction = 0.10;

    // Execution-unit per-operation energies (Joules). Values chosen so
    // unit peak powers at 1.5 GHz land in the range published for
    // 0.18 um high-performance designs.
    double e_int_alu_op = 1.2e-9;
    double e_int_mult_op = 3.0e-9;
    double e_fp_alu_op = 1.8e-9;
    double e_fp_mult_op = 2.2e-9;

    /** Constant clock/misc power charged to RestOfChip every cycle. */
    Watts rest_base_watts = 9.0;

    /** Per-event energies for RestOfChip activity (decode/rename etc). */
    double e_decode_op = 1.0e-9;

    /**
     * Voltage-vs-frequency model for V/f scaling DTM: at clock scale s,
     * Vdd scales to (alpha + (1 - alpha) * s) of nominal. Per-cycle
     * switching energy then scales with (V/V0)^2 and power additionally
     * with s.
     */
    double voltage_scaling_alpha = 0.45;

    // ---- temperature-dependent leakage (extension; default off) ----
    /**
     * Enable subthreshold-leakage modeling. Leakage was negligible at
     * the paper's 0.18 um node (the paper only cites Wong et al.'s
     * leakage-cancellation circuit in passing) but is the dominant
     * thermal feedback at later nodes: leakage grows exponentially with
     * temperature, so hot structures leak more and heat further.
     */
    bool leakage_enabled = false;

    /** Leakage at the reference temperature, as a fraction of peak. */
    double leakage_fraction_at_ref = 0.05;

    /** Reference temperature for the leakage fraction. */
    Celsius leakage_ref_temp = 85.0;

    /**
     * Exponential temperature sensitivity: leakage doubles every
     * `leakage_doubling_c` degrees (typical silicon: 8-12 C).
     */
    Kelvin leakage_doubling_c = 10.0;

    /**
     * Per-structure calibration multipliers applied to the CACTI-lite
     * access energies (order: Lsq, Window, Regfile, Bpred, DCache,
     * IntExec, FpExec, RestOfChip). They absorb circuit details the
     * geometry model does not capture (forwarding networks, selection
     * trees, aggressive clocking) and are chosen so per-structure peak
     * powers match the magnitudes published for 0.18 um designs; see
     * bench/table3_thermal_params.
     */
    std::array<double, kNumStructures> structure_scale{
        5.0, 1.0, 1.0, 1.0, 0.7, 0.8, 1.0, 1.0};
};

/**
 * Computes per-structure power, cycle by cycle, from core activity.
 */
class PowerModel
{
  public:
    PowerModel(const PowerConfig &cfg, const CpuConfig &cpu,
               const MemoryHierarchyConfig &mem);

    /**
     * @return Watts dissipated by each structure during a cycle with the
     * given activity.
     */
    PowerVector cyclePower(const CpuActivity &act) const;

    /**
     * Per-structure leakage power at the given temperatures, Watts.
     * Zero for every structure unless leakage_enabled. Exponential in
     * temperature:
     *   P_leak(T) = frac_ref * P_peak * 2^((T - T_ref) / doubling)
     */
    PowerVector leakagePower(
        const std::array<Celsius, kNumStructures> &temps_c) const;

    /** @return per-structure peak power (all ports active), Watts. */
    const PowerVector &peak() const { return peak_; }

    const PowerConfig &config() const { return cfg_; }

  private:
    /** Per-structure active energy for one cycle, Joules. */
    double activeEnergy(StructureId id, const CpuActivity &act) const;

    /** Apply the gating style to an active-energy value. */
    double gate(double active_j, double peak_j) const;

    PowerConfig cfg_;
    CpuConfig cpu_;
    MemoryHierarchyConfig mem_;

    // Access-energy building blocks (Joules per event).
    double e_lsq_search_ = 0.0;
    double e_lsq_insert_ = 0.0;
    double e_window_dispatch_ = 0.0;
    double e_window_issue_ = 0.0;
    double e_window_wakeup_ = 0.0;
    double e_regfile_read_ = 0.0;
    double e_regfile_write_ = 0.0;
    double e_bpred_lookup_ = 0.0;
    double e_bpred_update_ = 0.0;
    double e_dcache_access_ = 0.0;
    double e_icache_access_ = 0.0;
    double e_l2_access_ = 0.0;

    /** Peak one-cycle energy per structure, Joules. */
    std::array<double, kNumStructures> peak_energy_{};
    PowerVector peak_;
};

} // namespace thermctl

#endif // THERMCTL_POWER_MODEL_HH
