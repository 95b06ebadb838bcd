/**
 * @file
 * Physics-invariant checking layer ("thermctl-check").
 *
 * Two pieces:
 *
 *  1. Always-available verification primitives in namespace check:: —
 *     plain functions that panic() (throw PanicError) when a physical
 *     invariant is violated. Tests call these directly, so every
 *     invariant class is exercised even in builds that compile the
 *     instrumentation out.
 *
 *  2. The THERMCTL_INVARIANT() macro, which wraps calls to those
 *     primitives at hot call sites in thermal/, control/, dtm/ and sim/.
 *     It expands to nothing unless the build sets
 *     THERMCTL_INVARIANTS_ENABLED=1 (CMake option THERMCTL_INVARIANTS),
 *     so the default build pays zero overhead — no call, no branch.
 *
 * Invariant classes covered (see DESIGN.md, "Correctness tooling"):
 *  - finiteness: temperature/power state must never go NaN/Inf;
 *  - forward-Euler stability: dt/RC ratios must stay below the
 *    divergence bound of the paper's Eq. 5 integrator;
 *  - energy balance: a Figure 3B network span (multicore::ChipModel)
 *    must conserve energy (stored delta = input - ambient loss) to
 *    rounding error;
 *  - PID contract: output clamped to [out_min, out_max], integral term
 *    clamped / conditionally frozen per the paper's Section 3.3.
 */

#ifndef THERMCTL_CHECK_INVARIANTS_HH
#define THERMCTL_CHECK_INVARIANTS_HH

#include "common/types.hh"
#include "power/structures.hh"
#include "thermal/rc_model.hh"

#ifndef THERMCTL_INVARIANTS_ENABLED
#define THERMCTL_INVARIANTS_ENABLED 0
#endif

/**
 * Invoke a check::verify* call when invariant checking is compiled in;
 * expand to nothing otherwise.
 */
#if THERMCTL_INVARIANTS_ENABLED
#define THERMCTL_INVARIANT(...) __VA_ARGS__
#else
#define THERMCTL_INVARIANT(...) ((void)0)
#endif

namespace thermctl
{

namespace check
{

/** Panic unless every block temperature is finite. */
void verifyFinite(const TemperatureVector &temps, const char *where);

/** Panic unless every block power is finite. */
void verifyFinite(const PowerVector &power, const char *where);

/** Panic unless the named scalar is finite. */
void verifyFinite(double v, const char *what, const char *where);

/**
 * Forward-Euler stability guard: panic unless 0 < dt/RC < limit.
 *
 * Eq. 5 diverges for dt/RC >= 2 and oscillates for dt/RC >= 1; models
 * pass the bound they can tolerate (SimplifiedRCModel uses 1).
 */
void verifyEulerStable(double dt_over_rc, double limit, const char *where,
                       const char *block);

/**
 * PID output/anti-windup contract (paper Section 3.3): the clamped
 * output must lie in [out_min, out_max] and be finite; when the
 * conditional anti-windup is active, the integral term alone must also
 * stay within the actuator range.
 */
void verifyPidContract(double output, double integral_term, double out_min,
                       double out_max, bool integral_clamped,
                       const char *where);

/**
 * Energy-balance audit for a multicore::ChipModel span (the Figure 3B
 * network, one or more cores): forward Euler is exactly
 * conservative (per-step, with pre-step temperatures), so
 *
 *      E_stored_after - E_stored_before = E_input - E_ambient_loss
 *
 * must hold to rounding error. An asymmetric conductance matrix, a
 * missed tangential term, or a sign error all break the identity.
 */
class EnergyAudit
{
  public:
    /** Record heat injected by the power sources over a (sub)step. */
    void addInput(Joules e) { input_ += e.value(); }

    /** Record heat dissipated to ambient over a (sub)step. */
    void addAmbientLoss(Joules e) { loss_ += e.value(); }

    /** Record total stored energy (sum C_i * T_i) before the span. */
    void setStoredBefore(Joules e) { before_ = e.value(); }

    /** Record total stored energy after the span. */
    void setStoredAfter(Joules e) { after_ = e.value(); }

    /**
     * Panic unless the balance closes within a relative tolerance of
     * the energy scale involved.
     */
    void verify(const char *where) const;

  private:
    double input_ = 0.0;
    double loss_ = 0.0;
    double before_ = 0.0;
    double after_ = 0.0;
};

} // namespace check

} // namespace thermctl

#endif // THERMCTL_CHECK_INVARIANTS_HH
