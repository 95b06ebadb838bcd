/**
 * @file
 * Failsafe wrapper for DTM policies under sensor faults.
 *
 * The paper's controllers trust the sensed temperature. A failed sensor
 * (stuck, dropped out — see SensorFaultMode) silently feeds a controller
 * stale or bogus readings, and a PID happily holds full fetch while the
 * real silicon runs past the emergency level. FailsafePolicy guards the
 * inner policy: it watches the sensed stream for implausibility — a
 * non-finite value, a reading outside the plausible physical range, or a
 * vector that is bit-identical for too many consecutive samples — and,
 * once tripped, latches the paper's fallback response (full fetch
 * toggling, duty 0), the one mechanism that bounds temperature without
 * needing a trustworthy sensor. The latch clears only on reset().
 *
 * bench/ablation_sensor_faults evaluates the wrapper: it compares each
 * policy with and without the failsafe across the sensor fault modes.
 */

#ifndef THERMCTL_DTM_FAILSAFE_HH
#define THERMCTL_DTM_FAILSAFE_HH

#include <memory>
#include <string>

#include "dtm/policy.hh"

namespace thermctl
{

/** Plausibility thresholds for the failsafe detector. */
struct FailsafeConfig
{
    /**
     * Trip after this many consecutive bit-identical sensed vectors.
     * Physical temperatures move every sample, so an unchanging vector
     * means a stuck sensor — except at quantized steady state (quantum
     * > 0 can legitimately repeat), so size this above the plant's
     * settle horizon when quantization is configured.
     */
    std::uint64_t stuck_samples = 8;

    /** Readings below this are physically implausible (sub-ambient). */
    Celsius min_plausible = 20.0;

    /** Readings above this are physically implausible (silicon dead). */
    Celsius max_plausible = 150.0;
};

/**
 * Delegates to the wrapped policy while the sensed stream looks
 * plausible; latches DtmCommand{duty = 0} once it does not.
 */
class FailsafePolicy : public DtmPolicy
{
  public:
    FailsafePolicy(std::unique_ptr<DtmPolicy> inner,
                   const FailsafeConfig &cfg = {});

    DtmCommand onSample(const TemperatureVector &sensed,
                        Cycle now) override;
    std::string name() const override;
    void reset() override;

  private:
    /** @return true when `sensed` is implausible. */
    bool implausible(const TemperatureVector &sensed);

    std::unique_ptr<DtmPolicy> inner_;
    FailsafeConfig cfg_;
    bool tripped_ = false;
    TemperatureVector prev_{};
    bool have_prev_ = false;
    std::uint64_t identical_run_ = 0;
};

} // namespace thermctl

#endif // THERMCTL_DTM_FAILSAFE_HH
