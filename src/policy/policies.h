/**
 * @file
 * The two concrete HarvestPolicy implementations. Most callers go
 * through makeHarvestPolicy(); the classes are public so tests can
 * poke policy-specific state (the hysteresis EWMAs) directly.
 */

#ifndef HH_POLICY_POLICIES_H
#define HH_POLICY_POLICIES_H

#include "policy/harvest_policy.h"

namespace hh::policy {

/**
 * Freezes the SystemConfig knobs into one immutable decision set.
 * Needs no epoch tick, so a static-policy run schedules no policy
 * events at all.
 */
class StaticPolicy final : public HarvestPolicy
{
  public:
    explicit StaticPolicy(const PolicyConfig &cfg);
    const char *name() const override { return "static"; }
    void observe(const hh::stats::ObservationRow &row) override;
    bool wantsEpochTick() const override { return false; }
};

/**
 * Per-VM EWMA core-utilization thresholds with a reclaim guard band.
 *
 * Below `lendUtil` the VM is idle enough to donate aggressively: no
 * emergency buffer and a widened harvest cache region. Above
 * `holdUtil` the VM is protected: one idle core is held back as a
 * reclaim guard and the harvest region narrows. Between the two
 * thresholds the previous decision sticks (the hysteresis band), so
 * a VM oscillating around one threshold does not flap its partition.
 */
class HysteresisPolicy final : public HarvestPolicy
{
  public:
    explicit HysteresisPolicy(const PolicyConfig &cfg);
    const char *name() const override { return "hysteresis"; }
    void observe(const hh::stats::ObservationRow &row) override;

    /** EWMA utilization of @p vm (tests). */
    double ewmaUtil(std::uint32_t vm) const { return ewma_[vm]; }

  protected:
    void serializeState(hh::snap::Archive &ar) override;

  private:
    std::vector<double> ewma_;
    std::vector<std::uint8_t> seeded_; //!< EWMA initialized from row 1.
};

} // namespace hh::policy

#endif // HH_POLICY_POLICIES_H
