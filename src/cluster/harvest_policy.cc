#include "cluster/harvest_policy.h"

#include <algorithm>

namespace hh::cluster {

HarvestPolicy::HarvestPolicy(const SystemConfig &cfg)
    : hysteresis_(cfg.policy == "hysteresis"),
      harvestVm_(cfg.primaryVms), lendUtil_(cfg.policyLendUtil),
      holdUtil_(cfg.policyHoldUtil), ewmaAlpha_(cfg.policyEwmaAlpha)
{
    fallback_.blockMode = !cfg.harvestOnBlock ? BlockHarvestMode::Never
                          : cfg.adaptiveHarvest
                              ? BlockHarvestMode::AdaptiveEwma
                              : BlockHarvestMode::Always;
    fallback_.emergencyBuffer = cfg.hwEmergencyBuffer;
    fallback_.harvestWayFraction = cfg.harvestWayFraction;
    fallback_.cacheLendAllowed = cfg.cacheLendEnabled;
    fallback_.cacheLendL2Fraction =
        cfg.cacheLendEnabled ? cfg.cacheLendL2WayFraction : 0.0;
    fallback_.cacheLendL3Ways =
        cfg.cacheLendEnabled ? cfg.cacheLendL3Ways : 0;

    const std::size_t vms = cfg.primaryVms + 1;
    decisions_.assign(vms, fallback_);
    if (hysteresis_) {
        ewma_.assign(vms, 0.0);
        seeded_.assign(vms, 0);
    }
}

void
HarvestPolicy::observe(const hh::stats::ObservationRow &row)
{
    if (!hysteresis_)
        return;
    const double a = ewmaAlpha_;
    for (const auto &f : row.vms) {
        if (f.vm >= decisions_.size() || f.vm == harvestVm_)
            continue;
        if (!seeded_[f.vm]) {
            ewma_[f.vm] = f.coreUtil;
            seeded_[f.vm] = 1;
        } else {
            ewma_[f.vm] = a * f.coreUtil + (1.0 - a) * ewma_[f.vm];
        }

        VmDecision &d = decisions_[f.vm];
        if (ewma_[f.vm] < lendUtil_) {
            // Idle VM: donate aggressively — no guard cores, widened
            // harvest region.
            d.emergencyBuffer = 0;
            d.harvestWayFraction =
                std::min(0.75, fallback_.harvestWayFraction + 0.25);
            // Idle cores come with idle cache: offer the lease too.
            d.cacheLendAllowed = fallback_.cacheLendAllowed;
        } else if (ewma_[f.vm] > holdUtil_) {
            // Busy VM: reclaim guard band — keep one idle core back
            // so a burst is absorbed without a reclaim, and narrow
            // the harvest region.
            d.emergencyBuffer =
                std::max(1u, fallback_.emergencyBuffer);
            d.harvestWayFraction =
                std::max(0.25, fallback_.harvestWayFraction - 0.25);
            // Busy VM: recall its cache lease along with the guard.
            d.cacheLendAllowed = false;
        }
        // Inside [lendUtil, holdUtil]: hysteresis — keep the previous
        // decision so a VM hovering at one threshold does not flap
        // its partition and guard every epoch.
    }
}

void
HarvestPolicy::serialize(hh::snap::Archive &ar)
{
    ar.io(decisions_);
    if (hysteresis_) {
        ar.io(ewma_);
        ar.io(seeded_);
    }
}

const std::vector<std::string> &
harvestPolicyNames()
{
    static const std::vector<std::string> kNames = {"static", "hysteresis"};
    return kNames;
}

bool
knownHarvestPolicy(const std::string &name)
{
    const auto &names = harvestPolicyNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace hh::cluster
