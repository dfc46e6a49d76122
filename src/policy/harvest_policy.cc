#include "policy/harvest_policy.h"

#include <algorithm>

#include "policy/policies.h"

namespace hh::policy {

HarvestPolicy::HarvestPolicy(const PolicyConfig &cfg) : cfg_(cfg)
{
    fallback_ = staticDecision(cfg);
    decisions_.assign(cfg.vmCount, fallback_);
}

VmDecision
HarvestPolicy::staticDecision(const PolicyConfig &cfg)
{
    VmDecision d;
    d.lendAllowed = true;
    d.blockMode = !cfg.harvestOnBlock ? BlockHarvestMode::Never
                  : cfg.adaptiveHarvest
                      ? BlockHarvestMode::AdaptiveEwma
                      : BlockHarvestMode::Always;
    d.emergencyBuffer = cfg.hwEmergencyBuffer;
    d.harvestWayFraction = cfg.harvestWayFraction;
    d.cacheLendAllowed = cfg.cacheLendEnabled;
    d.cacheLendL2Fraction =
        cfg.cacheLendEnabled ? cfg.cacheLendL2WayFraction : 0.0;
    d.cacheLendL3Ways = cfg.cacheLendEnabled ? cfg.cacheLendL3Ways : 0;
    return d;
}

// ---------------------------------------------------------------- static

StaticPolicy::StaticPolicy(const PolicyConfig &cfg) : HarvestPolicy(cfg)
{
}

void
StaticPolicy::observe(const hh::stats::ObservationRow &row)
{
    // Never called: wantsEpochTick() is false, so the server
    // schedules no policy tick for the static policy.
    (void)row;
}

// ------------------------------------------------------------ hysteresis

HysteresisPolicy::HysteresisPolicy(const PolicyConfig &cfg)
    : HarvestPolicy(cfg), ewma_(cfg.vmCount, 0.0),
      seeded_(cfg.vmCount, 0)
{
}

void
HysteresisPolicy::observe(const hh::stats::ObservationRow &row)
{
    const double a = cfg_.ewmaAlpha;
    for (const auto &f : row.vms) {
        if (f.vm >= decisions_.size() || f.vm == cfg_.harvestVm)
            continue;
        if (!seeded_[f.vm]) {
            ewma_[f.vm] = f.coreUtil;
            seeded_[f.vm] = 1;
        } else {
            ewma_[f.vm] = a * f.coreUtil + (1.0 - a) * ewma_[f.vm];
        }

        VmDecision &d = decisions_[f.vm];
        if (ewma_[f.vm] < cfg_.lendUtil) {
            // Idle VM: donate aggressively — no guard cores, widened
            // harvest region.
            d.lendAllowed = true;
            d.emergencyBuffer = 0;
            d.harvestWayFraction =
                std::min(0.75, cfg_.harvestWayFraction + 0.25);
            // Idle cores come with idle cache: offer the lease too.
            d.cacheLendAllowed = cfg_.cacheLendEnabled;
        } else if (ewma_[f.vm] > cfg_.holdUtil) {
            // Busy VM: reclaim guard band — keep one idle core back
            // so a burst is absorbed without a reclaim, and narrow
            // the harvest region.
            d.lendAllowed = true;
            d.emergencyBuffer =
                std::max(1u, cfg_.hwEmergencyBuffer);
            d.harvestWayFraction =
                std::max(0.25, cfg_.harvestWayFraction - 0.25);
            // Busy VM: recall its cache lease along with the guard.
            d.cacheLendAllowed = false;
        }
        // Inside [lendUtil, holdUtil]: hysteresis — keep the previous
        // decision so a VM hovering at one threshold does not flap
        // its partition and guard every epoch.
    }
}

void
HysteresisPolicy::serializeState(hh::snap::Archive &ar)
{
    ar.io(ewma_);
    ar.io(seeded_);
}

// --------------------------------------------------------------- factory

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

std::unique_ptr<HarvestPolicy>
makeHarvestPolicy(const PolicyConfig &cfg, std::string *error)
{
    if (error)
        error->clear();
    if (cfg.kind == "static")
        return std::make_unique<StaticPolicy>(cfg);
    if (cfg.kind == "hysteresis")
        return std::make_unique<HysteresisPolicy>(cfg);
    if (error) {
        *error = "unknown harvest policy \"" + cfg.kind +
                 "\" (expected static or hysteresis)";
    }
    return nullptr;
}

} // namespace hh::policy
