/**
 * @file
 * The harvest/reclaim policy: per-VM decisions (VmDecision) that the
 * server consults at its lend/reclaim sites and applies to the cache
 * partitions at policy-epoch boundaries. The lend/reclaim mechanism
 * (transition costs, flushes, RQ wiring) stays in server.cc.
 *
 * Two selectors, read from SystemConfig::policy: `static` (the
 * default) freezes the decisions the SystemConfig knobs describe;
 * `hysteresis` moves them with per-VM EWMA core-utilization
 * thresholds, fed one ObservationRow per policy epoch.
 *
 * The policy is deterministic and its full state rides the 'HHCP'
 * snapshot (section 0x16), so runs stay byte-identical across worker
 * counts and checkpoint save/load/resume. See docs/POLICIES.md.
 */

#ifndef HH_CLUSTER_HARVEST_POLICY_H
#define HH_CLUSTER_HARVEST_POLICY_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/system_config.h"
#include "snapshot/archive.h"
#include "stats/observation_view.h"

namespace hh::cluster {

/** How eagerly a VM's blocked-on-I/O cores may be harvested. */
enum class BlockHarvestMode : std::uint32_t
{
    Never = 0,    //!< Harvest-on-termination semantics.
    Always = 1,   //!< Harvest-on-block semantics.
    /** Consult the server's blocked-time EWMA at lend time (the
     *  §4.1.5 adaptive extension). The EWMA is maintained and
     *  evaluated by the server because it updates at I/O block
     *  time, between policy epochs. */
    AdaptiveEwma = 2,
};

/**
 * Per-VM decision vector, consulted by the server at its existing
 * lend/reclaim decision sites and applied to the cache partition at
 * epoch boundaries.
 */
struct VmDecision
{
    /** Gate: may this VM's idle cores be lent at all? Both selectors
     *  leave it true; it stays as part of section 0x16's bytes. */
    bool lendAllowed = true;
    BlockHarvestMode blockMode = BlockHarvestMode::Always;
    /** Idle cores held back from lending (reclaim guard / burst buffer). */
    std::uint32_t emergencyBuffer = 0;
    /** Harvest-region size of the partitioned private caches. */
    double harvestWayFraction = 0.5;

    /** @name Cache-capacity leasing (src/lease/) @{ */
    /** Gate: may this VM lease cache ways to the batch VM? */
    bool cacheLendAllowed = false;
    /** Extra L2 harvest-way fraction on the lender's cores. */
    double cacheLendL2Fraction = 0.0;
    /** L3 partition ways offered to the batch VM (low ways first). */
    std::uint32_t cacheLendL3Ways = 0;
    /** @} */

    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(lendAllowed);
        ar.io(blockMode);
        ar.io(emergencyBuffer);
        ar.io(harvestWayFraction);
        ar.io(cacheLendAllowed);
        ar.io(cacheLendL2Fraction);
        ar.io(cacheLendL3Ways);
    }
};

/**
 * One server's harvest policy. Decisions index VM ids in server
 * layout order: the `primaryVms` Primary VMs, then the Harvest VM.
 *
 * Under `hysteresis`, below `policyLendUtil` a VM is idle enough to
 * donate aggressively: no emergency buffer, a widened harvest cache
 * region and its cache lease offered. Above `policyHoldUtil` it is
 * protected: one idle core is held back as a reclaim guard, the
 * harvest region narrows and the lease is recalled. Between the two
 * thresholds the previous decision sticks, so a VM oscillating around
 * one threshold does not flap its partition.
 */
class HarvestPolicy
{
  public:
    /** Seeds every decision from @p cfg's knobs. The selector must be
     *  one of harvestPolicyNames(); the server rejects others. */
    explicit HarvestPolicy(const SystemConfig &cfg);

    /**
     * Whether the policy consumes epoch rows at all. When false (the
     * static policy) the server schedules no policy tick, so the
     * policy adds no events to the run.
     */
    bool ticks() const { return hysteresis_; }

    /**
     * Observe one materialized epoch row and update the decision
     * vector. Called once per policy epoch, strictly in epoch order;
     * a no-op under `static`.
     */
    void observe(const hh::stats::ObservationRow &row);

    /** Current decision for @p vm (falls back to the static decision
     *  for ids outside the layout, e.g. fault-injected ghost VMs). */
    const VmDecision &
    decision(std::uint32_t vm) const
    {
        return vm < decisions_.size() ? decisions_[vm] : fallback_;
    }

    /** Hysteresis EWMA utilization of @p vm (tests). */
    double ewmaUtil(std::uint32_t vm) const { return ewma_[vm]; }

    /**
     * Save/restore the decision vector plus, under `hysteresis`, the
     * EWMAs, so resumed runs continue byte-identically ('HHCP'
     * section 0x16).
     */
    void serialize(hh::snap::Archive &ar);

  private:
    bool hysteresis_;
    std::uint32_t harvestVm_;
    double lendUtil_;
    double holdUtil_;
    double ewmaAlpha_;
    /** The decision the SystemConfig knobs describe (static seed). */
    VmDecision fallback_;
    std::vector<VmDecision> decisions_;
    std::vector<double> ewma_;
    std::vector<std::uint8_t> seeded_; //!< EWMA initialized from row 1.
};

/** All valid selector strings. */
const std::vector<std::string> &harvestPolicyNames();

/** True when @p name is a valid selector. */
bool knownHarvestPolicy(const std::string &name);

} // namespace hh::cluster

#endif // HH_CLUSTER_HARVEST_POLICY_H
