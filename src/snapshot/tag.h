/**
 * @file
 * Snapshot tags: the serializable identity of an in-flight event.
 *
 * Event callbacks are type-erased `std::function` closures and cannot
 * be serialized. Instead, every event that can be live when a
 * checkpoint is taken carries a `SnapTag` describing *which* closure
 * it is (kind) and the values it captured (up to five integer args).
 * On restore, the owning component's re-arm hook maps the tag back to
 * an equivalent closure — see `EventQueue::serialize` and
 * `docs/SNAPSHOT.md` for the contract.
 *
 * The kind registry is central (this header) so tags stay unique
 * across components; a component adding a schedule site must add a
 * kind here and handle it in its re-arm hook. ServerSim schedules
 * through that hook too (`post(delay, tag)`), so a new ServerSim
 * event is one kind plus one `rearmEvent` case, with no second
 * closure. Saving a live *untagged* event is a hard error, which is
 * how coverage is enforced.
 */

#ifndef HH_SNAPSHOT_TAG_H
#define HH_SNAPSHOT_TAG_H

#include <cstdint>

#include "snapshot/archive.h"

namespace hh::snap {

struct SnapTag
{
    enum Kind : std::uint32_t
    {
        kNone = 0,         //!< Untagged; fatal if live at save time.
        // ServerSim request path:
        kArrival,          //!< a=vm
        kExecSegment,      //!< a=core, b=reqId
        kSegmentDone,      //!< a=core, b=reqId
        kIoResponse,       //!< a=vm, b=reqId
        // ServerSim harvesting:
        kLendDone,         //!< a=core (tracked in CoreCtx.pendingEvent)
        kLendDoneRace,     //!< a=core (untracked; fault injection)
        kHarvestSliceDone, //!< a=core
        kReclaimDone,      //!< a=core, b=vm, c=reassignCost, d=flushCost
        kAgentTick,        //!< software scheduling agent period
        kCoreIdle,         //!< a=core (run-start seeding)
        // Components with their own schedule sites:
        kNicDeliver,       //!< a=pktKind, b=dstVm, c=reqId, d=bytes, e=arrival
        kSamplerTick,      //!< MetricSampler period
        kFaultTick,        //!< FaultInjector period
        kTelemetryTick,    //!< ObservationView epoch period
        kPolicyTick,       //!< HarvestPolicy epoch period
        // Service-graph fleet coordination (src/svc/):
        kGraphWireArrive,  //!< a..e = packed Packet (multi-hop RPC)
        // Cache-capacity leasing (src/lease/):
        kLeaseTick,        //!< CacheLeaseManager grant/recall period
    };

    std::uint32_t kind = kNone;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    std::uint64_t d = 0;
    std::uint64_t e = 0;

    void
    serialize(Archive &ar)
    {
        ar.io(kind);
        ar.io(a);
        ar.io(b);
        ar.io(c);
        ar.io(d);
        ar.io(e);
    }
};

/** Convenience constructors keeping call sites one-liners. */
inline SnapTag
tag(SnapTag::Kind kind, std::uint64_t a = 0, std::uint64_t b = 0,
    std::uint64_t c = 0, std::uint64_t d = 0, std::uint64_t e = 0)
{
    return SnapTag{kind, a, b, c, d, e};
}

} // namespace hh::snap

#endif // HH_SNAPSHOT_TAG_H
