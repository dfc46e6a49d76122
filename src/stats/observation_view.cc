#include "stats/observation_view.h"

#include <algorithm>

namespace hh::stats {

namespace {

/** counts[i] - prev[i] with an implicit all-zero previous vector. */
std::vector<std::uint64_t>
bucketDelta(const std::vector<std::uint64_t> &cum,
            const std::vector<std::uint64_t> &prev)
{
    std::vector<std::uint64_t> d(cum.size(), 0);
    for (std::size_t i = 0; i < cum.size(); ++i)
        d[i] = cum[i] - (i < prev.size() ? prev[i] : 0);
    return d;
}

} // namespace

void
VmCounters::serialize(hh::snap::Archive &ar)
{
    ar.io(busyCycles);
    ar.io(accesses);
    ar.io(misses);
    ar.io(validLines);
    ar.io(lineCapacity);
    ar.io(rqReady);
    ar.io(rqOccupancy);
    ar.io(rqOverflow);
    ar.io(coresBound);
    ar.io(coresLent);
    ar.io(pendingReclaims);
    ar.io(lentCycles);
    ar.io(reclaims);
    ar.io(reclaimCycles);
    ar.io(leasedWays);
    ar.io(leasedOccupancy);
}

void
ServerCounters::serialize(hh::snap::Archive &ar)
{
    ar.io(t);
    ar.io(vms);
    ar.io(batchLoaned);
    ar.io(batchNative);
    ar.io(reclaimHist);
    ar.io(latencyHist);
    ar.io(leaseGrants);
    ar.io(leaseRecalls);
    ar.io(leaseExpiries);
    ar.io(leaseFlushedLines);
    ar.io(leaseWayCycles);
}

void
VmFeatures::serialize(hh::snap::Archive &ar)
{
    ar.io(vm);
    ar.io(coreUtil);
    ar.io(mpki);
    ar.io(cacheOccupancy);
    ar.io(rqReady);
    ar.io(rqOccupancy);
    ar.io(rqOverflow);
    ar.io(coresBound);
    ar.io(coresLent);
    ar.io(pendingReclaims);
    ar.io(lentCycles);
    ar.io(reclaims);
    ar.io(reclaimCycles);
    ar.io(leasedWays);
    ar.io(leaseOccupancyDelta);
}

void
ObservationRow::serialize(hh::snap::Archive &ar)
{
    ar.io(epoch);
    ar.io(t);
    ar.io(vms);
    ar.io(batchLoanedDelta);
    ar.io(batchNativeDelta);
    ar.io(harvestedCyclesDelta);
    ar.io(reclaimsDelta);
    ar.io(reclaimHistDelta);
    ar.io(latencyHistDelta);
    ar.io(leaseGrantsDelta);
    ar.io(leaseRecallsDelta);
    ar.io(leaseExpiriesDelta);
    ar.io(leaseFlushedDelta);
    ar.io(leaseWayCyclesDelta);
}

void
ObservationView::record(const ServerCounters &cum)
{
    // prev_ is all-zero until the first record, so every delta below
    // diffs against it directly. Zero-length-epoch guard: with a
    // previous snapshot this is the final-row call landing exactly on
    // a tick. Without one it is a record at t=0 — against the
    // all-zero baseline that would be a bogus zero-length all-zero
    // row, so instead the snapshot becomes the explicit baseline (a
    // stopped-before-first-tick run then emits no rows, matching its
    // zero epochs).
    if (cum.t == prev_.t) {
        prev_ = cum;
        havePrev_ = true;
        return;
    }
    const std::uint64_t epochCycles = cum.t - prev_.t;

    ObservationRow row;
    row.epoch = ++epoch_;
    row.t = cum.t;
    row.vms.reserve(cum.vms.size());
    for (std::size_t v = 0; v < cum.vms.size(); ++v) {
        const VmCounters &c = cum.vms[v];
        static const VmCounters kZero;
        const VmCounters &p =
            v < prev_.vms.size() ? prev_.vms[v] : kZero;

        VmFeatures f;
        f.vm = static_cast<std::uint32_t>(v);
        const std::uint64_t busyDelta = c.busyCycles - p.busyCycles;
        if (c.coresBound > 0 && epochCycles > 0) {
            f.coreUtil = static_cast<double>(busyDelta) /
                         (static_cast<double>(epochCycles) *
                          static_cast<double>(c.coresBound));
            f.coreUtil = std::min(f.coreUtil, 1.0);
        }
        const std::uint64_t accDelta = c.accesses - p.accesses;
        const std::uint64_t missDelta = c.misses - p.misses;
        if (accDelta > 0)
            f.mpki = 1000.0 * static_cast<double>(missDelta) /
                     static_cast<double>(accDelta);
        if (c.lineCapacity > 0)
            f.cacheOccupancy = static_cast<double>(c.validLines) /
                               static_cast<double>(c.lineCapacity);
        f.rqReady = c.rqReady;
        f.rqOccupancy = c.rqOccupancy;
        f.rqOverflow = c.rqOverflow;
        f.coresBound = c.coresBound;
        f.coresLent = c.coresLent;
        f.pendingReclaims = c.pendingReclaims;
        f.lentCycles = c.lentCycles - p.lentCycles;
        f.reclaims = c.reclaims - p.reclaims;
        f.reclaimCycles = c.reclaimCycles - p.reclaimCycles;
        f.leasedWays = c.leasedWays;
        f.leaseOccupancyDelta =
            static_cast<std::int64_t>(c.leasedOccupancy) -
            static_cast<std::int64_t>(p.leasedOccupancy);
        row.harvestedCyclesDelta += f.lentCycles;
        row.reclaimsDelta += f.reclaims;
        row.vms.push_back(f);
    }
    row.batchLoanedDelta = cum.batchLoaned - prev_.batchLoaned;
    row.batchNativeDelta = cum.batchNative - prev_.batchNative;
    row.reclaimHistDelta = bucketDelta(cum.reclaimHist, prev_.reclaimHist);
    row.latencyHistDelta = bucketDelta(cum.latencyHist, prev_.latencyHist);
    row.leaseGrantsDelta = cum.leaseGrants - prev_.leaseGrants;
    row.leaseRecallsDelta = cum.leaseRecalls - prev_.leaseRecalls;
    row.leaseExpiriesDelta = cum.leaseExpiries - prev_.leaseExpiries;
    row.leaseFlushedDelta = cum.leaseFlushedLines - prev_.leaseFlushedLines;
    row.leaseWayCyclesDelta = cum.leaseWayCycles - prev_.leaseWayCycles;
    rows_.push_back(std::move(row));

    prev_ = cum;
    havePrev_ = true;
}

std::vector<ObservationRow>
ObservationView::takeRows()
{
    std::vector<ObservationRow> out = std::move(rows_);
    rows_.clear();
    return out;
}

void
ObservationView::serialize(hh::snap::Archive &ar)
{
    ar.io(havePrev_);
    ar.io(prev_);
    ar.io(epoch_);
    ar.io(rows_);
}

} // namespace hh::stats
