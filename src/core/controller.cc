#include "core/controller.h"

#include <algorithm>
#include <unordered_set>

#include "sim/log.h"
#include "stats/registry.h"

namespace hh::core {

HardHarvestController::HardHarvestController(const ControllerConfig &cfg,
                                             unsigned numCores)
    : cfg_(cfg), rq_(cfg.rqChunks, cfg.entriesPerChunk),
      tree_(numCores, cfg.treeFanout, cfg.treeHopLatency)
{
    if (cfg.maxQms == 0)
        hh::sim::fatal("HardHarvestController: need at least one QM");
}

QueueManager &
HardHarvestController::registerVm(std::uint32_t vmId, bool primary,
                                  unsigned weight)
{
    if (qmFor(vmId))
        hh::sim::panic("HardHarvestController: VM ", vmId,
                       " already registered");
    if (qms_.size() >= cfg_.maxQms)
        hh::sim::fatal("HardHarvestController: out of Queue Managers");
    if (weight == 0)
        hh::sim::fatal("HardHarvestController: VM weight must be > 0");

    Slot slot;
    slot.qm = std::make_unique<QueueManager>(next_qm_id_++, vmId,
                                             primary, rq_);
    slot.weight = weight;
    qms_.push_back(std::move(slot));
    rebalanceChunks();
    return *qms_.back().qm;
}

void
HardHarvestController::removeVm(std::uint32_t vmId)
{
    const auto it = std::find_if(qms_.begin(), qms_.end(),
                                 [&](const Slot &s) {
                                     return s.qm->vm() == vmId;
                                 });
    if (it == qms_.end())
        hh::sim::panic("HardHarvestController: VM ", vmId,
                       " not registered");
    // The SubQueue destructor returns its chunks to the RQ pool; the
    // survivors then grow into the freed space.
    qms_.erase(it);
    rebalanceChunks();
}

QueueManager *
HardHarvestController::qmFor(std::uint32_t vmId)
{
    for (auto &s : qms_) {
        if (s.qm->vm() == vmId)
            return s.qm.get();
    }
    return nullptr;
}

const QueueManager *
HardHarvestController::qmFor(std::uint32_t vmId) const
{
    return const_cast<HardHarvestController *>(this)->qmFor(vmId);
}

unsigned
HardHarvestController::totalWeight() const
{
    unsigned w = 0;
    for (const auto &s : qms_)
        w += s.weight;
    return w;
}

void
HardHarvestController::rebalanceChunks()
{
    if (qms_.empty())
        return;
    const unsigned total_weight = totalWeight();
    const unsigned chunks = rq_.numChunks();

    // Proportional targets, at least one chunk per VM.
    std::vector<unsigned> target(qms_.size());
    unsigned assigned = 0;
    for (std::size_t i = 0; i < qms_.size(); ++i) {
        target[i] = std::max(
            1u, chunks * qms_[i].weight / total_weight);
        assigned += target[i];
    }
    // Hand out any remainder round-robin (weights rarely divide 32).
    for (std::size_t i = 0; assigned < chunks && !qms_.empty();
         i = (i + 1) % qms_.size()) {
        ++target[i];
        ++assigned;
    }
    // If minimums overcommitted (many tiny VMs), trim the largest.
    while (assigned > chunks) {
        const auto it = std::max_element(target.begin(), target.end());
        if (*it <= 1)
            break;
        --*it;
        --assigned;
    }

    // Phase 1: donors shed tail chunks into the free pool.
    for (std::size_t i = 0; i < qms_.size(); ++i) {
        SubQueue &q = qms_[i].qm->queue();
        while (q.rqMap().size() > target[i]) {
            const int c = q.shedTailChunk();
            if (c < 0)
                break;
            rq_.freeChunk(static_cast<unsigned>(c));
        }
    }
    // Phase 2: takers grow from the free pool.
    for (std::size_t i = 0; i < qms_.size(); ++i) {
        SubQueue &q = qms_[i].qm->queue();
        while (q.rqMap().size() < target[i]) {
            const int c = rq_.allocChunk();
            if (c < 0)
                return; // pool exhausted; others already at target
            if (!q.addChunk(static_cast<unsigned>(c))) {
                rq_.freeChunk(static_cast<unsigned>(c));
                break;
            }
        }
    }
}

bool
HardHarvestController::enqueue(std::uint32_t vm, std::uint64_t payload)
{
    QueueManager *qm = qmFor(vm);
    if (!qm)
        hh::sim::panic("HardHarvestController::enqueue: unknown VM ",
                       vm);
    return qm->queue().enqueue(payload);
}

std::optional<std::uint64_t>
HardHarvestController::dequeue(std::uint32_t vm)
{
    QueueManager *qm = qmFor(vm);
    if (!qm)
        hh::sim::panic("HardHarvestController::dequeue: unknown VM ",
                       vm);
    return qm->queue().dequeue();
}

void
HardHarvestController::markBlocked(std::uint32_t vm,
                                   std::uint64_t payload)
{
    QueueManager *qm = qmFor(vm);
    if (!qm)
        hh::sim::panic("HardHarvestController::markBlocked: unknown "
                       "VM ", vm);
    qm->queue().markBlocked(payload);
}

void
HardHarvestController::markReady(std::uint32_t vm, std::uint64_t payload)
{
    QueueManager *qm = qmFor(vm);
    if (!qm)
        hh::sim::panic("HardHarvestController::markReady: unknown VM ",
                       vm);
    qm->queue().markReady(payload);
}

void
HardHarvestController::complete(std::uint32_t vm, std::uint64_t payload)
{
    QueueManager *qm = qmFor(vm);
    if (!qm)
        hh::sim::panic("HardHarvestController::complete: unknown VM ",
                       vm);
    qm->queue().complete(payload);
}

void
HardHarvestController::preempt(std::uint32_t vm, std::uint64_t payload)
{
    QueueManager *qm = qmFor(vm);
    if (!qm)
        hh::sim::panic("HardHarvestController::preempt: unknown VM ",
                       vm);
    qm->queue().preempt(payload);
}

hh::sim::Cycles
HardHarvestController::queueOpLatency() const
{
    return tree_.roundTrip() + cfg_.sramAccess;
}

hh::sim::Cycles
HardHarvestController::notifyLatency() const
{
    return tree_.coreToController();
}

void
HardHarvestController::serialize(hh::snap::Archive &ar)
{
    ar.section(0x51, "controller");
    ar.io(next_qm_id_);
    std::uint32_t n = static_cast<std::uint32_t>(qms_.size());
    ar.io(n);
    if (ar.loading() && n > cfg_.maxQms) {
        ar.fail("checkpoint names more QMs than this controller "
                "supports");
        return;
    }

    struct Ident
    {
        std::uint32_t id = 0;
        std::uint32_t vm = 0;
        bool primary = false;
        unsigned weight = 0;
    };
    std::vector<Ident> idents(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        if (ar.saving()) {
            idents[i] = {qms_[i].qm->id(), qms_[i].qm->vm(),
                         qms_[i].qm->isPrimary(), qms_[i].weight};
        }
        ar.io(idents[i].id);
        ar.io(idents[i].vm);
        ar.io(idents[i].primary);
        ar.io(idents[i].weight);
    }
    if (!ar.ok())
        return;

    if (ar.loading()) {
        // Reconcile the live QM list with the saved identity slots.
        // Matching slots keep their QueueManager object (metric
        // registrations point into it); mismatched or extra slots are
        // torn down and rebuilt. All teardown happens BEFORE the RQ
        // state is restored: destructors return chunks to the pool,
        // and the restored allocation state then overwrites the pool
        // wholesale.
        if (qms_.size() > n)
            qms_.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            const Ident &w = idents[i];
            const bool match = i < qms_.size() &&
                               qms_[i].qm->id() == w.id &&
                               qms_[i].qm->vm() == w.vm &&
                               qms_[i].qm->isPrimary() == w.primary;
            if (match) {
                qms_[i].weight = w.weight;
                continue;
            }
            Slot slot;
            slot.qm = std::make_unique<QueueManager>(w.id, w.vm,
                                                     w.primary, rq_);
            slot.weight = w.weight;
            if (i < qms_.size())
                qms_[i] = std::move(slot);
            else
                qms_.push_back(std::move(slot));
        }
    }

    ar.io(rq_);
    for (std::uint32_t i = 0; i < n && ar.ok(); ++i)
        qms_[i].qm->serialize(ar);
}

void
HardHarvestController::registerMetrics(hh::stats::MetricRegistry &reg,
                                       const std::string &prefix)
{
    reg.registerGauge(prefix + ".free_chunks",
                      [this] { return double(rq_.freeChunks()); });
    reg.registerGauge(prefix + ".vms",
                      [this] { return double(numVms()); });
}

std::optional<std::string>
HardHarvestController::auditRq() const
{
    using hh::sim::detail::concat;
    std::vector<unsigned> owners(rq_.numChunks(), 0);
    std::size_t mapped = 0;
    for (const auto &slot : qms_) {
        const QueueManager &qm = *slot.qm;
        const auto &q = qm.queue();
        for (const unsigned chunk : q.rqMap()) {
            if (chunk >= rq_.numChunks())
                return concat("vm ", qm.vm(), " maps nonexistent chunk ",
                              chunk);
            if (++owners[chunk] > 1)
                return concat("chunk ", chunk,
                              " mapped by more than one subqueue");
            if (!rq_.isAllocated(chunk))
                return concat("chunk ", chunk, " mapped by vm ", qm.vm(),
                              " but marked free");
            ++mapped;
        }
        std::unordered_set<std::uint64_t> seen;
        const auto dup = [&](std::uint64_t id) {
            return !seen.insert(id).second;
        };
        for (const auto id : q.readyEntries())
            if (dup(id))
                return concat("request ", id, " present twice in vm ",
                              qm.vm(), "'s subqueue");
        for (const auto *set : {&q.runningEntries(), &q.blockedEntries()})
            for (const auto id : *set)
                if (dup(id))
                    return concat("request ", id,
                                  " in two containers of vm ", qm.vm(),
                                  "'s subqueue");
        for (const auto id : q.overflowEntries())
            if (dup(id))
                return concat("request ", id,
                              " both in hardware and overflow of vm ",
                              qm.vm());
        if (!q.overflowEntries().empty() && q.occupancy() < q.capacity())
            return concat("vm ", qm.vm(),
                          " has overflow entries while hardware slots "
                          "are free");
    }
    if (mapped != rq_.allocatedChunks() ||
        mapped + rq_.freeChunks() != rq_.numChunks())
        return concat("chunk accounting broken: ", mapped, " mapped, ",
                      rq_.allocatedChunks(), " allocated, ",
                      rq_.freeChunks(), " free of ", rq_.numChunks());
    return std::nullopt;
}

std::optional<std::string>
HardHarvestController::auditHarvestMasks(bool partitioning) const
{
    using hh::sim::detail::concat;
    for (const auto &slot : qms_) {
        const QueueManager &qm = *slot.qm;
        const HarvestMask &m = qm.harvestMask();
        for (unsigned s = 0; s < kNumMaskedStructs; ++s) {
            const auto ms = static_cast<MaskedStruct>(s);
            const auto mask = m.mask(ms);
            const auto full = static_cast<hh::cache::WayMask>(
                (1u << m.wayCount(ms)) - 1);
            if (mask & ~full)
                return concat("vm ", qm.vm(),
                              " harvest mask wider than structure ", s);
            if (partitioning && (mask == 0 || mask == full))
                return concat("vm ", qm.vm(),
                              " harvest mask for structure ", s,
                              " does not partition");
        }
    }
    return std::nullopt;
}

} // namespace hh::core
