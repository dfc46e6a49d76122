#include "sim/event_queue.h"

#include <algorithm>
#include <string>

#include "sim/log.h"
#include "snapshot/archive.h"

namespace hh::sim {

namespace {

constexpr std::uint32_t kGenShift = 32;

inline EventId
makeId(std::uint32_t gen, std::uint32_t slot)
{
    return (static_cast<EventId>(gen) << kGenShift) |
           (static_cast<EventId>(slot) + 1);
}

} // namespace

std::uint32_t
EventQueue::allocSlot()
{
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Record &rec = slab_[slot];
    rec.cb = nullptr;
    rec.tag = hh::snap::SnapTag{};
    ++rec.gen;
    free_slots_.push_back(slot);
}

EventId
EventQueue::schedule(Cycles when, Callback cb)
{
    const std::uint32_t slot = allocSlot();
    Record &rec = slab_[slot];
    rec.cb = std::move(cb);
    heap_.push_back(Entry{when, next_seq_++, slot, rec.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return makeId(rec.gen, slot);
}

EventId
EventQueue::schedule(Cycles when, const hh::snap::SnapTag &tag,
                     Callback cb)
{
    const EventId id = schedule(when, std::move(cb));
    slab_[static_cast<std::uint32_t>((id & 0xffffffffu) - 1)].tag =
        tag;
    return id;
}

void
EventQueue::serialize(hh::snap::Archive &ar, const RearmFn &rearm)
{
    ar.section(0x45565451u, "event_queue"); // 'EVTQ'
    if (ar.saving()) {
        // Live entries in deterministic (seq) order; dead heap
        // entries are dropped, which a resumed run cannot observe.
        std::vector<Entry> live;
        live.reserve(live_);
        for (const Entry &e : heap_) {
            if (!dead(e))
                live.push_back(e);
        }
        std::sort(live.begin(), live.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.seq < b.seq;
                  });
        std::uint64_t n = live.size();
        ar.io(n);
        for (Entry &e : live) {
            Record &rec = slab_[e.slot];
            if (rec.tag.kind == hh::snap::SnapTag::kNone) {
                panic("EventQueue snapshot: live event at t=", e.when,
                      " (slot ", e.slot,
                      ") was scheduled without a snap tag");
            }
            ar.io(e.when);
            ar.io(e.seq);
            ar.io(e.slot);
            ar.io(e.gen);
            ar.io(rec.tag);
        }
        // Slot generations (all slots, so stale EventIds stay
        // invalid after restore) and the free-slot order (so slot
        // allocation resumes identically).
        std::uint64_t slots = slab_.size();
        ar.io(slots);
        for (Record &rec : slab_)
            ar.io(rec.gen);
        ar.io(free_slots_);
        ar.io(next_seq_);
        ar.io(last_popped_);
        ar.io(monotonic_violations_);
        return;
    }

    // Each count is checked against the bytes left, as the archive
    // checks its containers' lengths, before it sizes an allocation:
    // a corrupt count fails the load instead of asking for exabytes.
    const auto fits = [&ar](std::uint64_t count, const char *what) {
        if (ar.ok() && count > ar.remaining())
            ar.fail(std::string("event queue snapshot: ") + what + " " +
                    std::to_string(count) + " exceeds the " +
                    std::to_string(ar.remaining()) + " remaining bytes");
        return ar.ok();
    };
    std::uint64_t n = 0;
    ar.io(n);
    if (!fits(n, "event count"))
        return;
    struct Saved
    {
        Entry entry;
        hh::snap::SnapTag tag;
    };
    std::vector<Saved> saved;
    saved.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
        Saved s{};
        ar.io(s.entry.when);
        ar.io(s.entry.seq);
        ar.io(s.entry.slot);
        ar.io(s.entry.gen);
        ar.io(s.tag);
        saved.push_back(s);
    }
    std::uint64_t slots = 0;
    ar.io(slots);
    if (!fits(slots, "slab slot count"))
        return;
    std::vector<std::uint32_t> gens(
        static_cast<std::size_t>(slots));
    for (auto &g : gens)
        ar.io(g);
    std::vector<std::uint32_t> free_slots;
    ar.io(free_slots);
    std::uint64_t next_seq = 0;
    Cycles last_popped = 0;
    std::uint64_t monotonic = 0;
    ar.io(next_seq);
    ar.io(last_popped);
    ar.io(monotonic);
    if (!ar.ok())
        return;

    heap_.clear();
    slab_.clear();
    slab_.resize(gens.size());
    for (std::size_t i = 0; i < gens.size(); ++i)
        slab_[i].gen = gens[i];
    for (const Saved &s : saved) {
        if (s.entry.slot >= slab_.size()) {
            ar.fail("event queue snapshot: slot out of range");
            return;
        }
        Record &rec = slab_[s.entry.slot];
        rec.tag = s.tag;
        rec.cb = rearm(s.tag);
        if (!rec.cb) {
            panic("EventQueue restore: re-arm hook returned no "
                  "callback for tag kind ", s.tag.kind);
        }
        heap_.push_back(s.entry);
    }
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    free_slots_ = std::move(free_slots);
    next_seq_ = next_seq;
    live_ = heap_.size();
    dead_ = 0;
    last_popped_ = last_popped;
    monotonic_violations_ = monotonic;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kInvalidEventId)
        return false;
    const std::uint32_t slot =
        static_cast<std::uint32_t>((id & 0xffffffffu) - 1);
    const std::uint32_t gen =
        static_cast<std::uint32_t>(id >> kGenShift);
    if (slot >= slab_.size() || slab_[slot].gen != gen ||
        !slab_[slot].cb)
        return false;
    // Invalidate the slot; its heap entry becomes dead and is reaped
    // lazily on pop or by compaction.
    freeSlot(slot);
    --live_;
    ++dead_;
    maybeCompact();
    return true;
}

void
EventQueue::skipDead() const
{
    while (!heap_.empty() && dead(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        --dead_;
    }
}

void
EventQueue::maybeCompact()
{
    // Sweep once cancelled entries dominate. The threshold of 64
    // avoids sweeping tiny queues; the > live_ condition makes the
    // O(n) sweep amortised O(1) per cancel while capping stored
    // entries at ~2x the live event count.
    if (dead_ <= 64 || dead_ <= live_)
        return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry &e) {
                                   return dead(e);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    dead_ = 0;
}

Cycles
EventQueue::nextTime() const
{
    skipDead();
    if (heap_.empty())
        panic("EventQueue::nextTime on empty queue");
    return heap_.front().when;
}

EventQueue::Callback
EventQueue::pop(Cycles &when)
{
    skipDead();
    if (heap_.empty())
        panic("EventQueue::pop on empty queue");
    const Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    when = top.when;
    if (when < last_popped_)
        ++monotonic_violations_;
    last_popped_ = when;
    Callback cb = std::move(slab_[top.slot].cb);
    freeSlot(top.slot);
    --live_;
    return cb;
}

} // namespace hh::sim
