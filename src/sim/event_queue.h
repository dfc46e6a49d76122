/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are arbitrary callbacks ordered by (time, insertion sequence);
 * ties are broken FIFO so the simulation is deterministic. Events can
 * be cancelled by id (used for timers that are superseded, e.g. a
 * polling core that gets a hardware notification first).
 *
 * Design: a binary min-heap of plain (when, seq, slot, gen) entries.
 * Callbacks are `std::function`s held in a slab of reusable records.
 * A run executes tens of thousands of events, each costing tens of
 * microseconds of cache replay, so a callback allocation per event is
 * noise. An `EventId` encodes (generation, slot); cancellation bumps
 * the slot's generation, which is O(1) and needs no hash-map lookup —
 * stale heap entries are recognised by a generation mismatch and
 * discarded lazily, with periodic compaction keeping stored entries
 * proportional to the number of live events.
 *
 * Determinism contract: pops deliver the globally minimal (when, seq)
 * pair, where seq is the schedule-order sequence number. The
 * serialize() encoding is structure-independent (live events sorted
 * by seq, plus the slab generation/free-slot state) and is pinned by a
 * golden test, so 'HHCP' checkpoints stay byte-identical.
 */

#ifndef HH_SIM_EVENT_QUEUE_H
#define HH_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"
#include "snapshot/tag.h"

namespace hh::snap {
class Archive;
} // namespace hh::snap

namespace hh::sim {

/**
 * Opaque handle identifying a scheduled event.
 *
 * Encodes (generation << 32) | (slot + 1); the +1 keeps 0 free as the
 * invalid sentinel. Generations make stale ids safe: cancelling or
 * running an event invalidates every outstanding id for its slot.
 */
using EventId = std::uint64_t;

/** Sentinel id returned for operations that cannot be cancelled. */
inline constexpr EventId kInvalidEventId = 0;

/**
 * Min-heap of timestamped callbacks with stable FIFO tie-breaking.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Member alias so generic code can name the id type. */
    using EventId = hh::sim::EventId;

    /**
     * Schedule a callback at an absolute time.
     *
     * @param when Absolute simulated time; must be >= the time of the
     *             most recently popped event.
     * @param cb   The callback to run.
     * @return An id that can be passed to cancel().
     */
    EventId schedule(Cycles when, Callback cb);

    /**
     * Schedule a callback carrying a snapshot tag.
     *
     * The tag is the serializable identity of the closure: a
     * checkpoint stores it instead of the callback, and the owning
     * component's re-arm hook rebuilds an equivalent closure from it
     * on restore. Events scheduled without a tag cannot be
     * checkpointed — serialize() panics if one is live.
     */
    EventId schedule(Cycles when, const hh::snap::SnapTag &tag,
                     Callback cb);

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event existed and had not yet run.
     */
    bool cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled, not-yet-run) events. */
    std::size_t size() const { return live_; }

    /** Time of the earliest live event. @pre !empty(). */
    Cycles nextTime() const;

    /**
     * Pop and return the earliest live event.
     *
     * @param[out] when Receives the event's timestamp.
     * @return The callback to execute.
     * @pre !empty().
     */
    Callback pop(Cycles &when);

    /** @name Introspection (tests/benchmarks) @{ */
    /** Heap entries, including not-yet-reaped cancelled ones.
     *  Bounded by compaction to O(live). */
    std::size_t heapEntries() const { return heap_.size(); }
    /** Slab records allocated (high-water mark of concurrent
     *  events, live or reusable). */
    std::size_t slabSlots() const { return slab_.size(); }
    /** Pops whose timestamp went backwards relative to the previous
     *  pop. Always 0 for a correct queue; the invariant auditor
     *  asserts it. */
    std::uint64_t monotonicViolations() const
    {
        return monotonic_violations_;
    }
    /** @} */

    /** Maps a stored snap-tag back to an equivalent callback. */
    using RearmFn =
        std::function<Callback(const hh::snap::SnapTag &)>;

    /**
     * Save or restore the queue through @p ar.
     *
     * The structural encoding preserves slot numbers, generations,
     * sequence numbers and the free-slot order, so `EventId`s held by
     * components (e.g. a core's pending completion) remain valid
     * verbatim across a restore. Saving panics on a live untagged
     * event; loading invokes @p rearm once per live event to rebuild
     * its callback into the original slot. Dead (cancelled) entries
     * are dropped at save, which is observationally equivalent to
     * compaction having run.
     */
    void serialize(hh::snap::Archive &ar, const RearmFn &rearm);

  private:
    /** One reusable event record. */
    struct Record
    {
        Callback cb;
        /** Serializable identity of cb; kNone for untagged events. */
        hh::snap::SnapTag tag;
        /** Bumped on cancel/pop; mismatching entries are dead. */
        std::uint32_t gen = 1;
    };

    /** Heap entry: plain data, no callback, no hashing. */
    struct Entry
    {
        Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Min-heap order on (when, seq) via std::*_heap's max-heap. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool dead(const Entry &e) const
    {
        return slab_[e.slot].gen != e.gen;
    }

    /** Drop dead entries off the heap top. */
    void skipDead() const;

    /** Sweep cancelled entries out once they dominate. */
    void maybeCompact();

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    mutable std::vector<Entry> heap_;
    std::vector<Record> slab_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
    /** Cancelled entries still stored in heap_. */
    mutable std::size_t dead_ = 0;
    Cycles last_popped_ = 0;
    std::uint64_t monotonic_violations_ = 0;
};

} // namespace hh::sim

#endif // HH_SIM_EVENT_QUEUE_H
