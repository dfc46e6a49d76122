/**
 * @file
 * The hardware Request Queue (RQ) and per-VM subqueues (§4.1.2).
 *
 * The physical RQ is a dedicated SRAM array broken into chunks (32
 * chunks of 64 entries in the paper's implementation). A VM's
 * subqueue is a logically contiguous queue composed of one or more
 * chunks, mapped through the Queue Manager's RQ-Map (up to 32
 * entries of 5-bit physical chunk id + valid bit = 24 B). Chunks are
 * donated/reclaimed as VMs come and go; entries that no longer fit
 * spill to a per-VM In-memory Overflow Subqueue.
 *
 * Each RQ entry is 66 bits: 2 bits of request status (ready /
 * running / blocked) and a 64-bit pointer to the request payload in
 * the LLC.
 */

#ifndef HH_CORE_RQ_H
#define HH_CORE_RQ_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "snapshot/archive.h"
#include "stats/counter.h"

namespace hh::stats {
class MetricRegistry;
}

namespace hh::core {

/** Status field of an RQ entry (2 bits in hardware). */
enum class EntryStatus : std::uint8_t
{
    Empty = 0,
    Ready = 1,
    Running = 2,
    Blocked = 3,
};

/**
 * The physical chunked SRAM array. Owns chunk allocation; subqueues
 * borrow chunks through their RQ-Maps.
 */
class RequestQueue
{
  public:
    /**
     * @param chunks          Number of physical chunks (32).
     * @param entriesPerChunk Entries per chunk (64).
     */
    explicit RequestQueue(unsigned chunks = 32,
                          unsigned entriesPerChunk = 64);

    /** Allocate a free chunk; returns -1 when none are free. */
    int allocChunk();

    /** Return a chunk to the free pool. */
    void freeChunk(unsigned chunk);

    unsigned numChunks() const { return chunks_; }
    unsigned entriesPerChunk() const { return entries_per_chunk_; }
    unsigned freeChunks() const
    {
        return static_cast<unsigned>(free_.size());
    }
    /** Chunks currently handed out (== numChunks() - freeChunks()). */
    unsigned allocatedChunks() const
    {
        return chunks_ - freeChunks();
    }
    /** Allocation state of one chunk (invariant auditing). */
    bool isAllocated(unsigned chunk) const
    {
        return chunk < chunks_ && allocated_[chunk];
    }
    unsigned totalEntries() const { return chunks_ * entries_per_chunk_; }

    /** Storage of the RQ array in bits (66 bits per entry, §6.8). */
    std::uint64_t storageBits() const;

    /**
     * Save/restore the allocation state. The free list is
     * order-significant (allocChunk pops the back), so it is
     * serialized verbatim rather than recomputed.
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(free_);
        ar.io(allocated_);
    }

  private:
    unsigned chunks_;
    unsigned entries_per_chunk_;
    std::vector<unsigned> free_;
    std::vector<bool> allocated_;
};

/**
 * One VM's logical subqueue: an RQ-Map over physical chunks plus the
 * request bookkeeping (ready FIFO, running set, blocked set) and the
 * software In-memory Overflow Subqueue.
 *
 * Slot-level physical placement inside chunks is abstracted: the
 * model tracks exact capacity (chunks x entries/chunk) and exact
 * occupancy, which is what determines overflow behaviour.
 */
class SubQueue
{
  public:
    /** @param rq The physical array chunks are drawn from. */
    explicit SubQueue(RequestQueue &rq);

    /**
     * Frees the chunks. A subqueue destroyed while it still holds
     * request payloads (ready/running/blocked/overflow) is a request
     * leak: each payload is warned about once per destruction and
     * added to the process-wide teardownPayloadLeaks() counter so
     * the leak is visible instead of silently vanishing with the
     * queue. Owners that abandon a run on purpose call discard()
     * first.
     */
    ~SubQueue();

    SubQueue(const SubQueue &) = delete;
    SubQueue &operator=(const SubQueue &) = delete;

    /**
     * Append a freshly allocated physical chunk to the RQ-Map tail.
     * @return false if the RQ-Map is full (32 entries).
     */
    bool addChunk(unsigned physChunk);

    /**
     * Shed the tail chunk (donation to another VM, §4.1.2). Entries
     * that no longer fit spill to the overflow subqueue.
     *
     * @return The physical chunk id, or -1 if the subqueue has no
     *         chunks.
     */
    int shedTailChunk();

    /** Hardware capacity in entries. */
    unsigned capacity() const;

    /** Requests resident in hardware (ready + running + blocked). */
    unsigned occupancy() const;

    /** Requests waiting in the in-memory overflow subqueue. */
    std::size_t overflowSize() const { return overflow_.size(); }

    /**
     * Enqueue a ready request (§4.1.3). Goes to the overflow
     * subqueue when the hardware subqueue is full.
     *
     * Contract: the request is ALWAYS accepted. A `false` return
     * means *deferred to the in-memory overflow subqueue*, not
     * rejected — the payload re-enters the hardware ready FIFO
     * automatically (drainOverflow) as capacity frees up, preserving
     * arrival order. Callers must therefore never retry a `false`
     * enqueue: doing so would duplicate the request. The return
     * value exists purely so callers can account for the extra
     * overflow-path latency.
     *
     * @return true if it landed in hardware, false if it was
     *         deferred to the overflow subqueue.
     */
    bool enqueue(std::uint64_t payload);

    /**
     * Dequeue the oldest ready request (FIFO within the VM) and mark
     * it running.
     */
    std::optional<std::uint64_t> dequeue();

    /** Peek whether any ready request exists. */
    bool hasReady() const { return !ready_.empty(); }

    /** Number of ready requests (hardware only). */
    std::size_t readyCount() const { return ready_.size(); }

    /** Mark a running request blocked on I/O (entry stays). */
    void markBlocked(std::uint64_t payload);

    /**
     * Mark a blocked request ready again (I/O response arrived).
     * Re-enters the ready FIFO at the head, preserving arrival order
     * relative to younger requests.
     */
    void markReady(std::uint64_t payload);

    /** Remove a completed request and refill from overflow. */
    void complete(std::uint64_t payload);

    /**
     * A running request leaves the core without completing (the
     * Harvest vCPU was preempted): back to the head of the ready
     * FIFO (Fig 10: ID5 returns to a ready state).
     */
    void preempt(std::uint64_t payload);

    /**
     * Drop every request payload without counting a leak (the owner
     * was torn down before its run finished). Chunks stay mapped.
     */
    void discard();

    /** Current RQ-Map: physical chunk ids in logical order. */
    const std::vector<unsigned> &rqMap() const { return rq_map_; }

    /** @name Introspection (invariant auditor / tests) @{ */
    /** Ready FIFO contents, oldest first (hardware only). */
    const std::deque<std::uint64_t> &readyEntries() const
    {
        return ready_;
    }
    /** Requests currently marked running. */
    const std::unordered_set<std::uint64_t> &runningEntries() const
    {
        return running_;
    }
    /** Requests currently marked blocked. */
    const std::unordered_set<std::uint64_t> &blockedEntries() const
    {
        return blocked_;
    }
    /** In-memory overflow subqueue contents, oldest first. */
    const std::deque<std::uint64_t> &overflowEntries() const
    {
        return overflow_;
    }

    /**
     * Payloads discarded by ~SubQueue across every instance since
     * process start (or the last reset). Atomic because parallel
     * cluster runs tear servers down on pool threads.
     */
    static std::uint64_t teardownPayloadLeaks()
    {
        return teardown_leaks_.load(std::memory_order_relaxed);
    }
    static void resetTeardownPayloadLeaks()
    {
        teardown_leaks_.store(0, std::memory_order_relaxed);
    }
    /** @} */

    /** RQ-Map storage in bits (32 x (5 id + 1 valid), §6.8). */
    static constexpr std::uint64_t kRqMapBits = 32 * 6;

    /** @name Statistics @{ */
    const hh::stats::Counter &enqueues() const { return enqueues_; }
    const hh::stats::Counter &dequeues() const { return dequeues_; }
    const hh::stats::Counter &overflows() const { return overflows_; }

    /**
     * Register lifetime counters ("<prefix>.enqueues", ".dequeues",
     * ".overflows") and instantaneous gauges (".ready", ".occupancy",
     * ".overflow_size").
     */
    void registerMetrics(hh::stats::MetricRegistry &reg,
                         const std::string &prefix);
    /** @} */

    /**
     * Save/restore the RQ-Map and all request bookkeeping. Chunk
     * allocation in the physical array is restored separately by the
     * controller (the chunks named in rq_map_ must already be marked
     * allocated there).
     */
    void
    serialize(hh::snap::Archive &ar)
    {
        ar.io(rq_map_);
        ar.io(ready_);
        ar.io(running_);
        ar.io(blocked_);
        ar.io(overflow_);
        ar.io(enqueues_);
        ar.io(dequeues_);
        ar.io(overflows_);
    }

  private:
    /** Move overflowed requests into freed hardware slots. */
    void drainOverflow();

    RequestQueue &rq_;
    std::vector<unsigned> rq_map_;
    std::deque<std::uint64_t> ready_;
    std::unordered_set<std::uint64_t> running_;
    std::unordered_set<std::uint64_t> blocked_;
    std::deque<std::uint64_t> overflow_;
    hh::stats::Counter enqueues_{"rq.enqueues"};
    hh::stats::Counter dequeues_{"rq.dequeues"};
    hh::stats::Counter overflows_{"rq.overflows"};

    static std::atomic<std::uint64_t> teardown_leaks_;
};

} // namespace hh::core

#endif // HH_CORE_RQ_H
