#include "core/rq.h"

#include <algorithm>

#include "sim/log.h"
#include "stats/registry.h"

namespace hh::core {

RequestQueue::RequestQueue(unsigned chunks, unsigned entriesPerChunk)
    : chunks_(chunks), entries_per_chunk_(entriesPerChunk),
      allocated_(chunks, false)
{
    if (chunks == 0 || entriesPerChunk == 0)
        hh::sim::fatal("RequestQueue: chunks and entries must be > 0");
    free_.reserve(chunks);
    // Hand out low chunk ids first (freeChunk pushes back, so the
    // pool behaves LIFO afterwards; allocation order is not
    // architecturally visible).
    for (unsigned c = chunks; c-- > 0;)
        free_.push_back(c);
}

int
RequestQueue::allocChunk()
{
    if (free_.empty())
        return -1;
    const unsigned c = free_.back();
    free_.pop_back();
    allocated_[c] = true;
    return static_cast<int>(c);
}

void
RequestQueue::freeChunk(unsigned chunk)
{
    if (chunk >= chunks_)
        hh::sim::panic("RequestQueue::freeChunk: bad chunk ", chunk);
    if (!allocated_[chunk])
        hh::sim::panic("RequestQueue::freeChunk: double free of ",
                       chunk);
    allocated_[chunk] = false;
    free_.push_back(chunk);
}

std::uint64_t
RequestQueue::storageBits() const
{
    // 2 status bits + 64-bit payload pointer per entry (§6.8).
    return static_cast<std::uint64_t>(totalEntries()) * 66;
}

std::atomic<std::uint64_t> SubQueue::teardown_leaks_{0};

SubQueue::SubQueue(RequestQueue &rq) : rq_(rq) {}

SubQueue::~SubQueue()
{
    const std::size_t leaked = ready_.size() + running_.size() +
                               blocked_.size() + overflow_.size();
    if (leaked > 0) {
        teardown_leaks_.fetch_add(leaked, std::memory_order_relaxed);
        hh::sim::warn("SubQueue destroyed with ", leaked,
                      " live request(s): ", ready_.size(), " ready, ",
                      running_.size(), " running, ", blocked_.size(),
                      " blocked, ", overflow_.size(), " overflow");
    }
    for (unsigned c : rq_map_)
        rq_.freeChunk(c);
}

bool
SubQueue::addChunk(unsigned physChunk)
{
    if (rq_map_.size() >= 32)
        return false; // RQ-Map is a 32-entry hardware table.
    rq_map_.push_back(physChunk);
    drainOverflow();
    return true;
}

int
SubQueue::shedTailChunk()
{
    if (rq_map_.empty())
        return -1;
    const unsigned c = rq_map_.back();
    rq_map_.pop_back();
    // Entries that no longer fit move to the overflow subqueue,
    // youngest first (they are at the logical tail).
    while (occupancy() > capacity() && !ready_.empty()) {
        overflow_.push_front(ready_.back());
        ready_.pop_back();
    }
    return static_cast<int>(c);
}

unsigned
SubQueue::capacity() const
{
    return static_cast<unsigned>(rq_map_.size()) *
           rq_.entriesPerChunk();
}

unsigned
SubQueue::occupancy() const
{
    return static_cast<unsigned>(ready_.size() + running_.size() +
                                 blocked_.size());
}

bool
SubQueue::enqueue(std::uint64_t payload)
{
    enqueues_.inc();
    if (!overflow_.empty() || occupancy() >= capacity()) {
        // Preserve FIFO: once anything has overflowed, new arrivals
        // must queue behind it.
        overflows_.inc();
        overflow_.push_back(payload);
        return false;
    }
    ready_.push_back(payload);
    return true;
}

std::optional<std::uint64_t>
SubQueue::dequeue()
{
    if (ready_.empty())
        return std::nullopt;
    const std::uint64_t p = ready_.front();
    ready_.pop_front();
    running_.insert(p);
    dequeues_.inc();
    drainOverflow();
    return p;
}

void
SubQueue::markBlocked(std::uint64_t payload)
{
    if (running_.erase(payload) == 0)
        hh::sim::panic("SubQueue::markBlocked: request ", payload,
                       " is not running");
    blocked_.insert(payload);
}

void
SubQueue::markReady(std::uint64_t payload)
{
    if (blocked_.erase(payload) == 0)
        hh::sim::panic("SubQueue::markReady: request ", payload,
                       " is not blocked");
    ready_.push_front(payload);
}

void
SubQueue::complete(std::uint64_t payload)
{
    if (running_.erase(payload) == 0)
        hh::sim::panic("SubQueue::complete: request ", payload,
                       " is not running");
    drainOverflow();
}

void
SubQueue::preempt(std::uint64_t payload)
{
    if (running_.erase(payload) == 0)
        hh::sim::panic("SubQueue::preempt: request ", payload,
                       " is not running");
    ready_.push_front(payload);
}

void
SubQueue::discard()
{
    ready_.clear();
    running_.clear();
    blocked_.clear();
    overflow_.clear();
}

void
SubQueue::drainOverflow()
{
    while (!overflow_.empty() && occupancy() < capacity()) {
        ready_.push_back(overflow_.front());
        overflow_.pop_front();
    }
}

void
SubQueue::registerMetrics(hh::stats::MetricRegistry &reg,
                          const std::string &prefix)
{
    reg.registerCounter(prefix + ".enqueues", enqueues_);
    reg.registerCounter(prefix + ".dequeues", dequeues_);
    reg.registerCounter(prefix + ".overflows", overflows_);
    reg.registerGauge(prefix + ".ready",
                      [this] { return double(readyCount()); });
    reg.registerGauge(prefix + ".occupancy",
                      [this] { return double(occupancy()); });
    reg.registerGauge(prefix + ".overflow_size",
                      [this] { return double(overflowSize()); });
}

} // namespace hh::core
