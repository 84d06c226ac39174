/**
 * @file
 * Handler slabs, slot-key heaps and per-variable wait sets.
 *
 * A parked simulator operation (a spinning waitGE, a keyed access
 * parked at its module, a far-future event) stores its completion
 * handler once, in a free-listed Slab slot, and keeps it there until
 * it runs. Wait lists, heaps and event captures move only small
 * {rank, seq, slot} keys, never the 104-byte handlers.
 *
 * WaitSet orders a variable's waiters by threshold, so a release
 * touches only the waiters it satisfies. It hands them out in
 * arrival order, which is exactly the order a scan of a FIFO wait
 * list would have woken them in. A threshold-free releaseAll hands
 * waiters out by (rank, arrival) instead, so callers that park at
 * rank 0 get FIFO order and callers may rank parks by the tick they
 * logically happened at.
 */

#ifndef PSYNC_SIM_WAIT_SET_HH
#define PSYNC_SIM_WAIT_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace psync {
namespace sim {

/**
 * Free-listed slab of T. Freed slots are reused before the slab
 * grows, so a steady state allocates nothing. A freed item keeps its
 * last state until its slot is handed out again, so move a handler
 * out before freeing its slot. References are invalidated by
 * alloc(): move a handler out before invoking it if the handler may
 * allocate from the same slab.
 */
template <typename T>
class Slab
{
  public:
    /** Take a free slot (reusing one first) holding `item`. */
    std::uint32_t
    alloc(T &&item)
    {
        if (free_ != noSlot) {
            std::uint32_t slot = free_;
            free_ = next_[slot];
            items_[slot] = std::move(item);
            return slot;
        }
        items_.push_back(std::move(item));
        next_.push_back(noSlot);
        return static_cast<std::uint32_t>(items_.size() - 1);
    }

    /** Take a free slot holding a fresh T. */
    std::uint32_t alloc() { return alloc(T{}); }

    /** Return `slot` to the free list. */
    void
    free(std::uint32_t slot)
    {
        next_[slot] = free_;
        free_ = slot;
    }

    T &operator[](std::uint32_t slot) { return items_[slot]; }

    /** Slots ever created, live or free. */
    std::size_t capacity() const { return items_.size(); }

    /** Destroy every item and forget every slot. */
    void
    clear()
    {
        items_.clear();
        next_.clear();
        free_ = noSlot;
    }

  private:
    static constexpr std::uint32_t noSlot = ~0u;

    std::vector<T> items_;
    std::vector<std::uint32_t> next_;
    std::uint32_t free_ = noSlot;
};

/** Heap key: ordered by (rank, seq); `slot` names the payload. */
struct SlotKey
{
    std::uint64_t rank;
    std::uint64_t seq;
    std::uint32_t slot;
};

/** Binary min-heap of SlotKeys on (rank, seq). */
class KeyHeap
{
  public:
    bool empty() const { return keys_.empty(); }
    std::size_t size() const { return keys_.size(); }
    const SlotKey &top() const { return keys_.front(); }

    void
    push(SlotKey key)
    {
        keys_.push_back(key);
        std::push_heap(keys_.begin(), keys_.end(), later);
    }

    SlotKey
    pop()
    {
        std::pop_heap(keys_.begin(), keys_.end(), later);
        SlotKey key = keys_.back();
        keys_.pop_back();
        return key;
    }

    void clear() { keys_.clear(); }

    /** The heap array (heap order), for whole-heap hand-offs. */
    std::vector<SlotKey> &keys() { return keys_; }

  private:
    static bool
    later(const SlotKey &a, const SlotKey &b)
    {
        if (a.rank != b.rank)
            return a.rank > b.rank;
        return a.seq > b.seq;
    }

    std::vector<SlotKey> keys_;
};

/**
 * Waiters parked per synchronization variable, each a slot key whose
 * rank is the value that satisfies it. The caller owns the slots
 * (usually in a Slab); the set stores keys only.
 */
class WaitSet
{
  public:
    /**
     * Park `slot` on `var` until a release of at least `threshold`,
     * or until a releaseAll, which ranks it by `threshold`.
     */
    void
    park(SyncVarId var, SyncWord threshold, std::uint32_t slot)
    {
        if (var >= heaps_.size()) {
            heaps_.resize(var + 1);
            lowest_.resize(var + 1, noWaiter);
        }
        heaps_[var].push({threshold, nextSeq_++, slot});
        lowest_[var] = std::min(lowest_[var], threshold);
    }

    /**
     * `var` now holds `value`: remove every waiter whose threshold
     * it meets and call fn(slot) for each, in arrival order. Waiters
     * fn parks meanwhile are kept for the next release.
     */
    template <typename Fn>
    void
    release(SyncVarId var, SyncWord value, Fn &&fn)
    {
        if (var >= lowest_.size() || lowest_[var] > value)
            return;
        KeyHeap &heap = heaps_[var];
        std::vector<SlotKey> woken;
        woken.swap(scratch_);
        while (!heap.empty() && heap.top().rank <= value)
            woken.push_back(heap.pop());
        lowest_[var] = heap.empty() ? noWaiter : heap.top().rank;
        handOut(woken, std::forward<Fn>(fn),
                [](const SlotKey &a, const SlotKey &b) {
            return a.seq < b.seq;
        });
    }

    /**
     * Remove every waiter of `var` and call fn(slot) for each, by
     * (rank, arrival): FIFO among waiters parked at equal ranks.
     */
    template <typename Fn>
    void
    releaseAll(SyncVarId var, Fn &&fn)
    {
        if (var >= heaps_.size() || heaps_[var].empty())
            return;
        std::vector<SlotKey> woken;
        woken.swap(scratch_);
        woken.swap(heaps_[var].keys());
        lowest_[var] = noWaiter;
        handOut(woken, std::forward<Fn>(fn), [](const SlotKey &a,
                                                const SlotKey &b) {
            return a.rank != b.rank ? a.rank < b.rank : a.seq < b.seq;
        });
    }

    /** Waiters parked on every variable. */
    std::size_t
    size() const
    {
        std::size_t waiters = 0;
        for (const KeyHeap &heap : heaps_)
            waiters += heap.size();
        return waiters;
    }

    /** Call fn(var, waiters) for each variable with waiters, by id. */
    template <typename Fn>
    void
    forEachVar(Fn &&fn) const
    {
        for (std::size_t var = 0; var < heaps_.size(); ++var) {
            if (!heaps_[var].empty())
                fn(static_cast<SyncVarId>(var), heaps_[var].size());
        }
    }

  private:
    /** Call fn(slot) for each of `woken` in `order`. */
    template <typename Fn, typename Order>
    void
    handOut(std::vector<SlotKey> &woken, Fn &&fn, Order order)
    {
        // Keys pushed in non-decreasing rank stay in arrival order
        // inside the heap array, so the common case needs no sort.
        if (!std::is_sorted(woken.begin(), woken.end(), order))
            std::sort(woken.begin(), woken.end(), order);
        for (const SlotKey &key : woken)
            fn(key.slot);
        woken.clear();
        // Keep the buffer's capacity for the next release; a nested
        // release from fn took (and may drop) a fresh one.
        scratch_.swap(woken);
    }

    static constexpr SyncWord noWaiter = ~SyncWord{0};

    std::vector<KeyHeap> heaps_;
    /**
     * Lowest waiting threshold per variable (noWaiter when none), so
     * a release that wakes nobody reads one dense word.
     */
    std::vector<SyncWord> lowest_;
    std::vector<SlotKey> scratch_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_WAIT_SET_HH
