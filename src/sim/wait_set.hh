/**
 * @file
 * Handler slabs, FIFO rings, slot-key heaps and per-variable wait
 * sets.
 *
 * A parked simulator operation (a spinning waitGE, a keyed access
 * parked at its module, a far-future event) stores its completion
 * handler once, in a free-listed Slab slot, and keeps it there until
 * it runs. Wait lists, heaps and event captures move only small
 * {rank, seq, slot} keys, never the 104-byte handlers.
 *
 * WaitSet keeps a variable's waiters sorted by threshold, so a
 * release touches only the waiters it satisfies. It hands them out
 * in arrival order, which is exactly the order a scan of a FIFO wait
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

/**
 * FIFO of trivially copyable T in a power-of-two circular buffer
 * that doubles when full, so a steady state allocates nothing and
 * pops never shift the buffer.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    T &front() { return items_[head_]; }
    const T &front() const { return items_[head_]; }
    T &back() { return items_[(head_ + count_ - 1) & mask()]; }

    void
    push_back(const T &item)
    {
        if (count_ == items_.size())
            grow();
        items_[(head_ + count_) & mask()] = item;
        ++count_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask();
        --count_;
    }

  private:
    std::size_t mask() const { return items_.size() - 1; }

    void
    grow()
    {
        std::vector<T> bigger(items_.empty() ? 16 : 2 * items_.size());
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = items_[(head_ + i) & mask()];
        items_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> items_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
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
 *
 * Each variable keeps one run of keys sorted by (rank, seq) behind a
 * head cursor. Parks mostly arrive in non-decreasing rank (spinners
 * ranked by the tick their polls completed), so a park appends or
 * inserts a short way from the back, a release takes a prefix and a
 * releaseAll hands the run out as it stands.
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
        if (var >= runs_.size())
            runs_.resize(var + 1);
        std::vector<SlotKey> &keys = runs_[var].keys;
        SlotKey key{threshold, nextSeq_++, slot};
        if (keys.empty() || keys.back().rank <= threshold) {
            keys.push_back(key);
            return;
        }
        // Out of order: file it after every key of an equal or lower
        // rank (their seqs are all older).
        auto pos = std::upper_bound(
            keys.begin() + static_cast<std::ptrdiff_t>(runs_[var].head),
            keys.end(), threshold,
            [](SyncWord rank, const SlotKey &k) { return rank < k.rank; });
        keys.insert(pos, key);
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
        if (var >= runs_.size())
            return;
        Run &run = runs_[var];
        std::size_t head = run.head;
        std::size_t end = head;
        while (end < run.keys.size() && run.keys[end].rank <= value)
            ++end;
        if (end == head)
            return;
        std::vector<SlotKey> woken;
        woken.swap(scratch_);
        woken.assign(run.keys.begin() + head, run.keys.begin() + end);
        run.head = end;
        compact(run);
        if (!std::is_sorted(woken.begin(), woken.end(), bySeq))
            std::sort(woken.begin(), woken.end(), bySeq);
        handOut(woken, 0, std::forward<Fn>(fn));
    }

    /**
     * Remove every waiter of `var` and call fn(slot) for each, by
     * (rank, arrival): FIFO among waiters parked at equal ranks.
     */
    template <typename Fn>
    void
    releaseAll(SyncVarId var, Fn &&fn)
    {
        if (var >= runs_.size())
            return;
        Run &run = runs_[var];
        std::size_t head = run.head;
        if (head == run.keys.size())
            return;
        // The run is already in (rank, seq) order: hand it out as it
        // stands, leaving the scratch buffer in its place.
        std::vector<SlotKey> woken;
        woken.swap(scratch_);
        woken.clear();
        woken.swap(run.keys);
        run.head = 0;
        handOut(woken, head, std::forward<Fn>(fn));
    }

    /** Waiters parked on every variable. */
    std::size_t
    size() const
    {
        std::size_t waiters = 0;
        for (const Run &run : runs_)
            waiters += run.size();
        return waiters;
    }

    /** Call fn(var, waiters) for each variable with waiters, by id. */
    template <typename Fn>
    void
    forEachVar(Fn &&fn) const
    {
        for (std::size_t var = 0; var < runs_.size(); ++var) {
            if (runs_[var].size() != 0)
                fn(static_cast<SyncVarId>(var), runs_[var].size());
        }
    }

  private:
    /** One variable's waiters: keys[head..] sorted by (rank, seq). */
    struct Run
    {
        std::vector<SlotKey> keys;
        std::size_t head = 0;

        std::size_t size() const { return keys.size() - head; }
    };

    static bool
    bySeq(const SlotKey &a, const SlotKey &b)
    {
        return a.seq < b.seq;
    }

    /**
     * Drop the released keys before the head cursor once they are at
     * least half the run, so each key is moved O(1) times.
     */
    static void
    compact(Run &run)
    {
        if (run.head == run.keys.size()) {
            run.keys.clear();
            run.head = 0;
        } else if (2 * run.head >= run.keys.size()) {
            run.keys.erase(run.keys.begin(),
                           run.keys.begin() +
                               static_cast<std::ptrdiff_t>(run.head));
            run.head = 0;
        }
    }

    /** Call fn(slot) for each of woken[from..], in order. */
    template <typename Fn>
    void
    handOut(std::vector<SlotKey> &woken, std::size_t from, Fn &&fn)
    {
        for (std::size_t i = from; i < woken.size(); ++i)
            fn(woken[i].slot);
        woken.clear();
        // Keep the buffer's capacity for the next release; a nested
        // release from fn took (and may drop) a fresh one.
        scratch_.swap(woken);
    }

    std::vector<Run> runs_;
    std::vector<SlotKey> scratch_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace sim
} // namespace psync

#endif // PSYNC_SIM_WAIT_SET_HH
