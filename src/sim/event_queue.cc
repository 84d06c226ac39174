#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace psync {
namespace sim {

const char *
eventCoreKindName(EventCoreKind kind)
{
    switch (kind) {
      case EventCoreKind::calendar:
        return "calendar";
      case EventCoreKind::heap:
        return "heap";
    }
    return "unknown";
}

std::size_t
EventQueue::occupiedBuckets() const
{
    std::size_t buckets = 0;
    for (std::uint64_t word : occupied_) {
        while (word) {
            word &= word - 1;
            ++buckets;
        }
    }
    return buckets;
}

void
EventQueue::schedule(Tick when, Handler handler)
{
    if (when < curTick_)
        panic("scheduling event in the past: %llu < %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    if (handler.onHeap())
        ++heapFallbacks_;
    SlotKey key{when, nextSeq_++, handlers_.alloc(std::move(handler))};
    if (core_ == EventCoreKind::heap || when - curTick_ >= ringSize)
        far_.push(key);
    else
        pushRing(key);
}

void
EventQueue::arm(Stepper &stepper, Tick when)
{
    if (stepper_)
        panic("arming a step while another is armed");
    if (when < curTick_)
        panic("arming a step in the past: %llu < %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    stepper_ = &stepper;
    stepWhen_ = when;
    stepSeq_ = nextSeq_++;
}

void
EventQueue::runStep()
{
    Stepper *stepper = stepper_;
    stepper_ = nullptr;
    curTick_ = stepWhen_;
    stepWhen_ = maxTick;
    stepper->step();
}

void
EventQueue::pushRing(SlotKey key)
{
    std::uint64_t idx = key.rank & ringMask;
    auto &bucket = ring_[idx];
    // A migrated far event was scheduled while its tick was outside
    // the window, so its seq precedes any event the window already
    // holds for the same tick; file it in seq order.
    auto pos = bucket.end();
    if (!bucket.empty() && bucket.back().seq > key.seq) {
        pos = std::upper_bound(bucket.begin(), bucket.end(), key.seq,
                               [](std::uint64_t seq, const SlotKey &k) {
            return seq < k.seq;
        });
    }
    bucket.insert(pos, key);
    occupied_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    ++ringCount_;
}

void
EventQueue::migrateFar()
{
    while (!far_.empty() && far_.top().rank - curTick_ < ringSize)
        pushRing(far_.pop());
}

void
EventQueue::fire(SlotKey key)
{
    Handler handler = std::move(handlers_[key.slot]);
    handlers_.free(key.slot);
    curTick_ = key.rank;
    ++executed_;
    handler();
}

void
EventQueue::drainBucket(Tick tick)
{
    std::uint64_t idx = tick & ringMask;
    auto &bucket = ring_[idx];
    // Handlers may append same-tick events to this bucket while it
    // drains; indexed iteration with a size recheck picks them up,
    // and they arrive in seq order by construction. A step armed for
    // this tick runs between the events its seq falls between.
    for (std::size_t i = 0; i < bucket.size(); ++i) {
        while (stepBefore(bucket[i]))
            runStep();
        fire(bucket[i]);
    }
    ringCount_ -= bucket.size();
    bucket.clear();
    occupied_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
}

Tick
EventQueue::nextRingTick() const
{
    if (ringCount_ == 0)
        return maxTick;
    // Scan the occupancy bitmap circularly from curTick_'s bucket;
    // the window invariant (every ring event is within ringSize of
    // curTick_) makes the first occupied bucket the earliest tick.
    std::uint64_t base = curTick_ & ringMask;
    for (std::uint64_t step = 0; step < occupied_.size() + 1;
         ++step) {
        std::uint64_t word_idx =
            ((base / 64) + step) % occupied_.size();
        std::uint64_t word = occupied_[word_idx];
        if (step == 0) {
            // Mask off buckets before base in the first word.
            word &= ~std::uint64_t{0} << (base % 64);
        } else if (step == occupied_.size()) {
            // Wrapped back to the first word: only buckets before
            // base remain.
            word = occupied_[word_idx] &
                   ~(~std::uint64_t{0} << (base % 64));
        }
        if (word == 0)
            continue;
        std::uint64_t bucket_idx =
            word_idx * 64 + static_cast<unsigned>(std::countr_zero(word));
        return ring_[bucket_idx].front().rank;
    }
    panic("ring count %zu but no occupied bucket", ringCount_);
    return maxTick;
}

bool
EventQueue::runCalendar(Tick limit)
{
    for (;;) {
        Tick ring_next = nextRingTick();
        Tick far_next = far_.empty() ? maxTick : far_.top().rank;
        Tick next = std::min(ring_next, far_next);
        if (stepWhen_ < next) {
            // Steps due before every pending event run back to back
            // until one schedules an event, which may come first.
            std::size_t pending = ringCount_ + far_.size();
            do {
                if (stepWhen_ > limit) {
                    curTick_ = limit;
                    return false;
                }
                runStep();
            } while (stepWhen_ < next &&
                     ringCount_ + far_.size() == pending);
            continue;
        }
        if (next == maxTick)
            return true;
        if (next > limit) {
            curTick_ = limit;
            return false;
        }
        curTick_ = next;
        if (far_next != maxTick)
            migrateFar();
        drainBucket(next);
    }
}

bool
EventQueue::runHeap(Tick limit)
{
    for (;;) {
        bool step = stepper_ && (far_.empty() || stepBefore(far_.top()));
        if (!step && far_.empty())
            return true;
        Tick next = step ? stepWhen_ : far_.top().rank;
        if (next > limit) {
            curTick_ = limit;
            return false;
        }
        if (step)
            runStep();
        else
            fire(far_.pop());
    }
}

bool
EventQueue::run(Tick limit)
{
    return core_ == EventCoreKind::calendar ? runCalendar(limit)
                                            : runHeap(limit);
}

void
EventQueue::clear()
{
    for (auto &bucket : ring_)
        bucket.clear();
    occupied_.fill(0);
    ringCount_ = 0;
    far_.clear();
    handlers_.clear();
    stepper_ = nullptr;
    stepWhen_ = maxTick;
}

} // namespace sim
} // namespace psync
