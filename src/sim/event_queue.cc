#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "check/check.h"

namespace greencc::sim {

namespace detail {

// Both sifts move a hole instead of swapping: each level costs one key
// copy, not three.
void KeyHeap::sift_up(std::size_t i) {
  const Key key = v_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!event_before(key, v_[parent])) break;
    v_[i] = v_[parent];
    i = parent;
  }
  v_[i] = key;
}

void KeyHeap::sift_down(std::size_t i) {
  const std::size_t n = v_.size();
  const Key key = v_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && event_before(v_[child + 1], v_[child])) ++child;
    if (!event_before(v_[child], key)) break;
    v_[i] = v_[child];
    i = child;
  }
  v_[i] = key;
}

}  // namespace detail

// --- EventQueue (slab bookkeeping shared by every queue kind) ---

EventId EventQueue::push(Event ev) {
  const auto tag = static_cast<std::uint32_t>(ev.seq);
  const std::uint32_t slot = slab_.acquire(std::move(ev.cb), tag);
  ++live_;  // first: a rebuild inside push_key sizes the ring by size()
  push_key(Key{ev.when, ev.seq, slot});
  return (EventId{tag} << 32) | slot;
}

EventQueue::Event EventQueue::pop_move() {
  GREENCC_DCHECK(live_ > 0) << "pop_move on an empty event queue";
  const Key key = pop_key();
  --live_;
  return Event{key.when, key.seq, slab_.take(key.slot)};
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto tag = static_cast<std::uint32_t>(id >> 32);
  const bool pending = slab_.is_live(slot, tag);
  GREENCC_DCHECK(pending)
      << "cancel of a handle that is not pending (slot " << slot << ", tag "
      << tag << "): its event was already popped or cancelled";
  if (!pending) return false;
  const Callback doomed = slab_.cancel(slot);  // destroyed on return
  --live_;
  if (slab_.tombstones() > std::max(live_, kTombstoneSlack)) purge();
  return true;
}

// --- BinaryHeapQueue ---

void BinaryHeapQueue::prune() {
  while (!heap_.empty() && reclaim_if_cancelled(heap_.top())) heap_.pop();
}

void BinaryHeapQueue::purge() {
  heap_.remove_if([this](const Key& key) { return reclaim_if_cancelled(key); });
}

EventQueue::Key BinaryHeapQueue::pop_key() {
  prune();
  const Key out = heap_.pop();
  if (!heap_.empty()) prefetch_callback(heap_.top());
  return out;
}

SimTime BinaryHeapQueue::next_when() {
  prune();
  GREENCC_DCHECK(!heap_.empty()) << "next_when on an empty event queue";
  return heap_.top().when;
}

// --- CalendarQueue ---

CalendarQueue::CalendarQueue()
    : buckets_(kMinBuckets),
      mask_(kMinBuckets - 1),
      width_ns_(std::int64_t{1} << kInitialWidthShift),
      width_shift_(kInitialWidthShift) {
  reset_horizon_end();
}

void CalendarQueue::push_key(const Key& key) {
  GREENCC_DCHECK(key.when.ns() >= 0)
      << "calendar queue requires non-negative times, got " << key.when.ns();
  const std::int64_t t = key.when.ns();
  if (t < cal_start_ns_ + width_ns_) {
    // Due within the cursor bucket's window (or behind a cursor that ran
    // ahead during run_until): joins the sorted ready run directly.
    insert_ready(key);
    // A window much wider than the schedule's spacing funnels every push
    // through this sorted insert — O(run length) each. Re-derive the
    // width once the run is long and spreads over more than one ns (a
    // same-instant burst cannot be split by any width; anything wider
    // can, because in-window spreads are always below the current width).
    if (ready_.size() - ready_pos_ > kMaxBucketLoad &&
        ready_.back().when.ns() - ready_[ready_pos_].when.ns() >= 1) {
      rebuild();
    }
    return;
  }
  if (t < horizon_end_ns_) {
    buckets_[static_cast<std::size_t>(t >> width_shift_) & mask_].push_back(
        key);
    ++wheel_count_;
    // Rebuild when occupancy passes ~2 events per bucket — unless the ring
    // is already at its size cap, where a rebuild would change nothing and
    // the trigger would otherwise fire on every subsequent push.
    if (wheel_count_ > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) {
      rebuild();
    }
    return;
  }
  if (t < overflow_min_ns_) overflow_min_ns_ = t;
  overflow_.push(key);
}

void CalendarQueue::insert_ready(const Key& key) {
  const auto begin = ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_);
  const auto it =
      std::lower_bound(begin, ready_.end(), key, detail::event_before);
  ready_.insert(it, key);
}

void CalendarQueue::load_bucket() {
  // Every event still in the cursor bucket lies inside its current window
  // (earlier laps were drained when the cursor last passed, later laps are
  // still beyond the horizon), so the whole bucket becomes the ready run.
  std::vector<Key>& bucket = buckets_[cursor_];
  wheel_count_ -= bucket.size();
  ready_pos_ = 0;
  if (!has_tombstones()) {
    // Common case (no tombstones outstanding anywhere): adopt the bucket's
    // storage wholesale — the old ready run holds only consumed keys, so
    // the swap trades allocations instead of copying keys one by one.
    ready_.swap(bucket);
    bucket.clear();
  } else {
    ready_.clear();
    for (const Key& key : bucket) {
      if (!reclaim_if_cancelled(key)) ready_.push_back(key);
    }
    bucket.clear();
  }
  // Steady-state occupancy is 1-2 events per bucket; handle those without
  // std::sort's call and dispatch overhead.
  if (ready_.size() <= 2) {
    if (ready_.size() == 2 && detail::event_before(ready_[1], ready_[0])) {
      std::swap(ready_[0], ready_[1]);
    }
    return;
  }
  std::sort(ready_.begin(), ready_.end(), detail::event_before);
  // A width left over from a sparser era concentrates a compressed live
  // set into a few heavy buckets; re-derive it while the evidence (one
  // overloaded, genuinely multi-ns bucket) is in hand. A bucket spanning
  // even 2 ns can be split by a narrower width (its span is always below
  // the current width); only a same-instant burst is unsplittable.
  if (ready_.size() > kMaxBucketLoad &&
      ready_.back().when.ns() - ready_.front().when.ns() >= 1) {
    rebuild();
  }
}

void CalendarQueue::migrate_overflow() {
  if (overflow_min_ns_ >= horizon_end_ns_) return;  // nothing due yet
  while (!overflow_.empty()) {
    if (reclaim_if_cancelled(overflow_.top())) {
      overflow_.pop();
      continue;
    }
    if (overflow_.top().when.ns() >= horizon_end_ns_) break;
    const Key key = overflow_.pop();
    const std::int64_t t = key.when.ns();
    if (t < cal_start_ns_ + width_ns_) {
      insert_ready(key);
    } else {
      buckets_[static_cast<std::size_t>(t >> width_shift_) & mask_].push_back(
          key);
      ++wheel_count_;
    }
  }
  sync_overflow_min();
}

bool CalendarQueue::ensure_ready() {
  std::size_t empty_steps = 0;
  for (;;) {
    // Skip tombstoned events at the front of the ready run.
    while (ready_pos_ < ready_.size() &&
           reclaim_if_cancelled(ready_[ready_pos_])) {
      ++ready_pos_;
    }
    if (ready_pos_ < ready_.size()) return true;

    if (wheel_count_ == 0) {
      // Ring empty: jump the cursor straight to the first overflow event
      // instead of stepping through (possibly millions of) empty buckets.
      ready_.clear();
      ready_pos_ = 0;
      while (!overflow_.empty() && reclaim_if_cancelled(overflow_.top())) {
        overflow_.pop();
      }
      if (overflow_.empty()) {
        overflow_min_ns_ = kNoOverflow;
        return false;  // no live events anywhere
      }
      overflow_min_ns_ = overflow_.top().when.ns();
      const std::int64_t t = overflow_min_ns_;
      cal_start_ns_ = (t >> width_shift_) << width_shift_;
      reset_horizon_end();
      cursor_ = static_cast<std::size_t>(t >> width_shift_) & mask_;
      // migrate_overflow() inserts in-window events into the ready run, so
      // the (empty) cursor bucket must be loaded first — load_bucket()
      // resets the run.
      load_bucket();
      migrate_overflow();
      continue;
    }

    // A stale (too narrow) width can leave the cursor crawling across a
    // long idle gap one empty bucket at a time; after enough fruitless
    // steps, rebuild — it re-derives the width and re-anchors the window
    // at the next live event, making the following iteration terminal.
    if (++empty_steps > kMaxEmptySteps) {
      rebuild();
      empty_steps = 0;
      continue;
    }

    // Advance the cursor one bucket; the horizon moves with it, so any
    // overflow events that just came inside migrate into the ring. Order
    // matters: load_bucket() resets the ready run, migrate_overflow()
    // appends to it.
    cal_start_ns_ += width_ns_;
    horizon_end_ns_ += width_ns_;
    cursor_ = (cursor_ + 1) & mask_;
    if (buckets_[cursor_].empty()) {
      ready_.clear();
      ready_pos_ = 0;
    } else {
      load_bucket();
    }
    migrate_overflow();
  }
}

EventQueue::Key CalendarQueue::pop_key() {
  const bool have = ensure_ready();
  GREENCC_DCHECK(have) << "pop_move on an empty event queue";
  (void)have;
  const Key out = ready_[ready_pos_];
  ++ready_pos_;
  if (ready_pos_ < ready_.size()) prefetch_callback(ready_[ready_pos_]);
  // Compact a long consumed prefix so the ready run cannot grow without
  // bound while events keep chaining inside one bucket window.
  if (ready_pos_ > 1024 && ready_pos_ * 2 > ready_.size()) {
    ready_.erase(ready_.begin(),
                 ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_));
    ready_pos_ = 0;
  }
  return out;
}

SimTime CalendarQueue::next_when() {
  const bool have = ensure_ready();
  GREENCC_DCHECK(have) << "next_when on an empty event queue";
  (void)have;
  return ready_[ready_pos_].when;
}

void CalendarQueue::purge() {
  const auto dead = [this](const Key& key) {
    return reclaim_if_cancelled(key);
  };
  std::size_t remaining = wheel_count_;
  for (auto& bucket : buckets_) {
    if (remaining == 0) break;
    if (bucket.empty()) continue;
    remaining -= bucket.size();
    const std::size_t before = bucket.size();
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(), dead),
                 bucket.end());
    wheel_count_ -= before - bucket.size();
  }
  ready_.erase(
      std::remove_if(
          ready_.begin() + static_cast<std::ptrdiff_t>(ready_pos_),
          ready_.end(), dead),
      ready_.end());
  overflow_.remove_if(dead);
  sync_overflow_min();
}

void CalendarQueue::rebuild() {
  // Gather the ring's live events plus the un-popped tail of the ready
  // run, dropping tombstones (this is where cancel-heavy workloads
  // physically reclaim their slots). The ready run must be folded in: the
  // rebuilt window can shrink, and a ready event beyond the new window
  // would otherwise order-invert against later pushes that land in
  // buckets. The overflow heap stays where it is — migrate_overflow()
  // pulls in whatever the new horizon covers at the end — so a rebuild
  // costs O(wheel), not O(everything pending), and the schedule's far
  // tail never gets re-sorted just because the near cluster changed
  // density.
  std::vector<Key> events;
  events.reserve(wheel_count_ + (ready_.size() - ready_pos_));
  const auto take = [&](const Key& key) {
    if (!reclaim_if_cancelled(key)) events.push_back(key);
  };
  std::size_t remaining = wheel_count_;
  for (auto& bucket : buckets_) {
    if (remaining == 0) break;
    if (bucket.empty()) continue;
    remaining -= bucket.size();
    for (const Key& key : bucket) take(key);
    bucket.clear();
  }
  for (std::size_t i = ready_pos_; i < ready_.size(); ++i) take(ready_[i]);
  ready_.clear();
  ready_pos_ = 0;
  std::sort(events.begin(), events.end(), detail::event_before);

  // Brown's rule, sampled at the head of the schedule: bucket width ~ 3x
  // the mean gap among the next events due, bucket count ~ the event
  // population, so occupancy stays near one and both insert and dequeue
  // stay O(1). Sampling the head (not the full span) keeps a dense
  // working set fast even when sparse far-future timers would stretch the
  // global mean gap by orders of magnitude; the far tail just stays in
  // the overflow heap, where it belongs.
  if (events.size() >= 2) {
    const std::size_t sample = std::min<std::size_t>(events.size(), 256);
    const std::int64_t span =
        events[sample - 1].when.ns() - events.front().when.ns();
    const std::int64_t mean_gap =
        span / static_cast<std::int64_t>(sample - 1);
    const std::int64_t want = std::max<std::int64_t>(1, mean_gap);
    width_shift_ = 0;
    while ((std::int64_t{1} << width_shift_) < want && width_shift_ < 62) {
      ++width_shift_;
    }
    width_ns_ = std::int64_t{1} << width_shift_;
  }
  // Size the ring for the whole pending population (size() counts the
  // overflow heap too — O(1) to know), not just the gathered near set:
  // overflow events stream into the ring as the cursor advances, and an
  // undersized ring would shunt them right back out. When the target
  // matches the current size the array is left alone — every bucket is
  // already empty after the gather, and keeping them preserves their
  // capacity (a full reassign frees and reallocates thousands of vectors).
  std::size_t target = kMinBuckets;
  while (target < size() && target < kMaxBuckets) target *= 2;
  if (target != buckets_.size()) {
    buckets_.assign(target, {});
    mask_ = target - 1;
  }
  wheel_count_ = 0;

  // Anchor the cursor window at the earliest pending event so everything
  // redistributes at or ahead of it. (Pushes behind the window — possible
  // when the earliest pending event is ahead of the simulated clock — go
  // straight to the ready run, so a forward-anchored window stays safe.)
  // With nothing gathered the earliest pending event is the overflow top:
  // anchor there so migrate_overflow() can pull the head straight in.
  if (!events.empty()) {
    cal_start_ns_ = (events.front().when.ns() >> width_shift_) << width_shift_;
  } else if (!overflow_.empty()) {
    cal_start_ns_ =
        (overflow_.top().when.ns() >> width_shift_) << width_shift_;
  } else {
    cal_start_ns_ = (cal_start_ns_ >> width_shift_) << width_shift_;
  }
  cursor_ = static_cast<std::size_t>(cal_start_ns_ >> width_shift_) & mask_;
  reset_horizon_end();

  for (const Key& key : events) {
    const std::int64_t t = key.when.ns();
    if (t < cal_start_ns_ + width_ns_) {
      insert_ready(key);  // due within the cursor window
    } else if (t < horizon_end_ns_) {
      buckets_[static_cast<std::size_t>(t >> width_shift_) & mask_].push_back(
          key);
      ++wheel_count_;
    } else {
      if (t < overflow_min_ns_) overflow_min_ns_ = t;
      overflow_.push(key);
    }
  }
  // A wider ring may now cover events that waited in the overflow heap.
  migrate_overflow();
}

}  // namespace greencc::sim
