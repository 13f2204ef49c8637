#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "sim/time.h"

namespace greencc::sim {

/// Handle of a scheduled event, returned by EventQueue::push and
/// Simulator::schedule/schedule_at. The low 32 bits name the event's slot
/// in the queue's callback slab, the high 32 bits are a check tag (the low
/// 32 bits of the event's seq). A slot is reused once its event has been
/// popped, or once its cancelled key has surfaced, so a handle names its
/// event only while that event is pending; the tag lets cancel() reject a
/// stale handle whose slot now holds a later event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = ~EventId{0};

namespace detail {

/// The free-listed store of event callbacks behind every EventQueue: a
/// dense callback array, plus a *separate* dense one-byte state array so
/// the per-surface "was this cancelled?" test touches one byte of a small
/// array instead of a 32-byte callback slot. Slots are recycled LIFO, so
/// the slab holds at most as many slots as events (live or cancelled-but-
/// not-yet-surfaced) ever coexisted in the queue.
class CallbackSlab {
 public:
  using Callback = std::function<void()>;

  /// Store `cb`; returns its slot.
  std::uint32_t acquire(Callback&& cb, std::uint32_t tag) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      cbs_[slot] = std::move(cb);
      state_[slot] = kLive;
      tags_[slot] = tag;
    } else {
      slot = static_cast<std::uint32_t>(cbs_.size());
      cbs_.push_back(std::move(cb));
      state_.push_back(kLive);
      tags_.push_back(tag);
    }
    return slot;
  }

  /// Move a live slot's callback out and free the slot.
  Callback take(std::uint32_t slot) {
    Callback cb = std::move(cbs_[slot]);
    state_[slot] = kFree;
    free_.push_back(slot);
    return cb;
  }

  /// True iff `slot` holds a pending (live) event whose tag is `tag`.
  bool is_live(std::uint32_t slot, std::uint32_t tag) const {
    return slot < state_.size() && state_[slot] == kLive &&
           tags_[slot] == tag;
  }

  /// Tombstone a live slot. Its callback is handed back so the caller
  /// destroys it once the queue's bookkeeping is consistent again (the
  /// callback's captures may themselves cancel or schedule events).
  [[nodiscard]] Callback cancel(std::uint32_t slot) {
    state_[slot] = kCancelled;
    ++tombstones_;
    return std::move(cbs_[slot]);
  }

  /// Surfacing test for a key: one byte, and no load at all while no
  /// tombstones are outstanding.
  bool is_cancelled(std::uint32_t slot) const {
    return tombstones_ != 0 && state_[slot] == kCancelled;
  }

  /// Free a tombstoned slot whose key has surfaced.
  void reclaim(std::uint32_t slot) {
    state_[slot] = kFree;
    --tombstones_;
    free_.push_back(slot);
  }

  /// Start loading a slot's callback into cache ahead of its take().
  void prefetch(std::uint32_t slot) const { __builtin_prefetch(&cbs_[slot]); }

  std::size_t tombstones() const { return tombstones_; }
  std::size_t capacity() const { return cbs_.size(); }

 private:
  static constexpr std::uint8_t kFree = 0;
  static constexpr std::uint8_t kLive = 1;
  static constexpr std::uint8_t kCancelled = 2;

  std::vector<Callback> cbs_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> tags_;
  std::vector<std::uint32_t> free_;
  std::size_t tombstones_ = 0;
};

}  // namespace detail

/// Priority queue of simulator events, totally ordered by (when, seq):
/// earliest deadline first, FIFO among events scheduled for the same
/// instant. Both implementations honour that exact order, which is what
/// makes them interchangeable bit-for-bit (the cross-queue determinism
/// suite holds them to it).
///
/// Storage: callbacks live in one CallbackSlab owned by this base class;
/// the concrete queues order only 24-byte trivially-copyable Keys
/// {when, seq, slot}. Cancellation is O(1): cancel(handle) marks the slot
/// in the slab's flag array and destroys the callback, and the event stops
/// counting in size() at once. The slot itself is reclaimed when its key
/// surfaces — the point the queue would have popped it, or a bucket load,
/// overflow migration, rebuild or prune that walks past it — so no key
/// ever refers to a reused slot. Should tombstones come to outnumber the
/// live events (and kTombstoneSlack), the queue purges them in one pass,
/// which keeps slab and queue memory O(pending) under any arm/cancel storm.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  struct Event {
    SimTime when;
    EventId seq = 0;  ///< tie-breaker: FIFO among same-time events
    Callback cb;
  };

  /// What the concrete queues order: the event's position in the total
  /// order plus the slab slot holding its callback.
  struct Key {
    SimTime when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) == 24);

  /// A purge runs once tombstones outnumber both the live events and this
  /// floor, so it stays amortised O(1) per cancel even for a near-empty
  /// queue, and slab slots never exceed live + max(live, slack).
  static constexpr std::size_t kTombstoneSlack = 64;

  virtual ~EventQueue() = default;

  /// Insert an event and return its handle. `ev.seq` must be strictly
  /// greater than every seq pushed before (the simulator's monotone
  /// counter guarantees this).
  EventId push(Event ev);

  /// Remove and return the minimum live event by (when, seq); its callback
  /// moves out of the slab to the caller. Requires !empty().
  Event pop_move();

  /// Deadline of the next live event. Requires !empty(). (Non-const: the
  /// queue may prune tombstones while looking.)
  virtual SimTime next_when() = 0;

  /// Cancel a pending event: its callback is destroyed without running and
  /// it stops counting in size(). Returns true for a pending handle. A
  /// stale handle — already popped, already cancelled, or naming a slot
  /// since reused — fails a GREENCC_DCHECK and is otherwise a no-op that
  /// returns false, so it can never corrupt size().
  bool cancel(EventId id);

  /// Number of live (non-cancelled, not yet popped) events.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Slots the callback slab has allocated: bounded by the peak number of
  /// coexisting live and not-yet-reclaimed cancelled events.
  std::size_t slot_capacity() const { return slab_.capacity(); }

  virtual const char* name() const = 0;

 protected:
  /// Order a new key.
  virtual void push_key(const Key& key) = 0;
  /// Remove and return the minimum live key. Requires !empty().
  virtual Key pop_key() = 0;
  /// Drop every tombstoned key (reclaiming its slot).
  virtual void purge() = 0;

  /// Surfacing test for `key`: true (and the slot reclaimed) if its event
  /// was cancelled, false for a live key.
  bool reclaim_if_cancelled(const Key& key) {
    if (!slab_.is_cancelled(key.slot)) return false;
    slab_.reclaim(key.slot);
    return true;
  }
  bool has_tombstones() const { return slab_.tombstones() != 0; }
  /// Hint that `key` pops next: its slab slot sits at a random place in a
  /// pending-sized array, so fetching it early hides a cache miss.
  void prefetch_callback(const Key& key) const { slab_.prefetch(key.slot); }

 private:
  detail::CallbackSlab slab_;
  std::size_t live_ = 0;
};

namespace detail {

/// Ascending (when, seq) — the queue's total order, for keys and events
/// alike. A struct rather than a free function so sorts receive a
/// stateless functor the optimizer inlines (passing a function pointer
/// keeps every comparison an indirect call — measurably the hold model's
/// single largest cost).
struct EventBefore {
  template <class A, class B>
  bool operator()(const A& a, const B& b) const {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
};
inline constexpr EventBefore event_before{};

/// Binary min-heap of keys over a vector, ordered by event_before.
class KeyHeap {
 public:
  using Key = EventQueue::Key;

  void push(const Key& key) {
    v_.push_back(key);
    sift_up(v_.size() - 1);
  }
  /// Requires !empty().
  Key pop() {
    const Key out = v_.front();
    v_.front() = v_.back();
    v_.pop_back();
    if (!v_.empty()) sift_down(0);
    return out;
  }
  const Key& top() const { return v_.front(); }
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  /// Drop every key matching `dead`, then restore the heap in O(n).
  template <class Pred>
  void remove_if(Pred dead) {
    std::size_t out = 0;
    for (const Key& key : v_) {
      if (!dead(key)) v_[out++] = key;
    }
    v_.resize(out);
    for (std::size_t i = v_.size() / 2; i-- > 0;) sift_down(i);
  }

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  std::vector<Key> v_;
};

}  // namespace detail

/// The pre-calendar event core: one O(log n) heap op per event. Kept as the
/// reference implementation for the cross-queue determinism suite and as
/// the baseline ablation_simcore measures the calendar queue against.
class BinaryHeapQueue final : public EventQueue {
 public:
  SimTime next_when() override;
  const char* name() const override { return "binary-heap"; }

 private:
  void push_key(const Key& key) override { heap_.push(key); }
  Key pop_key() override;
  void purge() override;
  void prune();  ///< pop tombstoned keys off the root

  detail::KeyHeap heap_;
};

/// Calendar queue (Brown 1988) with an overflow heap for far-future events
/// — the event core sized for million-flow sweeps.
///
/// Simulated time is monotone and packet-event horizons are short (a
/// serialization plus a propagation delay), the textbook conditions for a
/// calendar queue: a power-of-two ring of `nbuckets` buckets, each
/// `width` ns wide, covers the near future; an event lands in bucket
/// (when / width) mod nbuckets in O(1). Dequeue keeps a cursor bucket
/// whose due events are sorted once into a ready run and then popped off
/// the front, preserving the exact (when, seq) order of the binary heap.
/// Events beyond the ring's horizon (long RTO and idle timers) wait in a
/// small overflow heap and migrate into the ring as the cursor advances.
///
/// The ring resizes itself: when occupancy exceeds ~2 events per bucket it
/// doubles the bucket count and re-derives the bucket width from the
/// observed event spacing (3x the mean gap, Brown's rule), so both the
/// 2-flow dumbbell and the 1M-flow fleet see ~O(1) per event.
class CalendarQueue final : public EventQueue {
 public:
  CalendarQueue();

  SimTime next_when() override;
  const char* name() const override { return "calendar"; }

  // Introspection for tests / the resize policy's own asserts.
  std::size_t bucket_count() const { return buckets_.size(); }
  std::int64_t bucket_width_ns() const { return width_ns_; }
  std::size_t overflow_size() const { return overflow_.size(); }

 private:
  static constexpr std::size_t kMinBuckets = 256;
  /// Ring growth cap: 2^18 buckets keeps the (empty-bucket) footprint a
  /// few MB; beyond it occupancy grows past one event per bucket, which
  /// only flattens the constant, not the O(1).
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 18;
  static constexpr int kInitialWidthShift = 10;  // 1024 ns buckets
  /// Empty cursor advances tolerated per dequeue before a rebuild
  /// re-anchors the window at the next live event (guards against a
  /// stale tiny width making the cursor crawl across a long idle gap).
  static constexpr std::size_t kMaxEmptySteps = 1024;
  /// Cursor-bucket population that triggers a width re-derivation (guards
  /// against a stale wide width concentrating the live set in a few
  /// buckets, where every in-window push pays an O(bucket) sorted
  /// insert). Only fires when the bucket's events span more than one ns —
  /// a same-instant burst cannot be split by any width.
  static constexpr std::size_t kMaxBucketLoad = 64;

  void push_key(const Key& key) override;
  Key pop_key() override;
  void purge() override;

  /// End of the ring's coverage, kept incrementally (cursor advances add
  /// one width; rebuilds recompute) so the hot paths compare against a
  /// member instead of recomputing size * width.
  std::int64_t horizon_end_ns() const { return horizon_end_ns_; }
  void reset_horizon_end() {
    horizon_end_ns_ = cal_start_ns_ +
                      static_cast<std::int64_t>(buckets_.size()) * width_ns_;
  }
  /// Make ready_[ready_pos_] the global minimum live key, advancing the
  /// cursor / migrating overflow as needed. Returns false iff no live
  /// events remain.
  bool ensure_ready();
  void insert_ready(const Key& key);
  void load_bucket();
  /// Double the ring and re-derive the width from observed event spacing.
  void rebuild();
  void migrate_overflow();
  void sync_overflow_min() {
    overflow_min_ns_ =
        overflow_.empty() ? kNoOverflow : overflow_.top().when.ns();
  }

  std::vector<std::vector<Key>> buckets_;
  std::size_t mask_;               ///< buckets_.size() - 1 (power of two)
  std::int64_t width_ns_;          ///< always 1 << width_shift_
  /// Bucket widths are powers of two so the per-push bucket index is a
  /// shift, not a 64-bit division (which alone costs a third of the
  /// hold-model budget at fleet densities).
  int width_shift_;
  std::int64_t cal_start_ns_ = 0;  ///< cursor bucket covers
                                   ///< [cal_start, cal_start + width)
  std::int64_t horizon_end_ns_;    ///< cal_start + nbuckets * width
  std::size_t cursor_ = 0;
  std::size_t wheel_count_ = 0;    ///< keys stored in buckets_

  std::vector<Key> ready_;         ///< sorted due run; front at ready_pos_
  std::size_t ready_pos_ = 0;

  detail::KeyHeap overflow_;       ///< keys at/beyond the horizon
  /// Deadline of the overflow root (INT64_MAX when empty), mirrored here
  /// so the once-per-cursor-advance "anything due to migrate?" test reads
  /// a member instead of the heap. May be stale-low for a tombstoned root
  /// — conservative: the extra migrate call just prunes it.
  std::int64_t overflow_min_ns_ = kNoOverflow;
  static constexpr std::int64_t kNoOverflow =
      std::numeric_limits<std::int64_t>::max();
};

/// Which event core a Simulator uses. The calendar queue is the default;
/// the binary heap remains selectable (GREENCC_EVENT_QUEUE=heap or an
/// explicit constructor argument) so the determinism suite can hold the
/// two to byte-identical results.
enum class EventQueueKind {
  kCalendar,
  kBinaryHeap,
};

}  // namespace greencc::sim
