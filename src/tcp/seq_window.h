#pragma once

#include <cstdint>

#include "check/check.h"
#include "sim/ring.h"

namespace greencc::tcp {

/// Dense per-segment window state: a seq-indexed view over a sim::Ring
/// holding the contiguous sequence range [begin_seq, end_seq).
///
/// The SACK scoreboard's keys are exactly the un-cum-acked segments — new
/// sends append at snd_nxt, cumulative ACKs pop a prefix, everything in
/// between stays put — so a node-per-segment `std::map` pays an allocation,
/// red-black rebalance, and pointer chase per segment for what is really a
/// sliding array. The ring gives O(1) append/lookup/pop-front with one
/// allocation per capacity doubling, and per-flow memory that tracks the
/// window high-water mark (and is released once everything is acked)
/// instead of the allocator's node heap.
template <typename T>
class SeqWindow {
 public:
  bool empty() const { return ring_.empty(); }
  std::size_t size() const { return ring_.size(); }

  /// Lowest stored sequence number (== snd_una for the scoreboard).
  std::int64_t begin_seq() const { return base_; }
  /// One past the highest stored sequence number (== snd_nxt).
  std::int64_t end_seq() const {
    return base_ + static_cast<std::int64_t>(ring_.size());
  }
  bool contains(std::int64_t seq) const {
    return seq >= begin_seq() && seq < end_seq();
  }

  /// Pointer to the entry for `seq`, or nullptr when it is outside the
  /// window (already cum-acked or never sent).
  T* find(std::int64_t seq) {
    return contains(seq) ? &ring_[offset(seq)] : nullptr;
  }
  const T* find(std::int64_t seq) const {
    return contains(seq) ? &ring_[offset(seq)] : nullptr;
  }

  /// Entry for `seq`; must be inside the window.
  T& at(std::int64_t seq) {
    GREENCC_DCHECK(contains(seq))
        << "seq " << seq << " outside window [" << begin_seq() << ", "
        << end_seq() << ")";
    return ring_[offset(seq)];
  }
  const T& at(std::int64_t seq) const {
    GREENCC_DCHECK(contains(seq))
        << "seq " << seq << " outside window [" << begin_seq() << ", "
        << end_seq() << ")";
    return ring_[offset(seq)];
  }

  /// Entry for begin_seq(); the window must be non-empty.
  T& front() { return at(begin_seq()); }

  /// Append a fresh (value-initialized) entry for `seq`, which must extend
  /// the window by exactly one: the next sequence number, or any value when
  /// the window is empty (it becomes the new base).
  T& append(std::int64_t seq) {
    if (empty()) base_ = seq;
    GREENCC_DCHECK(seq == end_seq())
        << "append of seq " << seq << " would leave a gap (window end is "
        << end_seq() << ")";
    return ring_.push_back(T{});
  }

  /// Drop the entry at begin_seq(); the window must be non-empty.
  void pop_front() {
    GREENCC_DCHECK(!empty()) << "pop_front on an empty window";
    ring_.pop_front();
    ++base_;
  }

 private:
  std::size_t offset(std::int64_t seq) const {
    return static_cast<std::size_t>(seq - base_);
  }

  sim::Ring<T> ring_;
  std::int64_t base_ = 0;
};

}  // namespace greencc::tcp
