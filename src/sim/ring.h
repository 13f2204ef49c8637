#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.h"

namespace greencc::sim {

/// FIFO ring buffer over a power-of-two `std::vector`.
///
/// Backs the simulator's per-packet FIFOs: switch queues, a sender's release
/// and transmit-order queues, the SACK scoreboard via tcp::SeqWindow, and
/// the scoreboard's index bitmaps via tcp::SeqBits.
/// Not `std::deque`: libstdc++ gives each element of ~512 bytes or more its
/// own heap node, so a queued packet would cost an allocation on push and
/// a free on pop, and even an empty deque holds a map and a node. This ring
/// stores elements contiguously: push and pop are O(1) with no allocation
/// until the ring must grow (x2, elements moved in FIFO order), and
/// indexing from the front is one mask.
///
/// The storage is freed when the ring drains. A fleet run holds several
/// rings per flow in every sender (80k flows, most of them idle or
/// finished at any instant); keeping each ring's high-water buffer instead
/// raised the greenbench fleet workload's peak RSS from 292 to 375 MB,
/// while a drained ring costs one allocation when it next fills. Per-flow
/// queues that drain and refill at packet rate do not fit that trade:
/// net::DrrPort keeps its flows' packets in one port-wide node pool
/// instead of a ring per flow.
template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  /// Allocated slots (0 while empty: a drained ring holds no storage).
  std::size_t capacity() const { return data_.size(); }

  /// Element `i` counted from the front; `i` must be < size().
  T& operator[](std::size_t i) {
    GREENCC_DCHECK(i < count_) << "ring index " << i << " >= size " << count_;
    return data_[(head_ + i) & (data_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    GREENCC_DCHECK(i < count_) << "ring index " << i << " >= size " << count_;
    return data_[(head_ + i) & (data_.size() - 1)];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[count_ - 1]; }
  const T& back() const { return (*this)[count_ - 1]; }

  /// Append `value` at the back; returns the stored element.
  T& push_back(T value) {
    if (count_ == data_.size()) grow();
    T& slot = data_[(head_ + count_) & (data_.size() - 1)];
    slot = std::move(value);
    ++count_;
    return slot;
  }

  /// Remove the front element; the ring must be non-empty.
  void pop_front() {
    GREENCC_DCHECK(count_ > 0) << "pop_front on an empty ring";
    if (--count_ == 0) {
      clear();
      return;
    }
    // Release anything the element owns; plain data is simply overwritten
    // by a later push.
    if constexpr (!std::is_trivially_destructible_v<T>) data_[head_] = T{};
    head_ = (head_ + 1) & (data_.size() - 1);
  }

  /// Drop every element and free the storage.
  void clear() {
    std::vector<T>().swap(data_);
    head_ = 0;
    count_ = 0;
  }

 private:
  /// First allocation: about 256 bytes of elements, at least one. Most
  /// per-flow rings hold a few entries; 512- and 1024-byte first
  /// allocations raised fleet peak RSS to 310 and 368 MB (from 292).
  static constexpr std::size_t kMinCapacity =
      std::bit_floor(std::max<std::size_t>(1, 256 / sizeof(T)));

  void grow() {
    const std::size_t cap = data_.empty() ? kMinCapacity : data_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(data_[(head_ + i) & (data_.size() - 1)]);
    }
    data_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> data_;   ///< power-of-two capacity, or empty
  std::size_t head_ = 0;  ///< slot of the front element
  std::size_t count_ = 0;
};

}  // namespace greencc::sim
