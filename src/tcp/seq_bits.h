#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "check/check.h"
#include "sim/ring.h"

namespace greencc::tcp {

/// Set of sequence numbers at or above a moving floor, stored as a bitmap
/// over 64-bit words in a sim::Ring.
///
/// The sender's scoreboard indexes (unsacked segments, segments awaiting
/// retransmission) only ever hold members of [snd_una, snd_nxt), and the
/// floor only rises as cumulative ACKs arrive. A `std::set` spent one node
/// allocation per member for that. Here the ring's front word holds the
/// floor's word; `erase_below` pops whole words as the floor passes them
/// (the ring frees its storage once it drains), and `set` appends zero
/// words up to the member's word. Scans step a word at a time, so walking a
/// SACK block that covers thousands of already-sacked segments costs
/// O(block / 64 + members found).
class SeqBits {
 public:
  /// Number of members.
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool test(std::int64_t seq) const {
    const std::int64_t w = word_of(seq);
    if (w < 0 || w >= stored_words()) return false;
    return (words_[static_cast<std::size_t>(w)] & bit(seq)) != 0;
  }

  /// Add `seq`, which must not be below the floor.
  void set(std::int64_t seq) {
    const std::int64_t w = word_of(seq);
    GREENCC_DCHECK(w >= 0) << "SeqBits::set(" << seq << ") below the floor word "
                           << first_word_;
    while (stored_words() <= w) words_.push_back(0);
    std::uint64_t& word = words_[static_cast<std::size_t>(w)];
    if ((word & bit(seq)) == 0) {
      word |= bit(seq);
      ++count_;
    }
  }

  /// Remove `seq` (a no-op when it is not a member).
  void reset(std::int64_t seq) {
    const std::int64_t w = word_of(seq);
    if (w < 0 || w >= stored_words()) return;
    std::uint64_t& word = words_[static_cast<std::size_t>(w)];
    if ((word & bit(seq)) != 0) {
      word &= ~bit(seq);
      --count_;
    }
  }

  /// Lowest member in [from, to), or `to` when there is none.
  std::int64_t next(std::int64_t from, std::int64_t to) const {
    from = std::max(from, first_word_ * 64);
    if (from >= to) return to;
    const std::int64_t last = std::min(word_of(to - 1), stored_words() - 1);
    std::int64_t w = word_of(from);
    if (w > last) return to;
    // Bits of the first word below `from` are masked off.
    std::uint64_t word =
        words_[static_cast<std::size_t>(w)] & (~std::uint64_t{0} << (from & 63));
    while (word == 0) {
      if (++w > last) return to;
      word = words_[static_cast<std::size_t>(w)];
    }
    const std::int64_t seq = (first_word_ + w) * 64 + std::countr_zero(word);
    return seq < to ? seq : to;
  }

  /// Highest member below `to`, or -1 when there is none.
  std::int64_t prev(std::int64_t to) const {
    if (to <= first_word_ * 64 || stored_words() == 0) return -1;
    std::int64_t w = word_of(to - 1);
    std::uint64_t word;
    if (w >= stored_words()) {
      w = stored_words() - 1;
      word = words_[static_cast<std::size_t>(w)];
    } else {
      // Bits of the last word at or above `to` are masked off.
      word = words_[static_cast<std::size_t>(w)] &
             (~std::uint64_t{0} >> (63 - ((to - 1) & 63)));
    }
    while (word == 0) {
      if (--w < 0) return -1;
      word = words_[static_cast<std::size_t>(w)];
    }
    return (first_word_ + w) * 64 + 63 - std::countl_zero(word);
  }

  /// Remove every member below `seq` and raise the floor to `seq`. A lower
  /// `seq` than the current floor is a no-op.
  void erase_below(std::int64_t seq) {
    const std::int64_t target = seq >> 6;
    while (first_word_ < target) {
      if (!words_.empty()) {
        count_ -= static_cast<std::size_t>(std::popcount(words_.front()));
        words_.pop_front();
      }
      ++first_word_;
      if (words_.empty()) first_word_ = target;
    }
    if (!words_.empty() && word_of(seq) == 0) {
      std::uint64_t& word = words_.front();
      const std::uint64_t below = word & ~(~std::uint64_t{0} << (seq & 63));
      count_ -= static_cast<std::size_t>(std::popcount(below));
      word &= ~below;
    }
  }

 private:
  static std::uint64_t bit(std::int64_t seq) {
    return std::uint64_t{1} << (seq & 63);
  }
  /// Word of `seq` relative to the front of the ring (negative when below).
  std::int64_t word_of(std::int64_t seq) const {
    return (seq >> 6) - first_word_;
  }
  std::int64_t stored_words() const {
    return static_cast<std::int64_t>(words_.size());
  }

  sim::Ring<std::uint64_t> words_;
  std::int64_t first_word_ = 0;  ///< absolute word index (seq / 64) of words_[0]
  std::size_t count_ = 0;
};

}  // namespace greencc::tcp
