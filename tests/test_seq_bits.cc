#include "tcp/seq_bits.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>

#include "sim/rng.h"

namespace greencc::tcp {
namespace {

// Uniform integer in [lo, hi].
std::int64_t pick(sim::Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

// The highest member of `ref` below `to`, or -1.
std::int64_t ref_prev(const std::set<std::int64_t>& ref, std::int64_t to) {
  auto it = ref.lower_bound(to);
  return it == ref.begin() ? -1 : *std::prev(it);
}

// The lowest member of `ref` in [from, to), or `to`.
std::int64_t ref_next(const std::set<std::int64_t>& ref, std::int64_t from,
                      std::int64_t to) {
  auto it = ref.lower_bound(from);
  return it == ref.end() || *it >= to ? to : *it;
}

TEST(SeqBits, EmptyAnswersNothing) {
  SeqBits bits;
  EXPECT_TRUE(bits.empty());
  EXPECT_FALSE(bits.test(0));
  EXPECT_EQ(bits.next(0, 100), 100);
  EXPECT_EQ(bits.prev(100), -1);
  bits.erase_below(1'000);
  EXPECT_EQ(bits.next(0, 5'000), 5'000);
  EXPECT_EQ(bits.prev(5'000), -1);
}

TEST(SeqBits, ScansCrossWordBoundaries) {
  SeqBits bits;
  for (const std::int64_t seq : {63, 64, 127, 128, 200, 1'000}) bits.set(seq);
  EXPECT_EQ(bits.size(), 6u);
  EXPECT_EQ(bits.next(0, 2'000), 63);
  EXPECT_EQ(bits.next(64, 2'000), 64);
  EXPECT_EQ(bits.next(65, 2'000), 127);
  EXPECT_EQ(bits.next(129, 1'000), 200);
  EXPECT_EQ(bits.next(201, 1'000), 1'000);  // `to` is exclusive
  EXPECT_EQ(bits.next(201, 999), 999);
  EXPECT_EQ(bits.prev(1'001), 1'000);
  EXPECT_EQ(bits.prev(1'000), 200);
  EXPECT_EQ(bits.prev(128), 127);
  EXPECT_EQ(bits.prev(64), 63);
  EXPECT_EQ(bits.prev(63), -1);

  bits.erase_below(127);  // floor inside a word: clears 63 and 64 only
  EXPECT_EQ(bits.size(), 4u);
  EXPECT_FALSE(bits.test(64));
  EXPECT_TRUE(bits.test(127));
  EXPECT_EQ(bits.prev(127), -1);
  EXPECT_EQ(bits.next(0, 2'000), 127);

  bits.erase_below(5'000);  // past every member: the bitmap drains
  EXPECT_TRUE(bits.empty());
  bits.set(5'003);  // a member far above the old words re-anchors cleanly
  EXPECT_EQ(bits.next(0, 10'000), 5'003);
  EXPECT_EQ(bits.prev(10'000), 5'003);
}

// Random set/reset/erase_below/test/next/prev against std::set, with a
// floor that rises through word boundaries (and sometimes jumps far ahead,
// draining the bitmap) the way snd_una does.
TEST(SeqBits, MatchesStdSetUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    SeqBits bits;
    std::set<std::int64_t> ref;
    std::int64_t floor = 0;
    for (int op = 0; op < 5'000; ++op) {
      const std::int64_t seq = floor + pick(rng, 0, pick(rng, 1, 400));
      switch (pick(rng, 0, 6)) {
        case 0:
        case 1:
          bits.set(seq);
          ref.insert(seq);
          break;
        case 2:
          bits.reset(seq);
          ref.erase(seq);
          break;
        case 3: {
          const std::int64_t to =
              floor + (rng.bernoulli(0.1) ? 3'000 : pick(rng, 0, 100));
          bits.erase_below(to);
          ref.erase(ref.begin(), ref.lower_bound(to));
          floor = std::max(floor, to);
          break;
        }
        case 4: {
          const std::int64_t to = seq + pick(rng, 0, 300);
          ASSERT_EQ(bits.next(seq - 70, to), ref_next(ref, seq - 70, to))
              << "seed " << seed << " op " << op;
          ASSERT_EQ(bits.next(seq, to), ref_next(ref, seq, to))
              << "seed " << seed << " op " << op;
          break;
        }
        case 5:
          ASSERT_EQ(bits.prev(seq), ref_prev(ref, seq))
              << "seed " << seed << " op " << op;
          ASSERT_EQ(bits.prev(seq + 1'000), ref_prev(ref, seq + 1'000))
              << "seed " << seed << " op " << op;
          break;
        default:
          ASSERT_EQ(bits.test(seq), ref.count(seq) == 1)
              << "seed " << seed << " op " << op;
          break;
      }
      ASSERT_EQ(bits.size(), ref.size()) << "seed " << seed << " op " << op;
    }
    // A full ascending and descending walk visits exactly the members.
    std::set<std::int64_t> walked;
    constexpr std::int64_t kAll = std::numeric_limits<std::int64_t>::max();
    for (std::int64_t s = bits.next(0, kAll); s < kAll; s = bits.next(s + 1, kAll)) {
      walked.insert(s);
    }
    EXPECT_EQ(walked, ref) << "seed " << seed;
    std::set<std::int64_t> walked_down;
    for (std::int64_t s = bits.prev(kAll); s >= 0; s = bits.prev(s)) {
      walked_down.insert(s);
    }
    EXPECT_EQ(walked_down, ref) << "seed " << seed;
  }
}

}  // namespace
}  // namespace greencc::tcp
