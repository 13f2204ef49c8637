#include "sim/ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>

#include "sim/rng.h"

namespace greencc::sim {
namespace {

TEST(Ring, StartsEmptyWithoutStorage) {
  Ring<int> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.capacity(), 0u);
}

TEST(Ring, FifoOrder) {
  Ring<int> r;
  for (int i = 0; i < 5; ++i) r.push_back(i);
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(r.back(), 4);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(r[static_cast<std::size_t>(i)], i);
  }
  r.pop_front();
  EXPECT_EQ(r.front(), 1);
  EXPECT_EQ(r.size(), 4u);
}

TEST(Ring, GrowthWhileWrappedKeepsOrder) {
  Ring<std::int64_t> r;
  std::int64_t next = 0;
  r.push_back(next++);
  const std::size_t cap = r.capacity();
  ASSERT_GE(cap, 4u);
  // Slide a half-full window forward (never draining, which would free the
  // buffer) so the head sits mid-buffer, then fill up: the live range now
  // wraps past the end of the storage when the ring has to grow.
  while (r.size() < cap / 2) r.push_back(next++);
  for (std::size_t i = 0; i < cap / 2 + 1; ++i) {
    r.pop_front();
    r.push_back(next++);
  }
  const std::int64_t first = r.front();
  while (r.size() < cap) r.push_back(next++);
  EXPECT_EQ(r.capacity(), cap);
  r.push_back(next++);  // full and wrapped: grows x2
  EXPECT_EQ(r.capacity(), 2 * cap);
  ASSERT_EQ(r.size(), cap + 1);
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(r[i], first + static_cast<std::int64_t>(i)) << "index " << i;
  }
}

TEST(Ring, DrainingFreesStorage) {
  Ring<int> r;
  for (int i = 0; i < 1000; ++i) r.push_back(i);
  EXPECT_GE(r.capacity(), 1000u);
  for (int i = 0; i < 999; ++i) r.pop_front();
  EXPECT_GE(r.capacity(), 1000u);  // not drained yet: storage kept
  r.pop_front();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);
  // A drained ring is reusable.
  r.push_back(7);
  EXPECT_EQ(r.front(), 7);
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);
}

TEST(Ring, PopReleasesOwnedResources) {
  Ring<std::shared_ptr<int>> r;
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  r.push_back(std::move(first));
  r.push_back(std::make_shared<int>(2));
  r.pop_front();  // not the last element: the slot itself must let go
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(*r.front(), 2);
}

TEST(Ring, MatchesDequeUnderRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Ring<std::uint64_t> ring;
    std::deque<std::uint64_t> reference;
    std::uint64_t next = 0;
    for (int op = 0; op < 200'000; ++op) {
      // Bias towards pushes in bursts and pops in bursts so the ring both
      // grows through several doublings and repeatedly drains to empty.
      const bool filling = (op / 5'000) % 2 == 0;
      const bool push = rng.next_double() < (filling ? 0.7 : 0.3);
      if (push) {
        ring.push_back(next);
        reference.push_back(next);
        ++next;
      } else if (!reference.empty()) {
        ASSERT_EQ(ring.front(), reference.front()) << "seed " << seed;
        ring.pop_front();
        reference.pop_front();
      }
      ASSERT_EQ(ring.size(), reference.size()) << "seed " << seed;
      ASSERT_EQ(ring.empty(), reference.empty());
      if (!reference.empty()) {
        ASSERT_EQ(ring.back(), reference.back());
        const std::size_t probe = rng.next_below(reference.size());
        ASSERT_EQ(ring[probe], reference[probe]);
      } else {
        ASSERT_EQ(ring.capacity(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace greencc::sim
