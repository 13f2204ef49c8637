#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/check.h"
#include "sim/rng.h"

namespace greencc::sim {
namespace {

std::unique_ptr<EventQueue> make(EventQueueKind kind) {
  if (kind == EventQueueKind::kBinaryHeap) {
    return std::make_unique<BinaryHeapQueue>();
  }
  return std::make_unique<CalendarQueue>();
}

class EventQueueTest : public ::testing::TestWithParam<EventQueueKind> {};

INSTANTIATE_TEST_SUITE_P(AllQueues, EventQueueTest,
                         ::testing::Values(EventQueueKind::kCalendar,
                                           EventQueueKind::kBinaryHeap),
                         [](const auto& info) {
                           return info.param == EventQueueKind::kCalendar
                                      ? "Calendar"
                                      : "BinaryHeap";
                         });

TEST_P(EventQueueTest, PopsInWhenSeqOrder) {
  auto q = make(GetParam());
  // Deliberately out-of-order times plus a same-time pair (seq breaks ties).
  q->push({SimTime::microseconds(30), 0, [] {}});
  q->push({SimTime::microseconds(10), 1, [] {}});
  q->push({SimTime::microseconds(10), 2, [] {}});
  q->push({SimTime::microseconds(20), 3, [] {}});
  EXPECT_EQ(q->size(), 4u);

  std::vector<EventId> order;
  while (!q->empty()) {
    EXPECT_EQ(q->next_when(), q->next_when());  // next_when is stable
    order.push_back(q->pop_move().seq);
  }
  EXPECT_EQ(order, (std::vector<EventId>{1, 2, 3, 0}));
}

TEST_P(EventQueueTest, PopMoveTransfersCallbackOwnership) {
  auto q = make(GetParam());
  int fired = 0;
  q->push({SimTime::microseconds(1), 0, [&fired] { ++fired; }});
  EventQueue::Event ev = q->pop_move();
  EXPECT_TRUE(q->empty());
  ev.cb();
  EXPECT_EQ(fired, 1);
}

TEST_P(EventQueueTest, CancelRemovesFromSizeImmediately) {
  auto q = make(GetParam());
  q->push({SimTime::microseconds(1), 0, [] {}});
  const EventId second = q->push({SimTime::microseconds(2), 1, [] {}});
  q->push({SimTime::microseconds(3), 2, [] {}});
  EXPECT_EQ(q->size(), 3u);
  EXPECT_TRUE(q->cancel(second));
  EXPECT_EQ(q->size(), 2u);
  EXPECT_EQ(q->pop_move().seq, 0u);
  EXPECT_EQ(q->pop_move().seq, 2u);  // the tombstone never surfaces
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, CancelledCallbackNeverRuns) {
  auto q = make(GetParam());
  int fired = 0;
  const EventId id =
      q->push({SimTime::microseconds(1), 0, [&fired] { ++fired; }});
  q->cancel(id);
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(fired, 0);
}

TEST_P(EventQueueTest, CancelHeadThenPopSkipsIt) {
  auto q = make(GetParam());
  const EventId head = q->push({SimTime::microseconds(1), 0, [] {}});
  q->push({SimTime::microseconds(1), 1, [] {}});
  q->cancel(head);
  EXPECT_EQ(q->next_when(), SimTime::microseconds(1));
  EXPECT_EQ(q->pop_move().seq, 1u);
}

TEST_P(EventQueueTest, CancelStormReclaimsEverything) {
  // The Timer churn pattern at fleet scale: push a wave, cancel most of it,
  // repeat. Live size must track exactly and survivors must come out in
  // (when, seq) order.
  auto q = make(GetParam());
  Rng rng(7);
  std::vector<EventQueue::Event> expected;
  EventId seq = 0;
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::pair<EventId, EventId>> pushed;  // (seq, handle)
    for (int i = 0; i < 200; ++i) {
      const auto when =
          SimTime::nanoseconds(static_cast<std::int64_t>(rng.next_below(
              1'000'000'000)));
      pushed.emplace_back(seq, q->push({when, seq, [] {}}));
      expected.push_back({when, seq, nullptr});
      ++seq;
    }
    // Cancel ~90% of this wave.
    for (const auto& [id, handle] : pushed) {
      if (rng.next_below(10) != 0) {
        EXPECT_TRUE(q->cancel(handle));
        expected.erase(std::find_if(
            expected.begin(), expected.end(),
            [id](const EventQueue::Event& e) { return e.seq == id; }));
      }
    }
    EXPECT_EQ(q->size(), expected.size());
  }
  std::sort(expected.begin(), expected.end(), detail::event_before);
  for (const auto& want : expected) {
    ASSERT_FALSE(q->empty());
    const EventQueue::Event got = q->pop_move();
    EXPECT_EQ(got.when, want.when);
    EXPECT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, RandomizedModelComparison) {
  // Drive the queue with a random interleave of pushes, cancels, and pops,
  // and hold it to a sorted-vector reference model.  Time ranges span 9
  // orders of magnitude so the calendar queue exercises overflow, cursor
  // jumps, and rebuilds.
  auto q = make(GetParam());
  Rng rng(42);
  std::vector<EventQueue::Event> model;  // kept sorted by (when, seq)
  std::vector<EventId> handles;          // by seq
  EventId seq = 0;
  SimTime low_water = SimTime::zero();  // pops only move forward in time
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 5 || model.empty()) {
      // Push at or after the last popped time (the simulator's invariant).
      const auto when =
          low_water + SimTime::nanoseconds(static_cast<std::int64_t>(
                          rng.next_below(1'000'000'000'000)));
      EventQueue::Event ev{when, seq++, [] {}};
      model.insert(std::upper_bound(model.begin(), model.end(), ev,
                                    detail::event_before),
                   {ev.when, ev.seq, nullptr});
      handles.push_back(q->push(std::move(ev)));
    } else if (dice < 7) {
      // Cancel a random live event.
      const std::size_t idx = rng.next_below(model.size());
      ASSERT_TRUE(q->cancel(handles[model[idx].seq]));
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      ASSERT_EQ(q->next_when(), model.front().when);
      const EventQueue::Event got = q->pop_move();
      ASSERT_EQ(got.when, model.front().when);
      ASSERT_EQ(got.seq, model.front().seq);
      low_water = got.when;
      model.erase(model.begin());
    }
    ASSERT_EQ(q->size(), model.size());
  }
  while (!model.empty()) {
    const EventQueue::Event got = q->pop_move();
    ASSERT_EQ(got.seq, model.front().seq);
    model.erase(model.begin());
  }
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, StaleOrDoubleCancelIsRejected) {
  // A handle is only good while its event is pending. Cancelling it twice,
  // after its event popped, or after its slot went to a later event must
  // neither touch size() nor hit the wrong event: the audit build reports
  // it through the check failure handler, other builds reject it quietly.
  check::ScopedFailureHandler guard(&check::throwing_failure_handler);
  auto q = make(GetParam());
  const auto expect_rejected = [&q](EventId stale) {
    const std::size_t before = q->size();
#ifdef GREENCC_AUDIT
    EXPECT_THROW(q->cancel(stale), check::CheckFailedError);
#else
    EXPECT_FALSE(q->cancel(stale));
#endif
    EXPECT_EQ(q->size(), before);
  };
  const EventId first = q->push({SimTime::microseconds(1), 0, [] {}});
  const EventId second = q->push({SimTime::microseconds(2), 1, [] {}});
  EXPECT_TRUE(q->cancel(second));
  expect_rejected(second);  // double cancel
  EXPECT_EQ(q->pop_move().seq, 0u);
  expect_rejected(first);  // already popped
  // The popped event's slot is the next one handed out; the stale handle
  // names that slot but carries the old event's tag.
  const EventId third = q->push({SimTime::microseconds(3), 2, [] {}});
  ASSERT_EQ(static_cast<std::uint32_t>(third),
            static_cast<std::uint32_t>(first));
  expect_rejected(first);
  EXPECT_EQ(q->size(), 1u);
  EXPECT_TRUE(q->cancel(third));
  EXPECT_TRUE(q->empty());
}

// --- Randomised differential test against a reference multiset ---

/// Drives one queue beside a reference std::multiset of (when, seq) — the
/// total order every EventQueue must reproduce — and checks after every
/// operation that size() is exact and every pop is the reference minimum.
/// Pushes never go behind the last popped time (the simulator's
/// invariant). Stops at the first mismatch so a broken queue reports one
/// failure, not thousands.
class Differential {
 public:
  explicit Differential(EventQueueKind kind) : q_(make(kind)) {}

  SimTime now() const { return low_water_; }
  std::size_t size() const { return ref_.size(); }
  bool ok() const { return !broken_; }
  const EventQueue& queue() const { return *q_; }

  /// Push at `when` (>= now()); returns the seq.
  EventId push(SimTime when) {
    const EventId seq = next_seq_++;
    if (broken_) return seq;
    handles_.push_back(q_->push({when, seq, [] {}}));
    whens_.push_back(when);
    ref_.insert({when.ns(), seq});
    live_pos_.push_back(live_.size());
    live_.push_back(seq);
    check_size();
    return seq;
  }
  EventId push_after(std::int64_t delay_ns) {
    return push(low_water_ + SimTime::nanoseconds(delay_ns));
  }

  /// Cancel the pending event `seq` by its handle.
  void cancel(EventId seq) {
    if (broken_) return;
    if (!q_->cancel(handles_[seq])) {
      return fail("cancel rejected a pending handle");
    }
    ref_.erase(ref_.find({whens_[seq].ns(), seq}));
    forget(seq);
    check_size();
  }
  /// Cancel a uniformly random pending event.
  void cancel_random(Rng& rng) {
    if (broken_ || live_.empty()) return;
    cancel(live_[rng.next_below(live_.size())]);
  }

  /// Pop one event; returns its seq (or kInvalidEventId when empty).
  EventId pop() {
    if (broken_ || ref_.empty()) return kInvalidEventId;
    const auto want = *ref_.begin();
    if (q_->next_when().ns() != want.first) {
      fail("next_when differs from the reference minimum");
      return kInvalidEventId;
    }
    const EventQueue::Event got = q_->pop_move();
    if (got.when.ns() != want.first || got.seq != want.second) {
      fail("pop order differs from the reference");
      return kInvalidEventId;
    }
    ref_.erase(ref_.begin());
    forget(got.seq);
    low_water_ = got.when;
    check_size();
    return got.seq;
  }
  void drain() {
    while (ok() && !ref_.empty()) pop();
    if (ok() && !q_->empty()) fail("queue holds events the reference lacks");
  }

 private:
  void check_size() {
    if (q_->size() != ref_.size()) fail("size() differs from the reference");
  }
  void fail(const char* what) {
    broken_ = true;
    ADD_FAILURE() << q_->name() << ": " << what << " (after " << next_seq_
                  << " pushes, " << ref_.size() << " pending)";
  }
  /// Swap-remove `seq` from the pending list.
  void forget(EventId seq) {
    const std::size_t at = live_pos_[seq];
    live_[at] = live_.back();
    live_pos_[live_[at]] = at;
    live_.pop_back();
  }

  std::unique_ptr<EventQueue> q_;
  std::multiset<std::pair<std::int64_t, EventId>> ref_;
  std::vector<EventId> handles_;      ///< by seq
  std::vector<SimTime> whens_;        ///< by seq
  std::vector<EventId> live_;         ///< pending seqs, unordered
  std::vector<std::size_t> live_pos_; ///< by seq: index into live_
  EventId next_seq_ = 0;
  SimTime low_water_ = SimTime::zero();
  bool broken_ = false;
};

std::int64_t draw(Rng& rng, std::int64_t below) {
  return static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(below)));
}

/// Thousands of events at one instant, popped part-way and re-flooded at
/// the instant now reached, with a cancel sprinkled through every flood.
void same_instant_floods(Differential& d, Rng& rng) {
  for (int wave = 0; wave < 6 && d.ok(); ++wave) {
    const std::int64_t at = wave % 2 == 0 ? 0 : 1 + draw(rng, 1'000);
    for (int i = 0; i < 3'000; ++i) {
      d.push_after(at);
      if (i % 7 == 0) d.cancel_random(rng);
    }
    for (std::size_t n = d.size() / 2; n > 0; --n) d.pop();
  }
  d.drain();
}

/// The fleet/incast start pattern: 10k flow starts ramped over 1 ms; each
/// start emits an initial window of 10 segments ~1.8 us apart and arms a
/// ~200 ms retransmission timer that a later segment cancels and re-arms.
void incast_ramp(Differential& d, Rng& rng) {
  constexpr std::int64_t kFlows = 10'000;
  constexpr std::int64_t kRampNs = 1'000'000;
  std::vector<int> kind;  // by seq: 0 start, 1 segment, 2 timer
  std::vector<std::int64_t> flow_of;
  std::vector<EventId> rto(kFlows, kInvalidEventId);
  const auto push = [&](SimTime when, int k, std::int64_t flow) {
    const EventId seq = d.push(when);
    kind.resize(seq + 1);
    flow_of.resize(seq + 1);
    kind[seq] = k;
    flow_of[seq] = flow;
    return seq;
  };
  for (std::int64_t f = 0; f < kFlows; ++f) {
    push(SimTime::nanoseconds(kRampNs * f / (kFlows - 1)), 0, f);
  }
  while (d.ok() && d.size() > 0) {
    const EventId seq = d.pop();
    if (seq == kInvalidEventId) break;
    const std::int64_t f = flow_of[seq];
    if (kind[seq] == 0) {
      for (std::int64_t s = 1; s <= 10; ++s) {
        push(d.now() + SimTime::nanoseconds(1'800 * s + draw(rng, 4)), 1, f);
      }
    } else if (kind[seq] == 2) {
      rto[static_cast<std::size_t>(f)] = kInvalidEventId;
      continue;
    }
    // Every start and segment (re-)arms the flow's timer.
    auto& timer = rto[static_cast<std::size_t>(f)];
    if (timer != kInvalidEventId) {
      d.cancel(timer);
    }
    timer = push(
        d.now() + SimTime::nanoseconds(200'000'000 + draw(rng, 1'000'000)),
        2, f);
  }
  d.drain();
}

/// Dense 1 us clusters separated by idle gaps of 1 to 10 simulated
/// seconds, with pushes chained off pops inside each cluster.
void long_idle_gaps(Differential& d, Rng& rng) {
  for (int cluster = 0; cluster < 40 && d.ok(); ++cluster) {
    const std::int64_t gap = 1'000'000'000 + draw(rng, 9'000'000'000);
    for (int i = 0; i < 200; ++i) d.push_after(gap + draw(rng, 1'000));
    for (int i = 0; i < 150; ++i) {
      d.pop();
      if (i % 3 == 0) d.push_after(draw(rng, 500));
      if (i % 11 == 0) d.cancel_random(rng);
    }
  }
  d.drain();
}

/// 256 timers churned by arm (push out), pull-in (cancel + earlier push)
/// and cancel while time advances: slots are freed and reused constantly.
void arm_cancel_storm(Differential& d, Rng& rng) {
  constexpr std::size_t kTimers = 256;
  std::vector<EventId> pending(kTimers, kInvalidEventId);
  std::vector<EventId> owner;  // by seq: timer index
  for (int op = 0; op < 60'000 && d.ok(); ++op) {
    const std::size_t t = rng.next_below(kTimers);
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 6) {
      if (pending[t] != kInvalidEventId) {
        d.cancel(pending[t]);
        pending[t] = kInvalidEventId;
      }
      if (dice < 5) {
        pending[t] =
            d.push(d.now() + SimTime::nanoseconds(1 + draw(rng, 200'000)));
        owner.resize(pending[t] + 1);
        owner[pending[t]] = t;
      }
    } else {
      const EventId seq = d.pop();
      if (seq != kInvalidEventId) pending[owner[seq]] = kInvalidEventId;
    }
  }
  // At most one pending event per timer, so the ~30k pushes ran on a
  // slab no larger than the live events plus as many tombstones.
  EXPECT_LE(d.queue().slot_capacity(),
            kTimers + std::max(kTimers, EventQueue::kTombstoneSlack));
  d.drain();
}

/// A hold-model working set with a tail of far-future events (seconds to
/// hours ahead) that must wait out of the way and then surface in order.
void far_future_tails(Differential& d, Rng& rng) {
  for (int i = 0; i < 2'000; ++i) d.push_after(1 + draw(rng, 2'000));
  for (int i = 0; i < 300; ++i) {
    d.push_after(1'000'000'000 * (1 + draw(rng, 3'600)) + draw(rng, 1'000));
  }
  for (int step = 0; step < 40'000 && d.ok(); ++step) {
    d.pop();
    d.push_after(1 + draw(rng, 2'000));
    if (step % 97 == 0) {
      d.push_after(1'000'000'000 * (1 + draw(rng, 3'600)));
    }
    if (step % 13 == 0) d.cancel_random(rng);
  }
  d.drain();
}

struct Schedule {
  const char* name;
  void (*run)(Differential&, Rng&);
};
void PrintTo(const Schedule& schedule, std::ostream* os) {
  *os << schedule.name;
}
const Schedule kSchedules[] = {
    {"SameInstantFloods", same_instant_floods},
    {"IncastRamp", incast_ramp},
    {"LongIdleGaps", long_idle_gaps},
    {"ArmCancelStorm", arm_cancel_storm},
    {"FarFutureTails", far_future_tails},
};

class EventQueueDifferential
    : public ::testing::TestWithParam<std::tuple<EventQueueKind, Schedule>> {};

TEST_P(EventQueueDifferential, MatchesReferenceOrderAndSize) {
  const auto& [kind, schedule] = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Differential d(kind);
    Rng rng(seed);
    schedule.run(d, rng);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.queue().size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueues, EventQueueDifferential,
    ::testing::Combine(::testing::Values(EventQueueKind::kCalendar,
                                         EventQueueKind::kBinaryHeap),
                       ::testing::ValuesIn(kSchedules)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == EventQueueKind::kCalendar
                             ? "Calendar"
                             : "BinaryHeap") +
             std::get<1>(info.param).name;
    });

TEST(CalendarQueue, RebuildsUnderLoad) {
  // Push far more events than the initial ring can hold at ~1 event per
  // bucket; the resize policy must kick in and keep operations correct.
  CalendarQueue q;
  const std::size_t initial_buckets = q.bucket_count();
  Rng rng(3);
  for (EventId i = 0; i < 10'000; ++i) {
    q.push({SimTime::nanoseconds(static_cast<std::int64_t>(
                rng.next_below(1'000'000))),
            i, [] {}});
  }
  EXPECT_GT(q.bucket_count(), initial_buckets);
  SimTime prev = SimTime::zero();
  while (!q.empty()) {
    const auto ev = q.pop_move();
    EXPECT_GE(ev.when, prev);
    prev = ev.when;
  }
}

TEST(CalendarQueue, FarFutureEventsSitInOverflow) {
  CalendarQueue q;
  q.push({SimTime::seconds(3600), 0, [] {}});  // an hour out: overflow
  EXPECT_EQ(q.overflow_size(), 1u);
  q.push({SimTime::nanoseconds(10), 1, [] {}});
  EXPECT_EQ(q.pop_move().seq, 1u);
  // The cursor jumps straight to the far event instead of walking an
  // hour's worth of empty buckets.
  EXPECT_EQ(q.pop_move().seq, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SparseThenDenseTrafficAdaptsWidth) {
  // A sparse prelude (wide gaps) followed by a dense burst: rebuilds must
  // re-derive the width so dense-phase performance does not degrade, and
  // ordering must hold throughout.
  CalendarQueue q;
  EventId seq = 0;
  for (int i = 0; i < 100; ++i) {
    q.push({SimTime::milliseconds(i * 100), seq++, [] {}});
  }
  for (int i = 0; i < 5'000; ++i) {
    q.push({SimTime::nanoseconds(i), seq++, [] {}});
  }
  SimTime prev = SimTime::zero();
  std::size_t popped = 0;
  while (!q.empty()) {
    const auto ev = q.pop_move();
    EXPECT_GE(ev.when, prev);
    prev = ev.when;
    ++popped;
  }
  EXPECT_EQ(popped, 5'100u);
}

}  // namespace
}  // namespace greencc::sim
