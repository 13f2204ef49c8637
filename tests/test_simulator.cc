#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/rng.h"

namespace greencc::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::microseconds(30), [&] { order.push_back(3); });
  sim.schedule(SimTime::microseconds(10), [&] { order.push_back(1); });
  sim.schedule(SimTime::microseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::microseconds(30));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule(SimTime::microseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = SimTime::zero();
  sim.schedule(SimTime::milliseconds(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::milliseconds(7));
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule(SimTime::microseconds(1), tick);
  };
  sim.schedule(SimTime::microseconds(1), tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), SimTime::microseconds(5));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule(SimTime::microseconds(10), [&] {
    EXPECT_THROW(sim.schedule_at(SimTime::microseconds(5), [] {}),
                 std::logic_error);
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::milliseconds(1), [&] { ++fired; });
  sim.schedule(SimTime::milliseconds(10), [&] { ++fired; });
  sim.run_until(SimTime::milliseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
  // Continue to completion.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule(SimTime::milliseconds(5), [&] { fired = true; });
  sim.run_until(SimTime::milliseconds(5));
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopAbortsLoop) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(SimTime::microseconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 42; ++i) sim.schedule(SimTime::microseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 42u);
}

TEST(Simulator, EventBudgetStopsRun) {
  // A scenario that reschedules itself forever terminates exactly at the
  // budget — the supervisor's backstop for spinning cells.
  Simulator sim;
  std::function<void()> tick = [&] {
    sim.schedule(SimTime::microseconds(1), tick);
  };
  sim.schedule(SimTime::microseconds(1), tick);
  sim.set_event_budget(500);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 500u);
  EXPECT_TRUE(sim.budget_exhausted());
  EXPECT_FALSE(sim.stop_requested());  // budget, not stop(), ended the run
}

TEST(Simulator, EventBudgetCountsAcrossRuns) {
  // The budget caps lifetime events (what events_executed() counts), so a
  // second run() resumes against the same cap rather than a fresh one.
  Simulator sim;
  for (int i = 1; i <= 10; ++i) sim.schedule(SimTime::microseconds(i), [] {});
  sim.set_event_budget(7);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_TRUE(sim.budget_exhausted());
  sim.run();  // still exhausted: no further events execute
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.pending_events(), 3u);
  // Raising the cap lets the remaining events through.
  sim.set_event_budget(0);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 10u);
  EXPECT_FALSE(sim.budget_exhausted());
}

TEST(Simulator, StopFromAnotherThreadCutsRun) {
  // The watchdog pattern: a monitor thread stop()s a simulator whose run
  // loop would otherwise never drain. Carries the `concurrency` label so
  // the tsan build checks the flag's cross-thread handshake.
  Simulator sim;
  std::atomic<bool> running{false};
  std::function<void()> tick = [&] {
    running.store(true);
    sim.schedule(SimTime::microseconds(1), tick);
  };
  sim.schedule(SimTime::microseconds(1), tick);
  std::thread watchdog([&] {
    while (!running.load()) std::this_thread::yield();
    sim.stop();
  });
  sim.run();
  watchdog.join();
  EXPECT_TRUE(sim.stop_requested());
  EXPECT_GE(sim.events_executed(), 1u);
}

// --- Timer ---

TEST(Timer, FiresAtDeadline) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(SimTime::milliseconds(3));
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(sim.now(), SimTime::milliseconds(3));
}

TEST(Timer, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(SimTime::milliseconds(3));
  sim.schedule(SimTime::milliseconds(1), [&] { timer.cancel(); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmPushesDeadlineOut) {
  Simulator sim;
  std::vector<SimTime> fire_times;
  Timer timer(sim, [&] { fire_times.push_back(sim.now()); });
  timer.arm(SimTime::milliseconds(2));
  // Re-arm shortly before expiry, pushing the deadline to t=1ms+2ms.
  sim.schedule(SimTime::milliseconds(1), [&] { timer.arm(SimTime::milliseconds(2)); });
  sim.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], SimTime::milliseconds(3));
}

TEST(Timer, RepeatedRearmDoesNotAccumulateEvents) {
  // The coalescing behaviour that keeps TCP's per-ACK RTO re-arming cheap:
  // thousands of arm() calls must not create thousands of events.
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  for (int i = 0; i < 1000; ++i) {
    sim.schedule(SimTime::microseconds(i), [&] {
      timer.arm(SimTime::milliseconds(10));
    });
  }
  sim.run();
  EXPECT_EQ(fired, 1);
  // 1000 arming events + 1 pending timer event + a small number of chase
  // re-schedules; far fewer than one event per arm.
  EXPECT_LT(sim.events_executed(), 1010u);
}

TEST(Timer, ArmAfterFireWorks) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(SimTime::milliseconds(1));
  sim.run();
  EXPECT_EQ(fired, 1);
  timer.arm(SimTime::milliseconds(1));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Timer, CancelReclaimsPendingEvent) {
  // The stale-timer leak regression: cancel() must reclaim the scheduled
  // event, not leave it to fire as a no-op.
  Simulator sim;
  Timer timer(sim, [] {});
  timer.arm(SimTime::milliseconds(3));
  EXPECT_EQ(sim.pending_events(), 1u);
  timer.cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 0u);  // nothing left behind to dispatch
}

TEST(Timer, ArmCancelStormLeavesNoStaleEvents) {
  // At fleet scale every ACK arms and every completion cancels; thousands
  // of arm/cancel rounds must leave pending_events() exact (previously each
  // cancelled arm leaked its heap event until the deadline passed).
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  for (int i = 0; i < 10'000; ++i) {
    timer.arm(SimTime::milliseconds(10));
    EXPECT_EQ(sim.pending_events(), 1u);
    timer.cancel();
    EXPECT_EQ(sim.pending_events(), 0u);
  }
  EXPECT_EQ(sim.peak_pending_events(), 1u);  // never more than one live
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.now(), SimTime::zero());  // no stale event dragged the clock
}

TEST(Timer, ArmStormKeepsSlabWithinPeakPending) {
  // Cancellation memory is O(pending), not O(events ever scheduled): a
  // million arms over 16 timers — pushed-out re-arms (the per-ACK RTO
  // pattern), pull-ins (cancel + reschedule) and cancels while the clock
  // creeps forward — may leave the callback slab no larger than the peak
  // of live events plus at most as many not-yet-surfaced tombstones.
  for (const EventQueueKind kind :
       {EventQueueKind::kCalendar, EventQueueKind::kBinaryHeap}) {
    Simulator sim(kind);
    std::int64_t fired = 0;
    std::vector<std::unique_ptr<Timer>> timers;
    for (int i = 0; i < 16; ++i) {
      timers.push_back(std::make_unique<Timer>(sim, [&fired] { ++fired; }));
    }
    Rng rng(11);
    for (int i = 0; i < 1'000'000; ++i) {
      Timer& timer = *timers[rng.next_below(timers.size())];
      if (i % 32 == 31) {
        timer.cancel();
      } else if (i % 8 == 7) {
        timer.arm(SimTime::microseconds(
            1 + static_cast<std::int64_t>(rng.next_below(50))));
      } else {
        timer.arm(SimTime::milliseconds(1) +
                  SimTime::nanoseconds(
                      static_cast<std::int64_t>(rng.next_below(100'000))));
      }
      if (i % 64 == 63) sim.run_until(sim.now() + SimTime::microseconds(5));
    }
    sim.run();
    EXPECT_GT(fired, 0);
    const std::size_t peak = sim.peak_pending_events();
    EXPECT_LE(peak, timers.size());
    EXPECT_LE(sim.event_slot_capacity(),
              peak + std::max(peak, EventQueue::kTombstoneSlack))
        << sim.queue_name();
  }
}

TEST(Timer, PullInReclaimsSupersededEvent) {
  // Re-arming to an *earlier* deadline replaces the pending event instead
  // of stacking a second one.
  Simulator sim;
  std::vector<SimTime> fire_times;
  Timer timer(sim, [&] { fire_times.push_back(sim.now()); });
  timer.arm(SimTime::milliseconds(10));
  sim.schedule(SimTime::milliseconds(1),
               [&] { timer.arm(SimTime::milliseconds(1)); });
  sim.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], SimTime::milliseconds(2));
  // Both the pull-in arm and the fire consumed their events; the original
  // 10ms event was cancelled, so only the helper + timer event executed.
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, CancelEventReclaimsScheduledCallback) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(SimTime::milliseconds(1), [&] { ++fired; });
  sim.schedule(SimTime::milliseconds(2), [&] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel_event(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(2));
}

TEST(Simulator, QueueKindIsSelectable) {
  Simulator cal(EventQueueKind::kCalendar);
  Simulator heap(EventQueueKind::kBinaryHeap);
  EXPECT_STREQ(cal.queue_name(), "calendar");
  EXPECT_STREQ(heap.queue_name(), "binary-heap");
  const EventQueueKind prior = Simulator::default_queue_kind();
  Simulator::set_default_queue_kind(EventQueueKind::kBinaryHeap);
  EXPECT_EQ(Simulator().queue_kind(), EventQueueKind::kBinaryHeap);
  Simulator::set_default_queue_kind(prior);
}

TEST(Timer, DestructionWithPendingEventIsSafe) {
  Simulator sim;
  int fired = 0;
  {
    auto timer = std::make_unique<Timer>(sim, [&] { ++fired; });
    timer->arm(SimTime::milliseconds(1));
  }  // timer destroyed; its pending event must be a no-op
  sim.run();
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace greencc::sim
