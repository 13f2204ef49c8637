#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace greencc::sim {

/// Discrete-event simulator.
///
/// A single-threaded event loop with a virtual clock. Events scheduled for
/// the same instant execute in scheduling order (a monotonically increasing
/// sequence number breaks ties), which makes every run fully deterministic.
///
/// The event store is pluggable (EventQueueKind): a calendar queue with
/// O(1) amortized operations by default, with the former binary heap kept
/// selectable so the determinism suite can hold both to byte-identical
/// results. Scheduling returns an EventId handle naming the event's slot in
/// the queue's callback slab; cancel_event(handle) destroys a pending
/// event's callback in O(1) instead of leaving it to fire as a no-op (Timer
/// relies on this for true cancellation). Handles are valid only while
/// their event is pending: slots are reused after an event runs.
///
/// Ownership: callbacks are `std::function<void()>`; any state they capture
/// must outlive the simulator run. Network elements typically capture `this`
/// and are owned by the experiment scenario, which also owns the simulator.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  /// `kind` selects the event core; the default is the calendar queue
  /// unless overridden process-wide (set_default_queue_kind or the
  /// GREENCC_EVENT_QUEUE environment variable — "heap" or "calendar").
  explicit Simulator(EventQueueKind kind = default_queue_kind());
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Process-wide default event core. Resolved once from the
  /// GREENCC_EVENT_QUEUE environment variable ("heap" selects the binary
  /// heap; anything else, or unset, the calendar queue).
  static EventQueueKind default_queue_kind();
  /// Override the process-wide default (tests; takes effect for Simulators
  /// constructed afterwards). Thread-safe.
  static void set_default_queue_kind(EventQueueKind kind);

  /// Which event core this simulator runs on.
  EventQueueKind queue_kind() const { return kind_; }
  /// The event core's self-description ("calendar", "binary-heap").
  const char* queue_name() const { return queue_->name(); }

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `cb` to run `delay` after the current time. Returns a handle
  /// usable with cancel_event() while the event is pending.
  EventId schedule(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedule `cb` at an absolute time (must not be in the past).
  EventId schedule_at(SimTime when, Callback cb);

  /// Reclaim a pending event: its callback is destroyed without running and
  /// it stops counting in pending_events(). Must only be called for an
  /// event that has not yet fired (callers track pending-ness; see Timer);
  /// a stale handle fails a GREENCC_DCHECK and is otherwise ignored.
  void cancel_event(EventId id);

  /// Run until the event queue drains or `stop()` is called.
  void run();

  /// Run until the clock reaches `deadline` (events at exactly `deadline`
  /// still execute) or the queue drains.
  void run_until(SimTime deadline);

  /// Abort the run loop after the current event returns. Safe to call from
  /// another thread (the sweep supervisor's watchdog cutting a stalled
  /// run): the flag is atomic and the loop re-reads it before every
  /// dispatch. Everything else on this class stays single-threaded.
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

  /// True once stop() has been requested and no run has started since.
  /// (run()/run_until() clear the flag on entry, so after a run this
  /// reports whether that run was cut short by stop().)
  bool stop_requested() const {
    return stopped_.load(std::memory_order_relaxed);
  }

  /// Cap the total number of events this simulator may execute (counted by
  /// `events_executed()`, i.e. over the simulator's lifetime, not per run).
  /// When the cap is reached, run()/run_until() return instead of spinning
  /// forever on a pathological scenario, and `budget_exhausted()` reports
  /// why. 0 (the default) means unlimited.
  void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }
  std::uint64_t event_budget() const { return event_budget_; }
  bool budget_exhausted() const {
    return event_budget_ != 0 && events_executed_ >= event_budget_;
  }

  /// Number of events executed so far (instrumentation / microbenchmarks).
  /// Cancelled events never execute and never count.
  std::uint64_t events_executed() const { return events_executed_; }

  /// Number of live events waiting in the queue. Cancelled events stop
  /// counting the moment cancel_event() reclaims them.
  std::size_t pending_events() const { return queue_->size(); }

  /// High-water mark of `pending_events()` over the simulator's lifetime —
  /// the run-profiling figure that bounds event-queue memory and per-event
  /// cost.
  std::size_t peak_pending_events() const { return peak_pending_; }

  /// Callback-slab slots the event queue has allocated (memory
  /// introspection: stays O(peak pending), however many events were ever
  /// scheduled or cancelled).
  std::size_t event_slot_capacity() const { return queue_->slot_capacity(); }

 private:
  bool dispatch_next();

  SimTime now_ = SimTime::zero();
  EventQueueKind kind_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t event_budget_ = 0;  // 0 = unlimited
  std::size_t peak_pending_ = 0;
  // Atomic so a watchdog thread can cut a run; see stop().
  std::atomic<bool> stopped_{false};
  std::unique_ptr<EventQueue> queue_;
};

/// One-shot, re-armable timer (the pattern used for TCP retransmission
/// timeouts).
///
/// Re-arming a timer on every ACK would flood the event queue with events.
/// Instead the timer keeps at most one pending simulator event: when the
/// deadline is pushed *out*, the pending event is kept and silently
/// re-schedules itself on firing (one event per deadline horizon, not per
/// arm); when the deadline is pulled *in* or the timer is cancelled, the
/// pending event is reclaimed through Simulator::cancel_event — nothing
/// stale stays behind to distort pending-event counts or queue costs.
///
/// Lifetime: the timer must not outlive the simulator. Destruction cancels
/// the pending event, so the callback can safely capture `this`.
class Timer {
 public:
  /// `on_expire` runs when the armed deadline passes. The callback must
  /// outlive the timer.
  Timer(Simulator& sim, std::function<void()> on_expire)
      : sim_(sim), on_expire_(std::move(on_expire)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  /// (Re)arm to fire `delay` from now. Replaces any previous deadline.
  void arm(SimTime delay);

  /// Disarm and reclaim the pending simulator event, if any.
  void cancel();

  bool armed() const { return armed_; }
  SimTime expiry() const { return expiry_; }

 private:
  void ensure_event_at(SimTime when);
  void on_event();

  Simulator& sim_;
  std::function<void()> on_expire_;
  bool armed_ = false;
  SimTime expiry_ = SimTime::zero();
  bool event_pending_ = false;
  SimTime event_time_ = SimTime::zero();
  EventId event_id_ = kInvalidEventId;
};

}  // namespace greencc::sim
