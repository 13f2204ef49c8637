#include "sim/simulator.h"

#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "check/check.h"

namespace greencc::sim {

namespace {

std::atomic<int>& default_kind_storage() {
  // Resolved once, lazily: the environment wins on first use, after which
  // set_default_queue_kind() can override (tests flip it per-section).
  static std::atomic<int> kind{[] {
    const char* env = std::getenv("GREENCC_EVENT_QUEUE");
    if (env && std::string_view(env) == "heap") {
      return static_cast<int>(EventQueueKind::kBinaryHeap);
    }
    return static_cast<int>(EventQueueKind::kCalendar);
  }()};
  return kind;
}

std::unique_ptr<EventQueue> make_queue(EventQueueKind kind) {
  if (kind == EventQueueKind::kBinaryHeap) {
    return std::make_unique<BinaryHeapQueue>();
  }
  return std::make_unique<CalendarQueue>();
}

}  // namespace

EventQueueKind Simulator::default_queue_kind() {
  return static_cast<EventQueueKind>(
      default_kind_storage().load(std::memory_order_relaxed));
}

void Simulator::set_default_queue_kind(EventQueueKind kind) {
  default_kind_storage().store(static_cast<int>(kind),
                               std::memory_order_relaxed);
}

Simulator::Simulator(EventQueueKind kind)
    : kind_(kind), queue_(make_queue(kind)) {}

EventId Simulator::schedule_at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::logic_error("Simulator::schedule_at: time is in the past");
  }
  const EventId handle =
      queue_->push(EventQueue::Event{when, next_seq_++, std::move(cb)});
  if (queue_->size() > peak_pending_) peak_pending_ = queue_->size();
  return handle;
}

void Simulator::cancel_event(EventId id) {
  GREENCC_DCHECK(id != kInvalidEventId) << "cancel_event(kInvalidEventId)";
  queue_->cancel(id);
}

bool Simulator::dispatch_next() {
  if (queue_->empty()) return false;
  EventQueue::Event ev = queue_->pop_move();
  GREENCC_CHECK(ev.when >= now_)
      << "event scheduled in the past: head at " << ev.when.to_string()
      << " but the clock already reads " << now_.to_string() << " (seq "
      << ev.seq << ", " << queue_->size() << " pending)";
  now_ = ev.when;
  ++events_executed_;
  ev.cb();
  return true;
}

void Simulator::run() {
  stopped_.store(false, std::memory_order_relaxed);
  while (!budget_exhausted() && !stop_requested() && dispatch_next()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  stopped_.store(false, std::memory_order_relaxed);
  while (!budget_exhausted() && !stop_requested() && !queue_->empty() &&
         queue_->next_when() <= deadline) {
    dispatch_next();
  }
  if (now_ < deadline && !stop_requested() && !budget_exhausted()) {
    now_ = deadline;
  }
}

void Timer::arm(SimTime delay) {
  armed_ = true;
  expiry_ = sim_.now() + delay;
  ensure_event_at(expiry_);
}

void Timer::ensure_event_at(SimTime when) {
  // An event already pending at or before `when` will notice the (possibly
  // pushed-out) deadline when it fires and re-schedule itself; one event
  // covers any number of arm() calls that only move the deadline out.
  if (event_pending_ && event_time_ <= when) return;
  if (event_pending_) {
    // Deadline pulled in: the pending event is too late to be of use, and
    // the new one supersedes it — reclaim rather than leave it to fire.
    sim_.cancel_event(event_id_);
  }
  event_pending_ = true;
  event_time_ = when;
  event_id_ = sim_.schedule_at(when, [this] { on_event(); });
}

void Timer::cancel() {
  armed_ = false;
  if (event_pending_) {
    sim_.cancel_event(event_id_);
    event_pending_ = false;
    event_id_ = kInvalidEventId;
  }
}

void Timer::on_event() {
  event_pending_ = false;
  event_id_ = kInvalidEventId;
  if (!armed_) return;
  if (expiry_ > sim_.now()) {
    // Deadline moved out since this event was scheduled: chase it.
    ensure_event_at(expiry_);
    return;
  }
  armed_ = false;
  on_expire_();
}

std::string SimTime::to_string() const {
  // Pick the unit by the *rounded* magnitude so boundaries never carry into
  // a fourth integer digit: 999,999,999 ns would render as "1000.000ms"
  // under a raw-ns threshold, but %.3f rounds it to one second, so it must
  // take the seconds branch and print "1.000s".
  const std::int64_t mag = ns_ < 0 ? -ns_ : ns_;
  char buf[32];
  if (mag >= 999'999'500) {
    snprintf(buf, sizeof(buf), "%.3fs", sec());
  } else if (mag >= 1'000'000) {
    snprintf(buf, sizeof(buf), "%.3fms", ms());
  } else {
    snprintf(buf, sizeof(buf), "%.3fus", us());
  }
  return buf;
}

}  // namespace greencc::sim
