#pragma once

// The classical "hold model" throughput probe for event queues (Vaucher &
// Duval 1975, the workload calendar queues were designed for): keep a fixed
// number of events pending, repeatedly pop the minimum and push a
// replacement a random increment into the future. Steady state with n
// pending events costs the binary heap ~log2(n) sift levels per operation
// and the calendar queue O(1), so this is the measurement behind the
// committed simcore baseline in BENCH_fleet.json and the ablation_simcore
// regression gate.
//
// Event *times* come from the seeded sim::Rng (deterministic); only the
// wall-clock timing of the loop varies run to run.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace greencc::bench {

inline std::unique_ptr<sim::EventQueue> make_hold_queue(
    sim::EventQueueKind kind) {
  if (kind == sim::EventQueueKind::kBinaryHeap) {
    return std::make_unique<sim::BinaryHeapQueue>();
  }
  return std::make_unique<sim::CalendarQueue>();
}

/// One hold step: pop the minimum, push its replacement. Split out so the
/// google-benchmark loop and the baseline gate time the same code. Returns
/// the popped event's time (the hold model's clock).
inline sim::SimTime hold_step(sim::EventQueue& q, sim::Rng& rng,
                              std::uint64_t& seq) {
  sim::EventQueue::Event ev = q.pop_move();
  const sim::SimTime now = ev.when;
  // Mean inter-event gap 1 us, uniform — a mid-density fleet schedule.
  const std::int64_t advance =
      1 + static_cast<std::int64_t>(rng.next_below(2000));
  ev.when = ev.when + sim::SimTime::nanoseconds(advance);
  ev.seq = seq++;
  q.push(std::move(ev));
  return now;
}

/// Retransmission timers riding on the hold model: `handles` holds the
/// push handle of each timer's pending far-future event.
struct TimerChurn {
  std::vector<sim::EventId> handles;
  std::size_t next = 0;
};

/// Arm `timers` retransmission timers ~200 ms past the prefilled window.
inline TimerChurn timer_churn_prefill(sim::EventQueue& q, std::uint64_t& seq,
                                      std::size_t timers) {
  TimerChurn churn;
  for (std::size_t i = 0; i < timers; ++i) {
    churn.handles.push_back(
        q.push({sim::SimTime::milliseconds(200), seq++, [] {}}));
  }
  return churn;
}

/// A hold step plus one timer pull-in, the fleet's RTO churn: cancel a
/// timer's pending event by its handle and re-arm it 200 ms past the
/// current time. Timers are re-armed round-robin long before any deadline
/// comes due, so every cancel hits a pending event and the tombstones
/// pile up in the far tail the way cancelled RTOs do at fleet scale.
inline void hold_churn_step(sim::EventQueue& q, sim::Rng& rng,
                            std::uint64_t& seq, TimerChurn& churn) {
  const sim::SimTime now = hold_step(q, rng, seq);
  sim::EventId& handle = churn.handles[churn.next];
  q.cancel(handle);
  handle = q.push({now + sim::SimTime::milliseconds(200), seq++, [] {}});
  churn.next = (churn.next + 1) % churn.handles.size();
}

/// Fill `q` with `pending` events so the hold loop starts in steady state:
/// initial times are drawn from the same increment distribution the hold
/// steps use, per the classical model — every pending event lives inside
/// the active window, the way every flow in a fleet holds a timer within
/// an RTT. (Prefilling over a much wider span would instead park most of
/// the population in a dormant far tail and measure a different, easier
/// regime.)
inline std::uint64_t hold_prefill(sim::EventQueue& q, sim::Rng& rng,
                                  std::size_t pending) {
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    sim::EventQueue::Event ev;
    ev.when = sim::SimTime::nanoseconds(
        1 + static_cast<std::int64_t>(rng.next_below(2000)));
    ev.seq = seq++;
    ev.cb = [] {};
    q.push(std::move(ev));
  }
  return seq;
}

/// Hold-pattern throughput (operations per wall second) of both queue
/// kinds at a fixed pending-event count, measured head to head: timed
/// passes alternate calendar/heap/calendar/heap and each kind keeps its
/// best. Interleaving matters more than repetition — a governor ramp or a
/// noisy co-tenant then degrades both kinds' slow passes alike instead of
/// silently taxing whichever kind happened to run first, and the best-of-n
/// minimum-time estimator strips what noise remains. The speedup ratio is
/// what the regression gate judges, so it is the thing to keep stable.
struct HoldResult {
  double calendar_eps = 0.0;
  double heap_eps = 0.0;
  double speedup() const {
    return heap_eps > 0 ? calendar_eps / heap_eps : 0.0;
  }
};

inline HoldResult hold_head_to_head(std::size_t pending, std::size_t ops,
                                    std::uint64_t seed = 1, int reps = 3) {
  auto qc = make_hold_queue(sim::EventQueueKind::kCalendar);
  auto qh = make_hold_queue(sim::EventQueueKind::kBinaryHeap);
  sim::Rng rng_c(seed);
  sim::Rng rng_h(seed);
  std::uint64_t seq_c = hold_prefill(*qc, rng_c, pending);
  std::uint64_t seq_h = hold_prefill(*qh, rng_h, pending);
  // Warm up past the adaptation transient (the calendar re-derives its
  // width from the observed schedule along the way): the figure of merit
  // is the steady-state throughput a long sweep actually runs at.
  for (std::size_t i = 0; i < ops / 2; ++i) {
    hold_step(*qc, rng_c, seq_c);
    hold_step(*qh, rng_h, seq_h);
  }
  const auto timed_pass = [ops](sim::EventQueue& q, sim::Rng& rng,
                                std::uint64_t& seq) {
    // lint-allow: wall-clock (bench throughput measurement, never sim state)
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) hold_step(q, rng, seq);
    // lint-allow: wall-clock (bench throughput measurement, never sim state)
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    return sec > 0 ? static_cast<double>(ops) / sec : 0.0;
  };
  HoldResult out;
  for (int rep = 0; rep < reps; ++rep) {
    out.calendar_eps = std::max(out.calendar_eps, timed_pass(*qc, rng_c, seq_c));
    out.heap_eps = std::max(out.heap_eps, timed_pass(*qh, rng_h, seq_h));
  }
  return out;
}

}  // namespace greencc::bench
