// Microbenchmark (google-benchmark): raw event throughput of the simulator
// core, the figure that bounds how many packet-events per wall-second the
// experiment harness can process.
//
// Beyond the google-benchmark suite, two modes support the committed
// BENCH_fleet.json baseline (written by ext_fleet --json):
//
//   ablation_simcore --check-baseline PATH
//       Re-measure the hold-model throughput of both event-queue kinds at
//       10k pending events and exit non-zero if (a) the calendar queue has
//       regressed more than 20% below the committed events/sec, or (b) its
//       speedup over the binary heap fell below 3x — the floor the
//       calendar-queue refactor is accountable to. This is the perf smoke
//       ctest runs (label `perf`, RUN_SERIAL so nothing steals its cores).
//
//   ablation_simcore --hold
//       Print the hold-model numbers without judging them.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "queue_hold.h"
#include "sim/rng.h"
#include "sim/simulator.h"

using namespace greencc::sim;

namespace {

void BM_ScheduleAndRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < batch; ++i) {
      sim.schedule(SimTime::nanoseconds(i % 977), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleAndRun)->Arg(1'000)->Arg(100'000);

void BM_EventChain(benchmark::State& state) {
  // Self-rescheduling event: the latency-critical simulator path.
  for (auto _ : state) {
    Simulator sim;
    int remaining = 10'000;
    std::function<void()> hop = [&] {
      if (--remaining > 0) sim.schedule(SimTime::nanoseconds(10), hop);
    };
    sim.schedule(SimTime::nanoseconds(10), hop);
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventChain);

void BM_TimerRearm(benchmark::State& state) {
  // The per-ACK RTO re-arm pattern: with true cancellation this reclaims
  // every superseded event instead of leaking it into the heap.
  for (auto _ : state) {
    Simulator sim;
    Timer timer(sim, [] {});
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule(SimTime::nanoseconds(i), [&] {
        timer.arm(SimTime::milliseconds(200));
      });
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_TimerRearm);

// The hold model (pop-min, push-replacement at steady pending count) for
// both queue kinds — the binary heap pays log2(pending) sift levels per
// op where the calendar queue pays O(1), so the gap widens with the
// pending count (fleet scale = flows' worth of pending timers).
void BM_HoldPattern(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? EventQueueKind::kCalendar
                                        : EventQueueKind::kBinaryHeap;
  const auto pending = static_cast<std::size_t>(state.range(1));
  auto q = greencc::bench::make_hold_queue(kind);
  Rng rng(1);
  std::uint64_t seq = greencc::bench::hold_prefill(*q, rng, pending);
  for (auto _ : state) {
    greencc::bench::hold_step(*q, rng, seq);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(q->name());
}
BENCHMARK(BM_HoldPattern)
    ->ArgsProduct({{0, 1}, {1'000, 10'000, 100'000}});

// The hold model with one retransmission-timer pull-in per step (cancel by
// handle + re-arm, one timer per 4 pending events): the O(1) slab
// cancellation and the tombstone skips it leaves behind, on the hot path.
void BM_HoldTimerChurn(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? EventQueueKind::kCalendar
                                        : EventQueueKind::kBinaryHeap;
  const auto pending = static_cast<std::size_t>(state.range(1));
  auto q = greencc::bench::make_hold_queue(kind);
  Rng rng(1);
  std::uint64_t seq = greencc::bench::hold_prefill(*q, rng, pending);
  auto churn = greencc::bench::timer_churn_prefill(*q, seq, pending / 4);
  for (auto _ : state) {
    greencc::bench::hold_churn_step(*q, rng, seq, churn);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(q->name());
}
BENCHMARK(BM_HoldTimerChurn)->ArgsProduct({{0, 1}, {10'000, 100'000}});

void BM_RngU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngU64);

constexpr std::size_t kGatePending = 10'000;
constexpr std::size_t kGateOps = 2'000'000;
constexpr int kGateReps = 5;             ///< best-of-n timed passes per kind
constexpr double kMaxRegression = 0.20;  ///< fail below 80% of baseline
constexpr double kMinSpeedup = 3.0;      ///< calendar vs heap floor

/// Pull "key": <number> out of the committed JSON baseline. The schema is
/// written by ext_fleet's JsonWriter (flat keys, no nesting tricks), so a
/// text scan is sufficient and keeps the gate dependency-free.
bool json_number(const std::string& text, const std::string& key,
                 double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::atof(text.c_str() + pos + needle.size());
  return true;
}

int run_baseline_gate(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "simcore-gate: cannot read baseline %s\n", path);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  double committed = 0.0;
  if (!json_number(buf.str(), "calendar_events_per_sec", &committed) ||
      committed <= 0) {
    std::fprintf(stderr,
                 "simcore-gate: baseline %s has no calendar_events_per_sec\n",
                 path);
    return 2;
  }

  const double floor = committed * (1.0 - kMaxRegression);
  // A wall-clock gate on a shared machine will occasionally catch a noisy
  // window no matter how careful the measurement; one re-measure before
  // failing turns a ~5% flake rate into a negligible one without letting a
  // real regression through (a real regression fails both attempts).
  for (int attempt = 0;; ++attempt) {
    const greencc::bench::HoldResult hold =
        greencc::bench::hold_head_to_head(kGatePending, kGateOps,
                                          /*seed=*/1, kGateReps);
    const double speedup = hold.speedup();
    std::printf(
        "simcore-gate: hold @%zu pending — calendar %.2fM/s (committed "
        "%.2fM/s, floor %.2fM/s), heap %.2fM/s, speedup %.2fx (floor %.1fx)\n",
        kGatePending, hold.calendar_eps / 1e6, committed / 1e6, floor / 1e6,
        hold.heap_eps / 1e6, speedup, kMinSpeedup);
    if (hold.calendar_eps >= floor && speedup >= kMinSpeedup) {
      std::printf("simcore-gate: OK\n");
      return 0;
    }
    if (attempt == 0) {
      std::printf("simcore-gate: below a floor — re-measuring once\n");
      continue;
    }
    if (hold.calendar_eps < floor) {
      std::fprintf(stderr,
                   "simcore-gate: FAIL — calendar throughput regressed "
                   ">%.0f%% vs committed baseline\n",
                   kMaxRegression * 100);
    }
    if (speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "simcore-gate: FAIL — calendar/heap speedup %.2fx below "
                   "%.1fx floor\n",
                   speedup, kMinSpeedup);
    }
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      return run_baseline_gate(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--hold") == 0) {
      for (std::size_t pending : {1'000u, 10'000u, 100'000u}) {
        const auto hold = greencc::bench::hold_head_to_head(pending, kGateOps);
        std::printf("hold @%6zu pending: calendar %8.2fM/s  heap %8.2fM/s  "
                    "speedup %5.2fx\n",
                    pending, hold.calendar_eps / 1e6, hold.heap_eps / 1e6,
                    hold.speedup());
      }
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
