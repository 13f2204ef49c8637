#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/ledger.h"
#include "net/packet.h"
#include "net/packet_slots.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "trace/counters.h"
#include "trace/trace.h"

namespace greencc::fault {

/// What an ImpairedLink does to traversing packets. All rates are per
/// packet; a rate of zero disables that stage entirely (it draws no random
/// numbers, so a present-but-disabled stage is bit-identical to no stage).
struct ImpairmentConfig {
  /// Independent (i.i.d.) non-congestive loss probability per packet.
  double loss_rate = 0.0;

  /// Gilbert–Elliott burst loss: a two-state Markov chain advanced once per
  /// packet. In the good state packets pass (subject to the i.i.d. rate
  /// above); in the bad state each packet is dropped with `ge_loss_bad`.
  /// Enabled when `ge_p_bad > 0`. Mean burst length is 1/ge_p_good packets,
  /// mean gap 1/ge_p_bad.
  double ge_p_bad = 0.0;    ///< P(good -> bad) per packet
  double ge_p_good = 0.0;   ///< P(bad -> good) per packet
  double ge_loss_bad = 1.0; ///< drop probability while in the bad state

  /// Probability a packet's payload is damaged in flight. The packet is
  /// forwarded (it costs wire bandwidth and downstream processing) with
  /// `Packet::corrupted` set; the receiving endpoint checksum-drops it.
  double corrupt_rate = 0.0;

  /// Probability a packet is held back and re-injected `reorder_delay`
  /// later, overtaken by whatever passes through in between. Bounded: a
  /// held packet is always delivered, exactly once, after the fixed delay.
  double reorder_rate = 0.0;
  sim::SimTime reorder_delay = sim::SimTime::microseconds(100);

  /// Probability a packet is delivered twice (the duplicate is injected
  /// immediately after the original).
  double duplicate_rate = 0.0;

  /// Per-packet delay jitter, uniform in [0, jitter_max). Zero disables.
  sim::SimTime jitter_max = sim::SimTime::zero();

  /// Base seed for the link's per-stage RNG streams; combine with the run
  /// seed before handing the config to an ImpairedLink so repeats stay
  /// statistically independent.
  std::uint64_t seed = 1;

  /// True when any stage can fire. A config that returns false behaves as a
  /// plain pass-through wire.
  bool any_random() const {
    return loss_rate > 0.0 || ge_p_bad > 0.0 || corrupt_rate > 0.0 ||
           reorder_rate > 0.0 || duplicate_rate > 0.0 ||
           jitter_max > sim::SimTime::zero();
  }
};

/// Counters kept by an ImpairedLink; benches and tests read these, and the
/// audit layer re-derives the conservation equation from them.
struct ImpairmentStats {
  std::uint64_t arrived = 0;      ///< packets offered to the link
  std::uint64_t forwarded = 0;    ///< delivered downstream (incl. corrupted
                                  ///< and duplicate copies)
  std::uint64_t loss_drops = 0;   ///< i.i.d. loss
  std::uint64_t burst_drops = 0;  ///< Gilbert–Elliott bad-state loss
  std::uint64_t down_drops = 0;   ///< discarded while the link was down
  std::uint64_t corrupted = 0;    ///< forwarded with the corrupted flag
  std::uint64_t reordered = 0;    ///< held for delayed re-injection
  std::uint64_t duplicated = 0;   ///< extra copies injected
  std::uint64_t jittered = 0;     ///< forwarded through a jitter delay
};

/// A deterministic link-impairment stage: a net::PacketHandler wrapper
/// insertable in front of any handler (typically between a QueuedPort and
/// its downstream hop), implementing non-congestive loss (i.i.d. and
/// Gilbert–Elliott burst), corruption, bounded reordering, duplication,
/// jitter, and link down/up flaps.
///
/// Determinism contract: every stage draws from its own RNG stream, derived
/// via sim::mix_seed from (config.seed, site-name hash, stage index). A
/// stage whose rate is zero draws nothing, so adding a disabled stage — or
/// the whole link, with an all-zero config — leaves the simulation
/// bit-identical; and because the streams are private to the link, enabling
/// impairment never perturbs any other component's randomness (scenario
/// jitter, AQM, workload arrivals). Runs are therefore reproducible across
/// `--jobs` values exactly like unimpaired ones.
///
/// Accounting contract: every removed packet is reported to the run's
/// PacketLedger as a fault drop and every fabricated duplicate as an
/// injection, so the auditor's per-flow conservation equation
/// (sent + injected == delivered + dropped + fault_dropped + in_flight)
/// balances under injection. Each fault also emits a typed trace event
/// (fault_loss / fault_corrupt / fault_reorder / fault_duplicate).
class ImpairedLink : public net::PacketHandler {
 public:
  ImpairedLink(sim::Simulator& sim, std::string name,
               const ImpairmentConfig& config, net::PacketHandler* next)
      : sim_(sim),
        name_(std::move(name)),
        config_(config),
        site_(sim::site_hash(name_)),
        loss_rng_(sim::mix_seed(config.seed, site_, 0)),
        ge_rng_(sim::mix_seed(config.seed, site_, 1)),
        corrupt_rng_(sim::mix_seed(config.seed, site_, 2)),
        reorder_rng_(sim::mix_seed(config.seed, site_, 3)),
        duplicate_rng_(sim::mix_seed(config.seed, site_, 4)),
        jitter_rng_(sim::mix_seed(config.seed, site_, 5)),
        next_(next) {}

  void handle(net::Packet pkt) override;

  /// Downstream handler can be swapped after construction (wiring cycles).
  void set_next(net::PacketHandler* next) { next_ = next; }

  /// Take the link down (every arriving packet is discarded and accounted
  /// as a fault drop) or bring it back up. Driven by FaultSchedule.
  void set_link_down(bool down);
  bool link_down() const { return down_; }

  /// Attach this run's event sink (nullptr = off; one untaken branch per
  /// packet when off).
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

  /// Attach the run's drop ledger so injected faults stay balanced in the
  /// auditor's conservation equation.
  void set_ledger(check::PacketLedger* ledger) { ledger_ = ledger; }

  /// Register "<name>.loss_drops", "<name>.duplicated", ... counters.
  void register_counters(trace::CounterRegistry& reg) const;

  /// Re-derive the link's books: arrivals plus fabricated duplicates must
  /// equal forwards plus drops plus packets still held for re-injection.
  /// Appends one line per discrepancy to `problems`.
  void audit(std::vector<std::string>& problems) const;

  const ImpairmentStats& stats() const { return stats_; }
  std::uint64_t total_drops() const {
    return stats_.loss_drops + stats_.burst_drops + stats_.down_drops;
  }
  /// Packets currently held for delayed (reorder/jitter) re-injection.
  std::int64_t held_packets() const {
    return static_cast<std::int64_t>(held_.size());
  }
  const std::string& name() const { return name_; }
  const ImpairmentConfig& config() const { return config_; }

 private:
  void drop(const net::Packet& pkt, trace::EventClass cls,
            std::string_view why);
  void forward(net::Packet pkt, sim::SimTime extra_delay);

  sim::Simulator& sim_;
  std::string name_;
  ImpairmentConfig config_;
  std::uint64_t site_;
  sim::Rng loss_rng_;
  sim::Rng ge_rng_;
  sim::Rng corrupt_rng_;
  sim::Rng reorder_rng_;
  sim::Rng duplicate_rng_;
  sim::Rng jitter_rng_;
  net::PacketHandler* next_;
  trace::TraceSink* trace_ = nullptr;
  check::PacketLedger* ledger_ = nullptr;
  bool down_ = false;
  bool ge_bad_ = false;  ///< Gilbert–Elliott chain state
  /// Packets held for delayed re-injection; each delay event captures
  /// {this, slot}. Slots, because jitter reorders the deliveries.
  net::PacketSlots held_;
  ImpairmentStats stats_;
};

}  // namespace greencc::fault
