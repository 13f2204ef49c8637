#pragma once

// Crash-safe write-ahead journal for experiment sweeps.
//
// One JSONL file per sweep: a header line binding the journal to a schema
// version and a 64-bit hash of the sweep configuration, then one line per
// completed cell appended — with a single write(2) followed by fsync(2) —
// the moment its result is known. A `kill -9` therefore loses at most the
// cells that were in flight; `--resume` replays the journal and re-runs
// only what is missing. Because every cell's seed derives from
// (base_seed, cell, repeat) and never from completion order, a resumed
// sweep is bit-identical to an uninterrupted one.
//
// The payload is an opaque string chosen by the integration (the scenario
// DSL runner stores each run's metric vector as %.17g text, which
// round-trips IEEE doubles exactly). Torn tail lines — the only kind a crash can produce,
// appends being sequential — fail to parse and are ignored on load; a
// duplicated task line is resolved last-writer-wins, so replaying a
// journal is idempotent.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace greencc::robust {

/// FNV-1a 64-bit — the sweep-config fingerprint carried in journal
/// headers. Not cryptographic; collision risk is irrelevant at
/// "did I rerun with different flags" scale.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

class SweepJournal {
 public:
  /// Bump when the line format changes; a mismatched journal is ignored on
  /// load and overwritten on open.
  static constexpr int kSchemaVersion = 1;

  /// Parse `path` and return the payload of every journaled task, later
  /// lines winning. Returns empty when the file is missing or its header
  /// does not match (other schema version, other config hash) — a stale
  /// journal must never seed a resume. Unparseable lines (a torn tail
  /// after a crash) are skipped.
  static std::map<std::size_t, std::string> load(const std::string& path,
                                                 std::uint64_t config_hash);

  /// Open for appending. When `preserve` is set and the existing header
  /// matches, completed lines are kept (the resume path); otherwise the
  /// file is truncated and a fresh header written. Throws
  /// std::runtime_error when the file cannot be opened.
  SweepJournal(std::string path, std::uint64_t config_hash, bool preserve);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Append one task's result as a single atomic, fsync'd line. Safe to
  /// call from any one thread at a time (the supervisor serializes).
  void append(std::size_t task, const std::string& payload);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace greencc::robust
