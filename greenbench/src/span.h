#pragma once

// In-memory span recorder for the traced benchmark run.
//
// Every decorated call opens a Span: name, start, end, parent span and the
// trace id of the (workload, cell) it belongs to. Self time is the span's
// duration minus the time its child spans cover; it is accumulated per name
// for every call, together with a call count. Raw spans are kept in memory
// up to a per-name cap (a fleet run makes tens of millions of calls) and
// written out as JSON lines once the run has ended.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

namespace greenbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// Interns a span name; the id indexes totals().
  std::uint32_t name_id(const std::string& name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    ids_.emplace(name, id);
    names_.push_back(name);
    totals_.emplace_back();
    kept_.push_back(0);
    return id;
  }

  /// Spans opened after this belong to `trace` (one id per workload, cell).
  void set_trace(std::uint64_t trace) { trace_ = trace; }

  void enter(std::uint32_t name) {
    stack_.push_back(Frame{name, next_id_++, now_ns(), 0});
  }

  void exit() {
    const std::int64_t end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - f.start;
    Totals& t = totals_[f.name];
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - f.child_ns;
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (kept_[f.name] < kSpansPerName) {
      ++kept_[f.name];
      spans_.push_back(Span{f.name, trace_, f.id, parent, f.start, end});
    } else {
      ++dropped_;
    }
  }

  const Totals& totals(const std::string& name) {
    return totals_[name_id(name)];
  }
  std::uint64_t spans_recorded() const { return spans_.size() + dropped_; }

  /// Writes the kept spans as JSON lines; returns false on an I/O error.
  bool write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"trace\":%llu,\"span\":%llu,"
                   "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.trace),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Frame {
    std::uint32_t name;
    std::uint64_t id;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Span {
    std::uint32_t name;
    std::uint64_t trace;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start;
    std::int64_t end;
  };

  static constexpr std::size_t kSpansPerName = 1024;

  std::uint64_t trace_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<std::size_t> kept_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->enter(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace greenbench
