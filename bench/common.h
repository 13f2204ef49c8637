#pragma once

// Shared helpers for the figure-reproduction benches: tiny flag parsing and
// the scaling conventions (the paper transfers 50 GB per scenario; we default
// to 2 GB simulated and report 50 GB equivalents, which is exact at steady
// state because energy and completion time are linear in bytes there).

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace greencc::bench {

/// Exits 2 with the flag named: a bench must not run a silently different
/// experiment because a value did not parse.
[[noreturn]] inline void bad_flag_value(const char* name, const char* text,
                                        const char* expected) {
  std::fprintf(stderr, "bad value for %s: '%s' (expected %s)\n", name, text,
               expected);
  std::exit(2);
}

/// Integer flag. The whole token must parse; exponent notation is accepted
/// for whole numbers ("--bytes 5e7"), as greencc_run's --bytes does.
inline std::int64_t flag_i64(int argc, char** argv, const char* name,
                             std::int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) continue;
    const char* text = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    const long long exact = std::strtoll(text, &end, 10);
    if (end != text && *end == '\0' && errno != ERANGE) return exact;
    const double value = std::strtod(text, &end);
    // 2^63 is the first double past the int64 range.
    if (end == text || *end != '\0' || !std::isfinite(value) ||
        std::trunc(value) != value || std::fabs(value) >= 0x1p63) {
      bad_flag_value(name, text, "a whole number");
    }
    return static_cast<std::int64_t>(value);
  }
  return fallback;
}

inline double flag_double(int argc, char** argv, const char* name,
                          double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) continue;
    const char* text = argv[i + 1];
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0') bad_flag_value(name, text, "a number");
    return value;
  }
  return fallback;
}

inline std::string flag_str(int argc, char** argv, const char* name,
                            const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Worker threads for grid/repeat sweeps (`--jobs N`; N <= 0 means all
/// hardware threads). Every bench that fans out over scenarios accepts it;
/// results are deterministic regardless of the value.
inline int flag_jobs(int argc, char** argv) {
  return static_cast<int>(flag_i64(argc, argv, "--jobs", 1));
}

/// Presence flag (no value): true when `name` appears anywhere on the line.
inline bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// `--isolate[=N]` (process isolation, robust/worker.h): returns 0 when
/// absent, -1 for the bare flag (worker count follows --jobs), N for the
/// explicit `--isolate=N` form. Only the `=` form takes a count so benches
/// with positional arguments parse unambiguously.
inline int flag_isolate(int argc, char** argv) {
  constexpr const char* kPrefix = "--isolate=";
  const std::size_t prefix_len = std::strlen(kPrefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--isolate") == 0) return -1;
    if (std::strncmp(argv[i], kPrefix, prefix_len) == 0) {
      const int n = std::atoi(argv[i] + prefix_len);
      return n > 0 ? n : -1;
    }
  }
  return 0;
}

/// Paper transfer size and our simulated default.
constexpr std::int64_t kPaperBytes = 50'000'000'000;   // 50 GB
constexpr std::int64_t kDefaultBytes = 2'000'000'000;  // 2 GB simulated

inline double scale_to_paper(std::int64_t simulated) {
  return static_cast<double>(kPaperBytes) /
         static_cast<double>(simulated);
}

inline void print_header(const char* figure, const char* paper_claim) {
  std::printf("=== %s ===\n", figure);
  std::printf("paper: %s\n\n", paper_claim);
}

}  // namespace greencc::bench
