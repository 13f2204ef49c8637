#pragma once

// Result plumbing shared by the workloads and probes: named metrics with
// units, medians, and the JSON line the harness prints for run.py.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace greenbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Metrics {
  std::vector<Metric> items;
  void add(std::string name, double value, std::string unit) {
    items.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Harrell-Davis estimate of the q-quantile (q in (0, 1)): a Beta-weighted
/// average of every order statistic. Per-cell times cluster by MTU with
/// gaps between clusters; a single order statistic then jumps across a gap
/// whenever noise reorders two neighbours, the weighted form does not.
double hd_quantile(std::vector<double> v, double q);

/// A JSON array of strings (no escaping: paths and overrides only).
inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i != 0 ? ",\"" : "\"") + items[i] + "\"";
  }
  return out + "]";
}

/// Peak resident set of this process (MB); Linux reports ru_maxrss in KiB.
double peak_rss_mb();

/// FNV-1a over the digest text, rendered as 16 hex digits.
std::string hash_hex(const std::string& digest);

}  // namespace greenbench
