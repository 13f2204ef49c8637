#include <sys/resource.h>

#include <cmath>
#include <cstdio>

#include "probes.h"
#include "report.h"
#include "robust/journal.h"
#include "workloads.h"

namespace greenbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string hash_hex(const std::string& digest) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(greencc::robust::fnv1a64(digest)));
  return buf;
}

double hd_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  // Weight of order statistic i: the Beta(a, b) mass on ((i-1)/n, i/n],
  // integrated with the midpoint rule and normalized.
  constexpr int kSteps = 256;  // per order statistic
  std::vector<double> w(v.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (int k = 0; k < kSteps; ++k) {
      const double x = (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
      w[i] += std::exp((a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x));
    }
    total += w[i];
  }
  double out = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) out += v[i] * w[i] / total;
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fleet", "incast",
                                                 "paper_grid", "pack_sample"};
  return names;
}

std::uint64_t trace_id(const std::string& workload, std::uint64_t cell) {
  std::uint64_t index = 0;
  while (index < workload_names().size() && workload_names()[index] != workload) {
    ++index;
  }
  return ((index + 1) << 32) | cell;
}

void finish_traced_run(const RunArgs& args, Tracer& tracer,
                       WorkloadOutcome& result) {
  Metrics& m = result.metrics;
  tracer.set_trace(trace_id(args.workload, 0xffffffffu));
  probe_sim(tracer, args.seed, m);
  probe_cca(tracer, m);
  probe_aqm(tracer, m);
  probe_energy(tracer, m);
  probe_fault(tracer, args.seed, m);
  probe_trace_off(tracer, m);
  m.add("tracing.spans", static_cast<double>(tracer.spans_recorded()),
        "count");
  result.spans_path = args.work_dir + "/spans-" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".jsonl";
  if (!tracer.write_jsonl(result.spans_path)) result.spans_path.clear();
}

}  // namespace greenbench
