// greenbench: runs one benchmark workload and prints its result as one JSON
// line. Normally driven by run.py, which builds this binary, checks the
// output hash against reference.json and stamps the environment.
//
//   greenbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//
// Run from the repository root (scenario files are read relative to it).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace greenbench {

namespace {

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const RunArgs& args, const WorkloadOutcome& r) {
  std::string out = "{\"workload\":\"" + args.workload + "\"";
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":" + std::to_string(args.trace ? 1 : 0);
  out += ",\"seconds\":" + json_number(args.seconds);
  out += ",\"config\":" + r.config_json;
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"output_hash\":\"" + r.output_hash + "\"";
  out += ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const WorkloadOutcome::Check& c = r.checks[i];
    out += (i != 0 ? "," : "");
    out += "{\"label\":\"" + c.label + "\",\"expected\":\"" + c.expected +
           "\",\"actual\":\"" + c.actual + "\"}";
  }
  out += "],\"passes\":" + std::to_string(r.passes);
  out += ",\"setup_samples\":" + std::to_string(r.setup_samples);
  out += ",\"cell_samples\":" + std::to_string(r.cell_samples);
  out += ",\"pass_run_s\":[";
  for (std::size_t i = 0; i < r.pass_run_s.size(); ++i) {
    out += (i != 0 ? "," : "") + json_number(r.pass_run_s[i]);
  }
  out += "]";
  out += ",\"spans\":\"" + r.spans_path + "\"";
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.items.size(); ++i) {
    const Metric& m = r.metrics.items[i];
    out += (i != 0 ? "," : "");
    out += "\"" + m.name + "\":{\"value\":" + json_number(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
  return out + "}}";
}

const char* flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == name) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace
}  // namespace greenbench

int main(int argc, char** argv) {
  using namespace greenbench;
  RunArgs args;
  const char* workload = flag(argc, argv, "--workload");
  const char* seed = flag(argc, argv, "--seed");
  const char* seconds = flag(argc, argv, "--seconds");
  const char* trace = flag(argc, argv, "--trace");
  const char* work = flag(argc, argv, "--work");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      trace == nullptr || work == nullptr) {
    std::fprintf(stderr,
                 "usage: greenbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work DIR\n");
    return 2;
  }
  args.workload = workload;
  args.seed = std::strtoull(seed, nullptr, 10);
  args.seconds = std::strtod(seconds, nullptr);
  args.trace = std::string(trace) == "1";
  args.work_dir = work;

  try {
    WorkloadOutcome result;
    if (args.workload == "fleet" || args.workload == "incast") {
      result = run_fabric_workload(args);
    } else if (args.workload == "paper_grid" ||
               args.workload == "pack_sample") {
      result = run_dsl_workload(args);
    } else {
      std::fprintf(stderr, "greenbench: unknown workload '%s'\n", workload);
      return 2;
    }
    std::printf("%s\n", to_json(args, result).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "greenbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
