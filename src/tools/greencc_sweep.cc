// greencc_sweep — the scenario-pack driver: executes declarative TOML
// scenario files (src/scenario_dsl/) under the sweep supervisor.
//
//   greencc_sweep scenarios/cca_grid.toml
//   greencc_sweep --jobs 0 --csv grid.csv scenarios/cca_grid.toml
//   greencc_sweep --validate scenarios/
//   greencc_sweep --explain scenarios/ext_energy_under_loss.toml
//   greencc_sweep --set flow.0.bytes=60MB --repeats 2 scenarios/cca_grid.toml
//   greencc_sweep --journal sweep.jsonl --resume scenarios/cca_grid.toml
//   greencc_sweep --sample 12 --sample-seed 7 scenarios/pack/
//
// Positional arguments are scenario files or directories (scanned
// recursively for *.toml, sorted). Each scenario expands its [sweep] axes
// into a cell grid, runs every (cell, repeat) under robust::SweepSupervisor
// (watchdog, retries, crash-safe journal, --resume), and writes the CSV its
// [output] section declares. Results are bit-identical for any --jobs value
// and across kill/--resume cycles.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "robust/shutdown.h"
#include "robust/subprocess.h"
#include "scenario_dsl/doc.h"
#include "scenario_dsl/pack.h"
#include "scenario_dsl/runner.h"

using namespace greencc;

namespace {

struct Options {
  std::vector<std::string> inputs;  // files or directories
  bool validate = false;
  bool explain = false;
  dsl::RunOptions run;
  std::size_t sample = 0;  // 0 = run everything
  std::uint64_t sample_seed = 1;
  bool help = false;
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "greencc_sweep — run declarative scenario packs (TOML)\n\n"
               "usage: greencc_sweep [options] <scenario.toml | dir>...\n\n"
               "  --validate           parse, type-check and compile every "
               "scenario;\n"
               "                       run nothing (exit 0 clean, 1 invalid)\n"
               "  --explain            print the expanded sweep (cells, axes,\n"
               "                       config hash, CSV path); run nothing\n"
               "  --jobs N             worker threads (default 1; 0 = all "
               "cores);\n"
               "                       results identical for any N\n"
               "  --seed S             override the scenario's base seed\n"
               "  --repeats K          override the scenario's repeats\n"
               "  --csv FILE           override the output CSV path (single\n"
               "                       scenario only)\n"
               "  --set PATH=VALUE     override a scenario field before "
               "expansion\n"
               "                       (same paths as sweep axes; "
               "repeatable);\n"
               "                       checked like the file key "
               "(exit 1 if not)\n"
               "  --audit              arm the invariant auditor (10 ms "
               "cadence)\n"
               "  --deadline SEC       wall-clock watchdog per run (0 = "
               "none)\n"
               "  --event-budget N     simulator event budget per run (0 = "
               "none)\n"
               "  --retries K          re-attempt a throwing run K times "
               "before\n"
               "                       quarantining it\n"
               "  --journal FILE       crash-safe journal of finished runs;\n"
               "                       with several scenarios each uses\n"
               "                       FILE.<scenario-name>\n"
               "  --resume             replay a matching journal, re-run "
               "only\n"
               "                       what is missing (bit-identical)\n"
               "  --isolate[=N]        run every cell in one of N forked "
               "worker\n"
               "                       processes (default: the --jobs "
               "count).\n"
               "                       A crashing cell (SIGSEGV, abort, "
               "OOM)\n"
               "                       quarantines instead of killing the "
               "sweep;\n"
               "                       results stay byte-identical\n"
               "  --cell-mem-budget B  per-cell memory budget (bytes, or "
               "K/M/G\n"
               "                       suffix); breach kills + quarantines "
               "the\n"
               "                       cell (--isolate only; 0 = none)\n"
               "  --heartbeat SEC      kill a worker silent this long "
               "(frozen\n"
               "                       process detector; default 30, 0 = "
               "off)\n"
               "  --sample N           run only a deterministic N-file "
               "sample\n"
               "                       of the inputs (CI subsetting)\n"
               "  --sample-seed S      seed of that sample (default 1)\n"
               "  --quiet              suppress per-run progress lines\n\n"
               "exit codes: 0 complete, 1 invalid scenario or I/O error,\n"
               "2 usage, 75 partial results\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "greencc_sweep: missing value for %s\n\n",
                     arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--validate") {
      opt.validate = true;
    } else if (arg == "--explain") {
      opt.explain = true;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.jobs = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.have_seed = true;
      opt.run.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--repeats") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.repeats = std::atoi(v);
    } else if (arg == "--csv") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.csv_path = v;
    } else if (arg == "--set") {
      const char* v = next();
      if (!v) return std::nullopt;
      if (std::strchr(v, '=') == nullptr) {
        std::fprintf(stderr,
                     "greencc_sweep: --set expects PATH=VALUE, got '%s'\n\n",
                     v);
        return std::nullopt;
      }
      opt.run.overrides.push_back(v);
    } else if (arg == "--audit") {
      opt.run.audit = true;
    } else if (arg == "--deadline") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.cell_deadline_sec = std::atof(v);
    } else if (arg == "--event-budget") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.event_budget = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--retries") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.max_attempts = std::atoi(v) + 1;
    } else if (arg == "--journal") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.journal_path = v;
    } else if (arg == "--resume") {
      opt.run.resume = true;
    } else if (arg == "--isolate" || arg.rfind("--isolate=", 0) == 0) {
      // Only the = form takes a count: a bare N would be ambiguous with
      // the positional scenario paths.
      if (arg == "--isolate") {
        opt.run.isolate_workers = -1;  // resolve to the --jobs count
      } else {
        const int n = std::atoi(arg.c_str() + std::strlen("--isolate="));
        if (n <= 0) {
          std::fprintf(stderr,
                       "greencc_sweep: --isolate=N needs N >= 1, got '%s'\n\n",
                       arg.c_str());
          return std::nullopt;
        }
        opt.run.isolate_workers = n;
      }
    } else if (arg == "--cell-mem-budget") {
      const char* v = next();
      if (!v) return std::nullopt;
      const std::int64_t bytes = robust::parse_mem_budget(v);
      if (bytes < 0) {
        std::fprintf(stderr,
                     "greencc_sweep: bad --cell-mem-budget '%s' (want bytes "
                     "or a K/M/G suffix)\n\n",
                     v);
        return std::nullopt;
      }
      opt.run.cell_mem_budget_bytes = bytes;
    } else if (arg == "--heartbeat") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.heartbeat_timeout_sec = std::atof(v);
    } else if (arg == "--inject") {
      // Hidden crash-matrix test hook; see robust::FaultInjection.
      const char* v = next();
      if (!v) return std::nullopt;
      opt.run.fault_injection = v;
    } else if (arg == "--sample") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.sample = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--sample-seed") {
      const char* v = next();
      if (!v) return std::nullopt;
      opt.sample_seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--quiet") {
      opt.run.progress = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "greencc_sweep: unknown flag: %s\n\n", arg.c_str());
      return std::nullopt;
    } else {
      opt.inputs.push_back(arg);
    }
  }
  if (!opt.help && opt.inputs.empty()) {
    std::fprintf(stderr, "greencc_sweep: no scenario files given\n\n");
    return std::nullopt;
  }
  if (opt.run.resume && opt.run.journal_path.empty()) {
    opt.run.journal_path = "greencc_sweep_journal.jsonl";
  }
  return opt;
}

/// Expand directories into their sorted *.toml contents; files pass
/// through. Returns nullopt (usage error) for an input that is neither.
std::optional<std::vector<std::string>> expand_inputs(
    const std::vector<std::string>& inputs) {
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    std::vector<std::string> scanned = dsl::list_scenarios(input);
    if (!scanned.empty()) {
      files.insert(files.end(), scanned.begin(), scanned.end());
      continue;
    }
    // Not a directory with scenarios — treat as a file path (existence is
    // checked when it is opened, yielding a proper error message).
    files.push_back(input);
  }
  return files;
}

int do_validate(const std::vector<std::string>& files) {
  const dsl::ValidationSummary summary = dsl::validate_pack(files);
  for (const dsl::ValidationIssue& issue : summary.issues) {
    std::fprintf(stderr, "%s\n", issue.error.c_str());
  }
  std::printf("validated %zu scenario file%s: %zu cells, %zu runs, %zu invalid\n",
              summary.files, summary.files == 1 ? "" : "s", summary.cells,
              summary.runs, summary.issues.size());
  return summary.issues.empty() ? 0 : 1;
}

int do_explain(const std::vector<std::string>& files, const Options& opt) {
  int bad = 0;
  for (const std::string& file : files) {
    try {
      const dsl::ScenarioDoc doc = dsl::load_scenario_file(file);
      const dsl::PackPlan plan = dsl::plan_sweep(doc, opt.run);
      std::printf("%s\n", file.c_str());
      std::printf("  name       %s\n", doc.name.c_str());
      if (!doc.description.empty()) {
        std::printf("  about      %s\n", doc.description.c_str());
      }
      std::printf("  cells      %zu", plan.cells);
      if (!plan.axes.empty()) {
        std::printf(" (");
        for (std::size_t a = 0; a < plan.axes.size(); ++a) {
          std::printf("%s%s=%zu", a ? " x " : "", plan.axes[a].first.c_str(),
                      plan.axes[a].second);
        }
        std::printf(")");
      }
      std::printf("\n");
      std::printf("  repeats    %zu\n", plan.repeats);
      std::printf("  runs       %zu\n", plan.runs);
      std::printf("  csv        %s\n", plan.csv_path.c_str());
      std::printf("  hash       %016" PRIx64 "\n", plan.config_hash);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      bad = 1;
    }
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) {
    print_usage(stderr);
    return 2;
  }
  const Options& opt = *parsed;
  if (opt.help) {
    print_usage(stdout);
    return 0;
  }

  auto expanded = expand_inputs(opt.inputs);
  if (!expanded) return 2;
  std::vector<std::string> files = *expanded;
  if (opt.sample > 0) {
    files = dsl::sample_pack(files, opt.sample, opt.sample_seed);
  }

  if (opt.validate) return do_validate(files);
  if (opt.explain) return do_explain(files, opt);

  if (!opt.run.csv_path.empty() && files.size() > 1) {
    std::fprintf(stderr,
                 "greencc_sweep: --csv needs a single scenario, got %zu\n\n",
                 files.size());
    print_usage(stderr);
    return 2;
  }

  robust::install_shutdown_handler();

  bool partial = false;
  for (const std::string& file : files) {
    dsl::RunOptions run = opt.run;
    try {
      const dsl::ScenarioDoc doc = dsl::load_scenario_file(file);
      if (!run.journal_path.empty() && files.size() > 1) {
        run.journal_path = opt.run.journal_path + "." + doc.name;
      }
      const dsl::SweepOutcome outcome = dsl::run_sweep(doc, run);
      std::fprintf(stderr, "%s: %s\n", doc.name.c_str(),
                   outcome.report.summary().c_str());
      for (const auto* rec : outcome.report.quarantine()) {
        std::fprintf(stderr, "  %s: cell %zu rep %zu (seed=%" PRIu64 "): %s\n",
                     std::string(robust::outcome_name(rec->outcome)).c_str(),
                     rec->index / outcome.repeats,
                     rec->index % outcome.repeats, rec->seed,
                     rec->error.c_str());
      }
      std::printf("%s: %zu cells x %zu repeats -> %s\n", doc.name.c_str(),
                  outcome.cells, outcome.repeats, outcome.csv_path.c_str());
      partial = partial || !outcome.report.complete();
      if (outcome.report.interrupted) break;
    } catch (const dsl::DslError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "greencc_sweep: %s: %s\n", file.c_str(), e.what());
      return 1;
    }
  }
  return partial ? robust::kPartialResultsExit : 0;
}
