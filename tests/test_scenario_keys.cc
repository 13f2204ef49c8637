// The scenario DSL's key table (src/scenario_dsl/keys.h), walked entry by
// entry: a valid value must set the same field whether it comes from the
// file, a sweep axis or --set, and every range rule must reject the same
// bad value on all three paths. Two CLI regressions pin the binding checks
// end to end: an out-of-range axis value fails greencc_sweep --validate,
// and an out-of-range --set fails before anything runs.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario_dsl/doc.h"
#include "scenario_dsl/keys.h"
#include "scenario_dsl/serialize.h"
#include "scenario_dsl/sweep.h"

namespace {

using namespace greencc;
using dsl::KeySpec;
using dsl::Rule;
using dsl::ValueKind;

/// A minimal scenario with every section present; `line` goes into the
/// key's own table (an empty `line` gives the base document).
std::string doc_text(const KeySpec& key, const std::string& line) {
  auto in = [&](std::string_view section) {
    return key.section == section ? line : std::string();
  };
  const bool is_name = key.section == "scenario" && key.name == "name";
  const bool is_install = key.section == "faults" && key.name == "install";
  const bool workload = key.section == "workload";
  std::string text = "[scenario]\n";
  text += is_name && !line.empty() ? line : "name = \"t\"\n" + in("scenario");
  text += "[topology]\n";
  if (workload) text += "kind = \"workload\"\n";
  text += in("topology");
  text += "[tcp]\n" + in("tcp");
  text += "[aqm]\n" + in("aqm");
  // A [faults] section implies install = true; keep it off so bindings,
  // which never imply it, see the same base.
  text += "[faults]\n" + std::string(is_install ? "" : "install = false\n") +
          in("faults");
  text += "[energy]\n" + in("energy");
  text += "[energy.work]\n" + in("energy.work");
  text += workload ? "[workload]\n" + in("workload")
                   : "[[flow]]\n" + in("flow");
  return text;
}

/// The path an axis or --set binds the key by.
std::string bound_path(const KeySpec& key) {
  if (key.section == "flow") return "flow.0." + std::string(key.name);
  return std::string(key.section) + "." + std::string(key.name);
}

dsl::ScenarioDoc parse(const std::string& text) {
  return dsl::parse_scenario_text(text, "inline.toml");
}

/// `text` plus a one-value axis on `path`; returns the line of the value.
std::string with_axis(const std::string& text, const std::string& path,
                      const std::string& value, int* value_line) {
  *value_line = static_cast<int>(std::count(text.begin(), text.end(), '\n')) +
                4;
  return text + "[[sweep.axis]]\nname = \"a\"\npath = \"" + path +
         "\"\nvalues = [" + value + "]\n";
}

/// The serialized scalar keys: everything before the axes and [output],
/// which differ between a document with an axis and one without.
std::string scalar_keys(const dsl::ScenarioDoc& doc) {
  const std::string text = dsl::serialize_scenario(doc);
  return text.substr(0, std::min(text.find("\n[[sweep.axis]]"),
                                 text.find("\n[output]")));
}

/// A value the key accepts that differs from the base document's: the
/// TOML literal and the --set text.
struct Sample {
  std::string toml;
  std::string set;
};

Sample valid_sample(const KeySpec& key, dsl::ScenarioDoc base) {
  switch (key.kind) {
    case ValueKind::kSize: return {"7777", "7777"};
    case ValueKind::kRate: return {"\"3Gbps\"", "3Gbps"};
    case ValueKind::kTime: return {"\"7ms\"", "7ms"};
    case ValueKind::kInt: return {"5", "5"};
    case ValueKind::kDouble: return {"0.25", "0.25"};
    case ValueKind::kBool:
      return *std::get<bool*>(key.field(base, 0)) ? Sample{"false", "false"}
                                                  : Sample{"true", "true"};
    case ValueKind::kString:
      if (key.rule == Rule::kSizeMix) return {"\"datamining\"", "datamining"};
      return {"\"other\"", "other"};
    case ValueKind::kEnum: {
      const std::string choice(key.choices[1]);
      return {"\"" + choice + "\"", choice};
    }
    case ValueKind::kCca: return {"\"bbr\"", "bbr"};
  }
  return {};
}

/// A value the key's rule rejects.
Sample bad_sample(const KeySpec& key) {
  switch (key.rule) {
    case Rule::kNonNegative: return {"-1", "-1"};
    case Rule::kAtLeastOne: return {"0", "0"};
    case Rule::kPositive:
      if (key.kind == ValueKind::kTime) return {"\"0s\"", "0s"};
      return {"0", "0"};
    case Rule::kUnitInterval: return {"1.5", "1.5"};
    case Rule::kIdentifier: return {"\"Bad Name\"", "Bad Name"};
    case Rule::kSizeMix: return {"\"zipf\"", "zipf"};
    case Rule::kNone: break;
  }
  return {};
}

/// What follows `label` in `message`, or "<label missing>".
std::string after_label(const std::string& message, const std::string& label) {
  const std::size_t at = message.find(label);
  return at == std::string::npos ? "<label missing>"
                                 : message.substr(at + label.size());
}

TEST(KeyTable, ValidValueSetsTheSameFieldOnEveryPath) {
  for (const KeySpec& key : dsl::scenario_keys()) {
    const std::string file_key =
        std::string(key.section) + "." + std::string(key.name);
    SCOPED_TRACE(file_key);
    const std::string base_text = doc_text(key, "");
    const dsl::ScenarioDoc base = parse(base_text);
    const Sample sample = valid_sample(key, base);
    const dsl::ScenarioDoc from_file = parse(
        doc_text(key, std::string(key.name) + " = " + sample.toml + "\n"));
    EXPECT_NE(scalar_keys(from_file), scalar_keys(base))
        << "the sample value did not reach the document";

    const std::string path = bound_path(key);
    dsl::ScenarioDoc from_set = base;
    if (!key.sweepable) {
      try {
        dsl::apply_override(from_set, path + "=" + sample.set);
        ADD_FAILURE() << "--set bound a fixed key";
      } catch (const dsl::ParseError& e) {
        EXPECT_EQ(e.message(), "unknown sweep path '" + path + "'");
      }
      continue;
    }
    dsl::apply_override(from_set, path + "=" + sample.set);
    EXPECT_EQ(scalar_keys(from_set), scalar_keys(from_file)) << "--set";

    int line = 0;
    const dsl::ScenarioDoc axis_doc =
        parse(with_axis(base_text, path, sample.toml, &line));
    const dsl::ScenarioDoc from_axis =
        dsl::doc_for_cell(axis_doc, dsl::expand_sweep(axis_doc).cells.at(0));
    EXPECT_EQ(scalar_keys(from_axis), scalar_keys(from_file)) << "axis";
  }
}

TEST(KeyTable, EveryRangeRuleRejectsOnEveryPath) {
  int ruled = 0;
  for (const KeySpec& key : dsl::scenario_keys()) {
    if (key.rule == Rule::kNone) continue;
    ++ruled;
    const std::string file_key =
        std::string(key.section) + "." + std::string(key.name);
    SCOPED_TRACE(file_key);
    const Sample bad = bad_sample(key);
    const std::string base_text = doc_text(key, "");

    std::string file_tail;
    try {
      parse(doc_text(key, std::string(key.name) + " = " + bad.toml + "\n"));
      ADD_FAILURE() << "the file accepted " << bad.toml;
      continue;
    } catch (const dsl::DslError& e) {
      file_tail = after_label(e.what(), file_key + " ");
    }
    EXPECT_EQ(file_tail.rfind("must be", 0), 0u) << file_tail;
    if (!key.sweepable) continue;

    const std::string path = bound_path(key);
    dsl::ScenarioDoc doc = parse(base_text);
    try {
      dsl::apply_override(doc, path + "=" + bad.set);
      ADD_FAILURE() << "--set accepted " << bad.set;
    } catch (const dsl::ParseError& e) {
      EXPECT_EQ(e.line(), 0);
      EXPECT_EQ(after_label(e.message(), path + " "), file_tail) << "--set";
    }

    int line = 0;
    try {
      parse(with_axis(base_text, path, bad.toml, &line));
      ADD_FAILURE() << "the axis accepted " << bad.toml;
    } catch (const dsl::DslError& e) {
      EXPECT_EQ(e.line(), line);
      EXPECT_EQ(after_label(e.what(), path + " "), file_tail) << "axis";
    }
  }
  EXPECT_GT(ruled, 0);
}

// --- The binding checks end to end, against the real binary -----------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs greencc_sweep with `args`; returns its exit code, output in `log`.
int run_sweep(const std::string& args, std::string* log) {
  const std::string log_path = ::testing::TempDir() + "/keys_cli.log";
  const int status = std::system((std::string(GREENCC_SWEEP_PATH) + " " +
                                  args + " > " + log_path + " 2>&1")
                                     .c_str());
  *log = read_file(log_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(KeysCli, OutOfRangeAxisValueFailsValidate) {
  const std::string path = ::testing::TempDir() + "/keys_zero_bytes.toml";
  std::ofstream(path) << "[scenario]\n"
                         "name = \"zero_bytes\"\n"
                         "[[flow]]\n"
                         "cca = \"cubic\"\n"
                         "[[sweep.axis]]\n"
                         "name = \"bytes\"\n"
                         "path = \"flow.0.bytes\"\n"
                         "values = [0]\n";
  std::string log;
  EXPECT_EQ(run_sweep("--validate " + path, &log), 1) << log;
  EXPECT_NE(log.find(path + ":8: flow.0.bytes must be > 0"), std::string::npos)
      << log;
}

TEST(KeysCli, OutOfRangeSetExitsBeforeRunning) {
  std::string log;
  EXPECT_EQ(run_sweep("--explain --set flow.0.weight=0 " +
                          std::string(GREENCC_SCENARIO_DIR) + "/cca_grid.toml",
                      &log),
            1)
      << log;
  EXPECT_NE(log.find(":0: flow.0.weight must be > 0"), std::string::npos)
      << log;
}

}  // namespace
