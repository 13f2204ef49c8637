// Scenario DSL unit suite: the TOML-subset parser, line-accurate golden
// errors (the fixtures in tests/data/dsl/), sweep expansion order, the
// parse -> serialize -> parse round-trip property, and the config_canon
// equality/hash layer the journal fingerprints bind to.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app/config_canon.h"
#include "scenario_dsl/compile.h"
#include "scenario_dsl/doc.h"
#include "scenario_dsl/serialize.h"
#include "scenario_dsl/sweep.h"
#include "scenario_dsl/toml.h"

#ifndef GREENCC_DSL_DATA_DIR
#define GREENCC_DSL_DATA_DIR "tests/data/dsl"
#endif
#ifndef GREENCC_SCENARIO_DIR
#define GREENCC_SCENARIO_DIR "scenarios"
#endif

namespace {

using namespace greencc;

std::string fixture(const std::string& name) {
  return std::string(GREENCC_DSL_DATA_DIR) + "/" + name;
}

// --- TOML-subset parser -----------------------------------------------------

TEST(Toml, ScalarKindsAndLines) {
  const dsl::TomlValue root = dsl::parse_toml(
      "a = \"text\"\n"
      "b = 42\n"
      "c = 2.5\n"
      "d = true\n"
      "e = 1e-3\n");
  EXPECT_TRUE(root.table.at("a").is_string());
  EXPECT_EQ(root.table.at("a").str, "text");
  EXPECT_EQ(root.table.at("a").line, 1);
  EXPECT_TRUE(root.table.at("b").is_int());
  EXPECT_EQ(root.table.at("b").integer, 42);
  EXPECT_DOUBLE_EQ(root.table.at("b").number, 42.0);  // int mirrors number
  EXPECT_TRUE(root.table.at("c").is_float());
  EXPECT_DOUBLE_EQ(root.table.at("c").number, 2.5);
  EXPECT_TRUE(root.table.at("d").is_bool());
  EXPECT_TRUE(root.table.at("d").boolean);
  EXPECT_TRUE(root.table.at("e").is_float());
  EXPECT_DOUBLE_EQ(root.table.at("e").number, 1e-3);
  EXPECT_EQ(root.table.at("e").line, 5);
}

TEST(Toml, TablesAndArraysOfTables) {
  const dsl::TomlValue root = dsl::parse_toml(
      "[top]\n"
      "x = 1\n"
      "[top.sub]\n"
      "y = 2\n"
      "[[entry]]\n"
      "z = 3\n"
      "[[entry]]\n"
      "z = 4\n");
  const dsl::TomlValue& top = root.table.at("top");
  ASSERT_TRUE(top.is_table());
  EXPECT_EQ(top.table.at("x").integer, 1);
  EXPECT_EQ(top.table.at("sub").table.at("y").integer, 2);
  const dsl::TomlValue& entries = root.table.at("entry");
  ASSERT_TRUE(entries.is_array());
  ASSERT_EQ(entries.array.size(), 2u);
  EXPECT_EQ(entries.array[0].table.at("z").integer, 3);
  EXPECT_EQ(entries.array[1].table.at("z").integer, 4);
}

TEST(Toml, MultilineAndNestedArrays) {
  const dsl::TomlValue root = dsl::parse_toml(
      "vals = [1,\n"
      "  2, 3]\n"
      "zip = [[\"a\", 1], [\"b\", 2]]\n");
  ASSERT_EQ(root.table.at("vals").array.size(), 3u);
  const dsl::TomlValue& zip = root.table.at("zip");
  ASSERT_EQ(zip.array.size(), 2u);
  EXPECT_EQ(zip.array[0].array[0].str, "a");
  EXPECT_EQ(zip.array[1].array[1].integer, 2);
}

TEST(Toml, StringEscapesAndComments) {
  const dsl::TomlValue root = dsl::parse_toml(
      "# leading comment\n"
      "s = \"quo\\\"te\\\\slash\"  # trailing comment\n");
  EXPECT_EQ(root.table.at("s").str, "quo\"te\\slash");
}

TEST(Toml, SyntaxErrorsNameTheLine) {
  try {
    dsl::parse_toml("ok = 1\nbroken = \"unterminated\n");
    FAIL() << "expected ParseError";
  } catch (const dsl::ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(dsl::parse_toml("dup = 1\ndup = 2\n"), dsl::ParseError);
  EXPECT_THROW(dsl::parse_toml("x = {a = 1}\n"), dsl::ParseError);
  EXPECT_THROW(dsl::parse_toml("x = 1 garbage\n"), dsl::ParseError);
}

// --- Golden line-accurate schema errors ------------------------------------

std::string dsl_error(const std::string& path) {
  try {
    dsl::load_scenario_file(path);
  } catch (const dsl::DslError& e) {
    return e.what();
  }
  return "<no error>";
}

TEST(Golden, UnknownKey) {
  const std::string path = fixture("unknown_key.toml");
  EXPECT_EQ(dsl_error(path),
            path + ":5: unknown key 'frobnicate' in [scenario]");
}

TEST(Golden, WrongUnitSuffix) {
  const std::string path = fixture("bad_unit.toml");
  EXPECT_EQ(dsl_error(path),
            path +
                ":7: topology.link_delay: expected a time like \"5us\" "
                "(suffix ns/us/ms/s), got '5parsecs'");
}

TEST(Golden, OverlappingSweepAxes) {
  const std::string path = fixture("overlap_axes.toml");
  EXPECT_EQ(dsl_error(path),
            path +
                ":11: sweep axis 'b' binds path 'tcp.mtu', already bound "
                "by axis 'a'");
}

TEST(Golden, UnknownUnitInRate) {
  try {
    dsl::parse_scenario_text(
        "[scenario]\nname = \"t\"\n[topology]\nbottleneck = \"10mph\"\n",
        "inline.toml");
    FAIL() << "expected DslError";
  } catch (const dsl::DslError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("suffix bps/kbps/Mbps/Gbps"),
              std::string::npos);
  }
}

// work_jitter scales every CPU work item by 1 + jitter * U(-1, 1): above 1
// a packet could be charged negative work and the core's release times
// would run backwards. Both the scalar key and a sweep axis reject it.
TEST(Golden, WorkJitterOutsideUnitIntervalIsRejected) {
  for (const char* bad : {"1.5", "-0.1"}) {
    try {
      dsl::parse_scenario_text(
          std::string("[scenario]\nname = \"t\"\nwork_jitter = ") + bad +
              "\n",
          "inline.toml");
      FAIL() << "expected DslError for work_jitter = " << bad;
    } catch (const dsl::DslError& e) {
      EXPECT_EQ(e.line(), 3);
      EXPECT_NE(std::string(e.what()).find(
                    "scenario.work_jitter must be in [0, 1]"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(dsl::parse_scenario_text("[scenario]\n"
                                        "name = \"t\"\n"
                                        "[[sweep.axis]]\n"
                                        "name = \"jitter\"\n"
                                        "path = \"scenario.work_jitter\"\n"
                                        "values = [0.5, 2.0]\n",
                                        "inline.toml"),
               dsl::DslError);

  dsl::ScenarioDoc doc =
      dsl::parse_scenario_text("[scenario]\nname = \"t\"\n", "inline.toml");
  EXPECT_THROW(dsl::apply_override(doc, "scenario.work_jitter=1.01"),
               dsl::ParseError);
  dsl::apply_override(doc, "scenario.work_jitter=1");
  EXPECT_DOUBLE_EQ(doc.work_jitter, 1.0);
  dsl::apply_override(doc, "scenario.work_jitter=0");
  EXPECT_DOUBLE_EQ(doc.work_jitter, 0.0);
}

// --- Sweep expansion --------------------------------------------------------

dsl::ScenarioDoc two_axis_doc() {
  return dsl::parse_scenario_text(
      "[scenario]\n"
      "name = \"t\"\n"
      "[[sweep.axis]]\n"
      "name = \"mtu\"\n"
      "path = \"tcp.mtu\"\n"
      "values = [1500, 3000, 9000]\n"
      "[[sweep.axis]]\n"
      "name = \"cca\"\n"
      "path = \"flow.0.cca\"\n"
      "values = [\"cubic\", \"bbr\"]\n",
      "inline.toml");
}

TEST(Sweep, FirstAxisVariesSlowest) {
  const dsl::ScenarioDoc doc = two_axis_doc();
  const dsl::SweepGrid grid = dsl::expand_sweep(doc);
  ASSERT_EQ(grid.cells.size(), 6u);
  // Row-major: mtu (first axis) outer, cca inner — the legacy grid nesting.
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    EXPECT_EQ(grid.cells[i].index, i);
    ASSERT_EQ(grid.cells[i].choice.size(), 2u);
    EXPECT_EQ(grid.cells[i].choice[0], i / 2);
    EXPECT_EQ(grid.cells[i].choice[1], i % 2);
  }
}

TEST(Sweep, CellBindingsApply) {
  const dsl::ScenarioDoc doc = two_axis_doc();
  const dsl::SweepGrid grid = dsl::expand_sweep(doc);
  const dsl::ScenarioDoc cell = dsl::doc_for_cell(doc, grid.cells[3]);
  // Cell 3: mtu index 1 (3000), cca index 1 (bbr).
  EXPECT_EQ(cell.tcp.mtu_bytes.count(), 3000);
  ASSERT_EQ(cell.flows.size(), 1u);
  EXPECT_EQ(cell.flows[0].cca, "bbr");
}

TEST(Sweep, ZipAxisBindsAllPathsPerStep) {
  const dsl::ScenarioDoc doc = dsl::parse_scenario_text(
      "[scenario]\n"
      "name = \"t\"\n"
      "[[sweep.axis]]\n"
      "name = \"pair\"\n"
      "paths = [\"tcp.mtu\", \"flow.0.cca\"]\n"
      "values = [[1500, \"cubic\"], [9000, \"bbr\"]]\n",
      "inline.toml");
  const dsl::SweepGrid grid = dsl::expand_sweep(doc);
  ASSERT_EQ(grid.cells.size(), 2u);
  const dsl::ScenarioDoc cell = dsl::doc_for_cell(doc, grid.cells[1]);
  EXPECT_EQ(cell.tcp.mtu_bytes.count(), 9000);
  EXPECT_EQ(cell.flows[0].cca, "bbr");
}

TEST(Sweep, OverrideTypesByShape) {
  dsl::ScenarioDoc doc = dsl::parse_scenario_text(
      "[scenario]\nname = \"t\"\n[[flow]]\ncca = \"cubic\"\n",
      "inline.toml");
  dsl::apply_override(doc, "flow.0.bytes=5000000");
  dsl::apply_override(doc, "flow.0.rate_limit=9Gbps");
  dsl::apply_override(doc, "faults.loss=0.001");
  EXPECT_EQ(doc.flows[0].bytes.count(), 5'000'000);
  EXPECT_DOUBLE_EQ(doc.flows[0].rate_limit.bps(), 9e9);
  EXPECT_DOUBLE_EQ(doc.faults.impair.loss_rate, 0.001);
  EXPECT_THROW(dsl::apply_override(doc, "no.such.path=1"), dsl::ParseError);
}

// --- Round-trip property ----------------------------------------------------

// serialize(parse(text)) must re-parse, and the re-parsed document must
// compile every cell to a bit-identical app config (canonical strings
// equal), and re-serialize to the identical canonical text.
void expect_round_trip(const dsl::ScenarioDoc& doc) {
  const std::string canon_text = dsl::serialize_scenario(doc);
  const dsl::ScenarioDoc reparsed =
      dsl::parse_scenario_text(canon_text, doc.source_file + "<roundtrip>");
  EXPECT_EQ(dsl::serialize_scenario(reparsed), canon_text)
      << doc.source_file << ": canonical text not a fixed point";

  const dsl::SweepGrid grid = dsl::expand_sweep(doc);
  const dsl::SweepGrid grid2 = dsl::expand_sweep(reparsed);
  ASSERT_EQ(grid.cells.size(), grid2.cells.size());
  for (const dsl::SweepCell& cell : grid.cells) {
    const dsl::CompiledCell a =
        dsl::compile_scenario(dsl::doc_for_cell(doc, cell));
    const dsl::CompiledCell b =
        dsl::compile_scenario(dsl::doc_for_cell(reparsed, cell));
    ASSERT_EQ(a.is_workload, b.is_workload);
    if (a.is_workload) continue;  // workload configs compared via members
    EXPECT_EQ(app::canonical_string(a.scenario.config(), a.scenario.flows()),
              app::canonical_string(b.scenario.config(), b.scenario.flows()))
        << doc.source_file << ": cell " << cell.index;
  }
}

TEST(RoundTrip, PortedScenarios) {
  expect_round_trip(dsl::load_scenario_file(std::string(GREENCC_SCENARIO_DIR) +
                                            "/cca_grid.toml"));
  expect_round_trip(dsl::load_scenario_file(
      std::string(GREENCC_SCENARIO_DIR) + "/ext_energy_under_loss.toml"));
}

TEST(RoundTrip, PackSamples) {
  const char* files[] = {
      "/pack/incast/incast_cubic.toml",
      "/pack/parking_lot/parking_lot_bbr.toml",
      "/pack/fat_tree/fat_tree_cubic.toml",
      "/pack/mix/mix_bbr_cubic.toml",
      "/pack/fault_events/fault_events_westwood.toml",
      "/pack/aqm/aqm_codel_reno.toml",
      "/pack/calibration/calib_i80_w10.toml",
  };
  for (const char* f : files) {
    expect_round_trip(
        dsl::load_scenario_file(std::string(GREENCC_SCENARIO_DIR) + f));
  }
}

// --- config_canon: canonical form, equality, hash ---------------------------

dsl::CompiledCell compile_text(const std::string& text) {
  return dsl::compile_scenario(dsl::parse_scenario_text(text, "inline.toml"));
}

TEST(ConfigCanon, EqualityIsCanonicalStringEquality) {
  const std::string text =
      "[scenario]\nname = \"t\"\n[[flow]]\ncca = \"cubic\"\n";
  const dsl::CompiledCell a = compile_text(text);
  const dsl::CompiledCell b = compile_text(text);
  EXPECT_TRUE(a.scenario.config() == b.scenario.config());
  EXPECT_EQ(app::config_hash(a.scenario.config(), a.scenario.flows()),
            app::config_hash(b.scenario.config(), b.scenario.flows()));
}

TEST(ConfigCanon, AnyObservableFieldChangesHashAndEquality) {
  const dsl::CompiledCell base = compile_text(
      "[scenario]\nname = \"t\"\n[[flow]]\ncca = \"cubic\"\n");
  struct Variant {
    const char* label;
    const char* extra;
  };
  const Variant variants[] = {
      {"mtu", "[tcp]\nmtu = 4000\n"},
      {"queue", "[topology]\nqueue = \"2MiB\"\n"},
      {"aqm", "[aqm]\nmode = \"step\"\nstep_threshold = \"100kB\"\n"},
      {"loss", "[faults]\ninstall = true\nloss = 0.001\n"},
      {"energy", "[energy]\nidle = 99.0\n"},
      {"flow-cca", "[[flow]]\ncca = \"bbr\"\n"},
  };
  for (const Variant& v : variants) {
    std::string text = "[scenario]\nname = \"t\"\n";
    // Flow sections must come after plain tables for the flow-cca variant.
    if (std::string(v.label) == "flow-cca") {
      text += "[[flow]]\ncca = \"cubic\"\n" + std::string(v.extra);
    } else {
      text += std::string(v.extra) + "[[flow]]\ncca = \"cubic\"\n";
    }
    const dsl::CompiledCell changed = compile_text(text);
    EXPECT_NE(
        app::canonical_string(base.scenario.config(), base.scenario.flows()),
        app::canonical_string(changed.scenario.config(),
                              changed.scenario.flows()))
        << v.label;
    EXPECT_NE(
        app::config_hash(base.scenario.config(), base.scenario.flows()),
        app::config_hash(changed.scenario.config(), changed.scenario.flows()))
        << v.label;
  }
}

TEST(ConfigCanon, FlowSpecEquality) {
  app::FlowSpec a;
  app::FlowSpec b;
  EXPECT_TRUE(a == b);
  b.cca = "bbr";
  EXPECT_TRUE(a != b);
  b = a;
  b.bytes = units::Bytes{123};
  EXPECT_TRUE(a != b);
}

// Tripwire: extending ScenarioConfig or FlowSpec without teaching
// config_canon about the new field must fail here, not silently alias two
// different configs to one hash. Update the expected sizes together with
// canonical_string().
TEST(ConfigCanon, StructGrowthTripwire) {
  // If either assertion fires: a field was added (or removed). Extend
  // app::canonical_string() to cover it, then update the pinned size.
  EXPECT_EQ(sizeof(app::FlowSpec), 80u)
      << "FlowSpec changed: extend config_canon and re-pin";
  EXPECT_EQ(sizeof(app::ScenarioConfig), 552u)
      << "ScenarioConfig changed: extend config_canon and re-pin";
}

}  // namespace
