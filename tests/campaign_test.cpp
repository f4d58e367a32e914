// Corner-crossed characterization campaigns: spec parsing and
// validation, deterministic corner transforms, chunk accounting, and
// the headline invariant -- fresh, killed-and-resumed, and sharded
// campaigns of the same spec emit byte-identical tables.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/technology.hpp"
#include "sizing/campaign.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mtcmos {
namespace {

using sizing::build_campaign_circuit;
using sizing::CampaignCorner;
using sizing::CampaignDriver;
using sizing::CampaignSpec;
using sizing::campaign_nominal_tech;
using sizing::CampaignStats;
using sizing::corner_technology;

const char* kTinySpec = R"({
  "circuit": "builtin:adder1",
  "target_pct": 10.0,
  "wl_grid": [10, 80],
  "corners": [
    { "name": "nominal" },
    { "name": "slow", "vdd_scale": 0.95, "vt_high_shift": 0.05, "temp": 358.15 }
  ],
  "chunk": 4
})";

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("campaign_test." +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string subdir(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::string table_of(CampaignDriver& driver) {
  std::ostringstream os;
  driver.write_table(os);
  return os.str();
}

// --- Spec parsing -----------------------------------------------------

TEST(CampaignSpecParse, ParsesTheFullShape) {
  const CampaignSpec spec = CampaignSpec::parse(kTinySpec);
  EXPECT_EQ(spec.circuit, "builtin:adder1");
  EXPECT_EQ(spec.backend, "vbs");
  EXPECT_EQ(spec.target_pct, 10.0);
  ASSERT_EQ(spec.wl_grid.size(), 2u);
  ASSERT_EQ(spec.corners.size(), 2u);
  EXPECT_EQ(spec.corners[1].name, "slow");
  EXPECT_EQ(spec.corners[1].vdd_scale, 0.95);
  EXPECT_EQ(spec.corners[1].temp, 358.15);
  EXPECT_EQ(spec.vector_mode, CampaignSpec::VectorMode::kExhaustive);
  EXPECT_EQ(spec.chunk, 4u);
}

TEST(CampaignSpecParse, DefaultsCornersToNominal) {
  const auto spec = CampaignSpec::parse(R"({"circuit": "x.mtn", "wl_grid": [10]})");
  ASSERT_EQ(spec.corners.size(), 1u);
  EXPECT_EQ(spec.corners[0].name, "nominal");
  EXPECT_EQ(spec.corners[0].vdd_scale, 1.0);
}

TEST(CampaignSpecParse, RejectsUnknownKeysAtEveryLevel) {
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "wl_grid": [1], "typo": 1})"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse(
                   R"({"circuit": "x", "wl_grid": [1], "corners": [{"name": "a", "vt": 1}]})"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse(
                   R"({"circuit": "x", "wl_grid": [1], "vectors": {"mode": "exhaustive", "n": 2}})"),
               std::invalid_argument);
}

TEST(CampaignSpecParse, RejectsSemanticErrors) {
  // Missing circuit.
  EXPECT_THROW(CampaignSpec::parse(R"({"wl_grid": [1]})"), std::runtime_error);
  // Unknown backend.
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "wl_grid": [1], "backend": "hspice"})"),
               std::invalid_argument);
  // Non-ascending / non-positive W/L grid.
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "wl_grid": [10, 10]})"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "wl_grid": [-1, 10]})"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "wl_grid": []})"), std::invalid_argument);
  // Duplicate corner names.
  EXPECT_THROW(CampaignSpec::parse(
                   R"({"circuit": "x", "wl_grid": [1],
                       "corners": [{"name": "a"}, {"name": "a"}]})"),
               std::invalid_argument);
  // Sampled mode without a count.
  EXPECT_THROW(
      CampaignSpec::parse(R"({"circuit": "x", "wl_grid": [1], "vectors": {"mode": "sampled"}})"),
      std::invalid_argument);
  // Fractional chunk.
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "wl_grid": [1], "chunk": 2.5})"),
               std::invalid_argument);
}

// Integer fields are range-checked before their cast: an out-of-range
// count, seed or chunk is a spec error, never undefined behaviour.
TEST(CampaignSpecParse, RejectsOutOfRangeIntegers) {
  const auto sampled = [](const std::string& fields) {
    return R"({"circuit": "x", "wl_grid": [1], "vectors": {"mode": "sampled", )" + fields +
           "}}";
  };
  EXPECT_THROW(CampaignSpec::parse(sampled(R"("count": 1e10)")), std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse(sampled(R"("count": 4, "seed": -1)")),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse(sampled(R"("count": 4, "seed": 1e300)")),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "wl_grid": [1], "chunk": 1e300})"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "wl_grid": [1], "chunk": 1e999})"),
               std::runtime_error);  // overflows the double itself
  const auto spec = CampaignSpec::parse(sampled(R"("count": 4, "seed": 18446744073709549568)"));
  EXPECT_EQ(spec.seed, 18446744073709549568ull);  // the largest double below 2^64
}

TEST(CampaignSpecParse, MalformedJsonReportsPosition) {
  try {
    CampaignSpec::parse("{\n  \"circuit\": oops\n}");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(CampaignSpecParse, RejectsDuplicateJsonKeys) {
  EXPECT_THROW(CampaignSpec::parse(R"({"circuit": "x", "circuit": "y", "wl_grid": [1]})"),
               std::runtime_error);
}

TEST(CampaignSpecParse, CanonicalCapturesEveryField) {
  const auto a = CampaignSpec::parse(kTinySpec);
  auto b = a;
  EXPECT_EQ(a.canonical(), b.canonical());
  b.corners[1].temp += 1.0;
  EXPECT_NE(a.canonical(), b.canonical());
  auto c = a;
  c.chunk = 8;
  EXPECT_NE(a.canonical(), c.canonical());
}

// --- Corner transforms ------------------------------------------------

TEST(CornerTechnology, AppliesShiftsScalesAndTemperature) {
  const Technology nominal = tech07();
  CampaignCorner corner;
  corner.name = "slow";
  corner.vdd_scale = 0.9;
  corner.vt_low_shift = 0.03;
  corner.vt_high_shift = 0.06;
  corner.kp_scale = 0.95;
  corner.temp = 398.15;
  const Technology t = corner_technology(nominal, corner);
  EXPECT_DOUBLE_EQ(t.vdd, nominal.vdd * 0.9);
  EXPECT_DOUBLE_EQ(t.nmos_low.vt0, nominal.nmos_low.vt0 + 0.03);
  EXPECT_DOUBLE_EQ(t.nmos_high.vt0, nominal.nmos_high.vt0 + 0.06);
  EXPECT_DOUBLE_EQ(t.nmos_low.kp, nominal.nmos_low.kp * 0.95);
  EXPECT_DOUBLE_EQ(t.pmos_high.kp, nominal.pmos_high.kp * 0.95);
  EXPECT_DOUBLE_EQ(t.nmos_low.temp, 398.15);
  EXPECT_DOUBLE_EQ(t.pmos_high.temp, 398.15);
}

TEST(CornerTechnology, NominalCornerIsIdentity) {
  const Technology nominal = tech07();
  const Technology t = corner_technology(nominal, {"nominal"});
  EXPECT_DOUBLE_EQ(t.vdd, nominal.vdd);
  EXPECT_DOUBLE_EQ(t.nmos_low.vt0, nominal.nmos_low.vt0);
  EXPECT_DOUBLE_EQ(t.nmos_low.temp, nominal.nmos_low.temp);
}

TEST(CornerTechnology, ClampsMirrorTheVariationSampler) {
  const Technology nominal = tech07();
  CampaignCorner corner;
  corner.name = "deep";
  corner.vt_low_shift = -10.0;  // clamps at 0.01
  corner.kp_scale = 0.6;        // multiplier clamps at... 0.6 is fine; 0.2 clamps to 0.5
  Technology t = corner_technology(nominal, corner);
  EXPECT_DOUBLE_EQ(t.nmos_low.vt0, 0.01);
  corner.vt_low_shift = 0.0;
  corner.kp_scale = 0.2;
  t = corner_technology(nominal, corner);
  EXPECT_DOUBLE_EQ(t.nmos_low.kp, nominal.nmos_low.kp * 0.5);
}

TEST(CornerTechnology, GuardsVddHeadroomAndPreconditions) {
  const Technology nominal = tech07();
  CampaignCorner corner;
  corner.name = "collapse";
  corner.vdd_scale = 0.5;      // 0.6 V Vdd vs 0.75 V Vt,high
  EXPECT_THROW(corner_technology(nominal, corner), std::invalid_argument);
  corner.vdd_scale = -1.0;
  EXPECT_THROW(corner_technology(nominal, corner), std::invalid_argument);
  corner.vdd_scale = 1.0;
  corner.temp = -5.0;
  EXPECT_THROW(corner_technology(nominal, corner), std::invalid_argument);
}

// --- Circuit instantiation --------------------------------------------

TEST(CampaignCircuit, BuiltinsPickTheirPaperProcess) {
  EXPECT_DOUBLE_EQ(campaign_nominal_tech("builtin:adder2").vdd, tech07().vdd);
  EXPECT_DOUBLE_EQ(campaign_nominal_tech("builtin:mult2").vdd, tech03().vdd);
  EXPECT_DOUBLE_EQ(campaign_nominal_tech("builtin:wallace2").vdd, tech03().vdd);
  EXPECT_THROW(campaign_nominal_tech("builtin:rom4"), std::invalid_argument);
}

TEST(CampaignCircuit, MultiplierBuiltinsNameTheirProductBits) {
  // Regression: the multiplier branches once read output names from a
  // netlist that had already been moved into the return value.
  for (const char* name : {"builtin:mult2", "builtin:mult3", "builtin:wallace2"}) {
    const auto c = build_campaign_circuit(name, nullptr);
    ASSERT_FALSE(c.outputs.empty()) << name;
    for (const auto& out : c.outputs) {
      EXPECT_TRUE(c.nl.find_net(out).has_value()) << name << " output " << out;
    }
  }
}

TEST(CampaignCircuit, CornerRebindPreservesStructure) {
  const auto nominal = build_campaign_circuit("builtin:adder2", nullptr);
  CampaignCorner corner;
  corner.name = "slow";
  corner.vdd_scale = 0.95;
  const Technology t = corner_technology(tech07(), corner);
  const auto shifted = build_campaign_circuit("builtin:adder2", &t);
  EXPECT_DOUBLE_EQ(shifted.nl.tech().vdd, t.vdd);
  ASSERT_EQ(shifted.nl.inputs().size(), nominal.nl.inputs().size());
  for (std::size_t i = 0; i < nominal.nl.inputs().size(); ++i) {
    EXPECT_EQ(shifted.nl.net_name(shifted.nl.inputs()[i]),
              nominal.nl.net_name(nominal.nl.inputs()[i]));
  }
  EXPECT_EQ(shifted.outputs, nominal.outputs);
  EXPECT_EQ(shifted.nl.gate_count(), nominal.nl.gate_count());
}

TEST_F(CampaignTest, MtnFileRebindsPreservingInputOrderAndLoads) {
  const std::string mtn = (dir_ / "blk.mtn").string();
  {
    std::ofstream os(mtn);
    os << "tech paper-0.7um\n"
          "input b a\n"  // deliberately not alphabetical: order must survive
          "nand2 g1 a b\n"
          "inv g2 g1.out\n"
          "load g2.out 50f\n"
          "output g2.out\n";
  }
  const auto nominal = build_campaign_circuit(mtn, nullptr);
  CampaignCorner corner;
  corner.name = "slow";
  corner.vdd_scale = 0.9;
  const Technology t = corner_technology(nominal.nl.tech(), corner);
  const auto shifted = build_campaign_circuit(mtn, &t);

  EXPECT_DOUBLE_EQ(shifted.nl.tech().vdd, nominal.nl.tech().vdd * 0.9);
  ASSERT_EQ(shifted.nl.inputs().size(), 2u);
  EXPECT_EQ(shifted.nl.net_name(shifted.nl.inputs()[0]), "b");
  EXPECT_EQ(shifted.nl.net_name(shifted.nl.inputs()[1]), "a");
  EXPECT_EQ(shifted.outputs, nominal.outputs);
  const auto loaded = shifted.nl.find_net("g2.out");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(shifted.nl.extra_load(*loaded), 50e-15);
  // Net ids line up one-to-one, so checkpoint keys and vector bit
  // semantics are shared across corners.
  ASSERT_EQ(shifted.nl.net_count(), nominal.nl.net_count());
  for (netlist::NetId id = 0; id < nominal.nl.net_count(); ++id) {
    EXPECT_EQ(shifted.nl.net_name(id), nominal.nl.net_name(id));
  }
}

// --- Driver orchestration ---------------------------------------------

TEST_F(CampaignTest, FreshRunCompletesAndAccountsChunks) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  CampaignDriver driver(spec, subdir("fresh"), false);
  EXPECT_EQ(driver.n_vectors(), 16u);  // adder1: 2 inputs, 16 transitions
  EXPECT_EQ(driver.n_chunks(), 16u);   // 4 chunks/sweep x 2 W/L x 2 corners
  EXPECT_THROW(driver.write_table(std::cout), std::runtime_error);  // not complete yet

  const CampaignStats stats = driver.run();
  EXPECT_TRUE(stats.complete);
  EXPECT_FALSE(stats.cancelled);
  EXPECT_EQ(stats.chunks_replayed, 0u);
  EXPECT_EQ(stats.chunks_run, 16u);
  EXPECT_EQ(stats.chunks_poisoned, 0u);
  EXPECT_EQ(stats.rows_emitted, 16u * 4u);  // every (corner, wl) emits all 16
  EXPECT_TRUE(driver.complete());
}

TEST_F(CampaignTest, FreshDriverOnAUsedDirectoryThrows) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  {
    CampaignDriver driver(spec, subdir("used"), false);
    driver.run();
  }
  EXPECT_THROW(CampaignDriver(spec, subdir("used"), false), std::invalid_argument);
}

TEST_F(CampaignTest, ResumeWithAnEditedSpecIsRejected) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  {
    CampaignDriver driver(spec, subdir("guard"), false);
    driver.run();
  }
  auto edited = spec;
  edited.target_pct = 7.5;
  EXPECT_THROW(CampaignDriver(edited, subdir("guard"), true), NumericalError);
}

TEST_F(CampaignTest, ResumedAndShardedRunsEmitByteIdenticalTables) {
  const auto spec = CampaignSpec::parse(kTinySpec);

  CampaignDriver fresh(spec, subdir("fresh"), false);
  fresh.run();
  const std::string reference = table_of(fresh);
  EXPECT_NE(reference.find("\"format\": \"mtcmos-campaign-table-1\""), std::string::npos);
  EXPECT_NE(reference.find("\"name\": \"slow\""), std::string::npos);

  // Interrupted run: a parallel thread raises the cancel token almost
  // immediately, so some prefix of the chunks completes.  However many
  // that was, the resumed run must converge to the same table bytes.
  {
    util::CancelToken token;
    CampaignDriver interrupted(spec, subdir("resumed"), false);
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      token.request();
    });
    const CampaignStats stats = interrupted.run(1, nullptr, &token);
    canceller.join();
    EXPECT_EQ(stats.chunks_replayed + stats.chunks_run, interrupted.chunks_done());
  }
  CampaignDriver resumed(spec, subdir("resumed"), true);
  const CampaignStats rstats = resumed.run();
  EXPECT_TRUE(rstats.complete);
  EXPECT_EQ(table_of(resumed), reference);

  // Sharded run: two supervised worker processes, shard journals and
  // shard columnar stores merged back.
  CampaignDriver sharded(spec, subdir("sharded"), false);
  const CampaignStats sstats = sharded.run(2);
  EXPECT_TRUE(sstats.complete);
  EXPECT_EQ(sstats.chunks_poisoned, 0u);
  EXPECT_GE(sstats.supervisor.workers_spawned, 2);
  EXPECT_EQ(table_of(sharded), reference);

  // And a resumed handle over the finished sharded directory replays
  // everything without running a single chunk.
  CampaignDriver replayed(spec, subdir("sharded"), true);
  const CampaignStats pstats = replayed.run();
  EXPECT_EQ(pstats.chunks_run, 0u);
  EXPECT_EQ(pstats.chunks_replayed, replayed.n_chunks());
  EXPECT_EQ(table_of(replayed), reference);
}

// Rows stream into a chunk's block while its pass computes, so a pass
// that throws after emitting some rows leaves them buffered.  The driver
// must drop them: flushed under the chunk's tag (the writer flushes on
// close), they would win first-block-wins over the resumed re-run.
TEST_F(CampaignTest, ChunkThatThrowsMidStreamLeavesNoPartialBlock) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  CampaignDriver fresh(spec, subdir("fresh"), false);
  fresh.run();
  const std::string reference = table_of(fresh);

  {
    // The first chunk spills rows 0 and 1, then its third append throws.
    faultinject::arm(faultinject::Site::kColumnarAppend, 2, 1);
    CampaignDriver failing(spec, subdir("failed"), false);
    try {
      failing.run();
      ADD_FAILURE() << "the injected append failure did not propagate";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInjected);
    }
    faultinject::disarm_all();
    EXPECT_EQ(failing.chunks_done(), 0u);
  }
  CampaignDriver resumed(spec, subdir("failed"), true);
  EXPECT_TRUE(resumed.run().complete);
  EXPECT_EQ(table_of(resumed), reference);
}

TEST_F(CampaignTest, SampledVectorModeIsDeterministic) {
  const auto spec = CampaignSpec::parse(R"({
    "circuit": "builtin:adder2",
    "wl_grid": [20],
    "vectors": { "mode": "sampled", "count": 24, "seed": 9 },
    "chunk": 8
  })");
  CampaignDriver a(spec, subdir("a"), false);
  a.run();
  CampaignDriver b(spec, subdir("b"), false);
  b.run();
  EXPECT_EQ(a.n_vectors(), 24u);
  EXPECT_EQ(table_of(a), table_of(b));
}

TEST_F(CampaignTest, TableContainsSizingAndCornerPhysics) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  CampaignDriver driver(spec, subdir("t"), false);
  driver.run();
  const std::string table = table_of(driver);
  // Each corner reports its shifted physics and a W/L curve with a
  // sizing verdict against target_pct.
  EXPECT_NE(table.find("\"vt_high\": 0.8"), std::string::npos);   // 0.75 + 0.05
  EXPECT_NE(table.find("\"temp\": 358.15"), std::string::npos);
  EXPECT_NE(table.find("\"wl_curve\""), std::string::npos);
  EXPECT_NE(table.find("\"sizing\""), std::string::npos);
  EXPECT_NE(table.find("\"worst_vector\""), std::string::npos);
  EXPECT_NE(table.find("\"histogram_pct\""), std::string::npos);
}

}  // namespace
}  // namespace mtcmos
