// Corner-crossed characterization campaigns: spec parsing and
// validation, deterministic corner transforms, chunk accounting, the
// netlist guard, and what an interrupted or failing chunk leaves behind.
// The headline invariant -- fresh, pipelined on any pool, cancelled and
// resumed, and sharded campaigns of one (sampled-vector) spec emit
// byte-identical tables and stores -- is the campaign row of the contract
// matrix (contract_test.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/technology.hpp"
#include "sizing/campaign.hpp"
#include "util/cancel.hpp"
#include "util/columnar.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/journal.hpp"
#include "util/thread_pool.hpp"
#include "scratch_dir.hpp"

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
    dir_ = test::scratch_dir("campaign_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string subdir(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

// Every in-process run in this file uses a pool of its own, joined
// before the run returns, and never the global pool: no pool thread then
// outlives a run, so the sharded legs fork a single-threaded process
// even when the whole binary runs as one process (TSan cannot follow a
// fork from a threaded process).
CampaignStats run_in_process(CampaignDriver& driver) {
  util::ThreadPool pool;
  return driver.run(1, nullptr, nullptr, &pool);
}

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

TEST(CampaignCircuit, BuiltinRangesAreCheckedByBothLookups) {
  for (const char* name : {"builtin:adder0", "builtin:adder5", "builtin:mult1", "builtin:wallace5",
                           "builtin:adder99999999999", "builtin:adder", "builtin:nosuch9"}) {
    EXPECT_THROW(campaign_nominal_tech(name), std::invalid_argument) << name;
    EXPECT_THROW(build_campaign_circuit(name, nullptr), std::invalid_argument) << name;
  }
}

TEST(CampaignCircuit, BuiltinFingerprintsArePinned) {
  // The fingerprint is part of every checkpoint key prefix: if a builtin
  // generates a different netlist or output list, no existing journal of
  // it replays.
  const std::map<std::string, std::uint64_t> pinned = {
      {"builtin:adder1", 0x5e666ab2ff37e869ull},   {"builtin:adder2", 0xaef938c0190e8782ull},
      {"builtin:adder3", 0xc20ab7248a7fa7ddull},   {"builtin:adder4", 0x1286a703a674e18aull},
      {"builtin:mult2", 0x5a72cc0a53954b00ull},    {"builtin:mult3", 0x942fcf10089248bfull},
      {"builtin:mult4", 0x6c4dbf28b76a0e03ull},    {"builtin:wallace2", 0x017dec6e01e42934ull},
      {"builtin:wallace3", 0x918bc9aebb804b49ull}, {"builtin:wallace4", 0x156c53810bcdcfc6ull},
  };
  for (const auto& [name, fp] : pinned) {
    const auto c = build_campaign_circuit(name, nullptr);
    EXPECT_EQ(sizing::netlist_fingerprint(c.nl, c.outputs), fp) << name;
  }
}

TEST(CampaignCircuit, EvaluatorBuildsTheNamedBackend) {
  const sizing::Evaluator vbs(build_campaign_circuit("builtin:adder1", nullptr), "vbs");
  EXPECT_STREQ(vbs.backend().name(), "vbs");
  EXPECT_EQ(&vbs.backend().netlist(), &vbs.circuit().nl);
  EXPECT_EQ(vbs.backend().outputs(), vbs.circuit().outputs);
  const sizing::Evaluator spice(build_campaign_circuit("builtin:adder1", nullptr), "spice");
  EXPECT_STREQ(spice.backend().name(), "spice");
  EXPECT_THROW(sizing::Evaluator(build_campaign_circuit("builtin:adder1", nullptr), "hspice"),
               std::invalid_argument);
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

  const CampaignStats stats = run_in_process(driver);
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
    run_in_process(driver);
  }
  EXPECT_THROW(CampaignDriver(spec, subdir("used"), false), std::invalid_argument);
}

TEST_F(CampaignTest, ResumeWithAnEditedSpecIsRejected) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  {
    CampaignDriver driver(spec, subdir("guard"), false);
    run_in_process(driver);
  }
  auto edited = spec;
  edited.target_pct = 7.5;
  EXPECT_THROW(CampaignDriver(edited, subdir("guard"), true), NumericalError);
}

// Rows stream into a chunk's block while its pass computes, so a pass
// that throws after emitting some rows leaves them buffered.  The driver
// must drop them: flushed under the chunk's tag (the writer flushes on
// close), they would win first-block-wins over the resumed re-run.
TEST_F(CampaignTest, ChunkThatThrowsMidStreamLeavesNoPartialBlock) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  CampaignDriver fresh(spec, subdir("fresh"), false);
  run_in_process(fresh);
  const std::string reference = table_of(fresh);

  {
    // The first chunk spills rows 0 and 1, then its third append throws.
    faultinject::arm(faultinject::Site::kColumnarAppend, 2, 1);
    CampaignDriver failing(spec, subdir("failed"), false);
    try {
      run_in_process(failing);
      ADD_FAILURE() << "the injected append failure did not propagate";
    } catch (const NumericalError& e) {
      EXPECT_EQ(e.info().code, FailureCode::kInjected);
    }
    faultinject::disarm_all();
    EXPECT_EQ(failing.chunks_done(), 0u);
  }
  CampaignDriver resumed(spec, subdir("failed"), true);
  EXPECT_TRUE(run_in_process(resumed).complete);
  EXPECT_EQ(table_of(resumed), reference);
}

TEST_F(CampaignTest, TableContainsSizingAndCornerPhysics) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  CampaignDriver driver(spec, subdir("t"), false);
  run_in_process(driver);
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

// --- The pipelined in-process run ---------------------------------------
//
// In-process, every remaining chunk is one pass of a single pool job, so
// chunk k + 1 computes while chunk k commits.  Blocks and records must
// still commit in chunk order, and a run must stop at the first chunk it
// interrupts.

// adder3 (4096 transitions) cut into 600-row chunks: 7 chunks per sweep,
// 28 in all, each several pool tasks long and the last one shorter.
const char* kPipelineSpec = R"({
  "circuit": "builtin:adder3",
  "target_pct": 10.0,
  "wl_grid": [10, 80],
  "corners": [
    { "name": "nominal" },
    { "name": "slow", "vdd_scale": 0.95, "vt_high_shift": 0.05, "temp": 358.15 }
  ],
  "chunk": 600
})";

/// The tags of a store's blocks, in tag order; every tag must have one.
std::vector<std::uint64_t> block_tags(const std::string& path) {
  std::map<std::uint64_t, int> blocks;
  util::scan_columnar_file(
      path, [](const util::ColumnarRow&) {}, [&](std::uint64_t tag) { return ++blocks[tag] == 1; });
  std::vector<std::uint64_t> tags;
  for (const auto& [tag, n] : blocks) {
    tags.push_back(tag);
    EXPECT_EQ(n, 1) << "tag " << tag << " has " << n << " blocks";
  }
  return tags;
}

std::vector<std::uint64_t> first_tags(std::size_t k) {
  std::vector<std::uint64_t> tags(k);
  for (std::size_t c = 0; c < k; ++c) tags[c] = c;
  return tags;
}

/// Chunk ids journaled in `driver`'s campaign.
std::vector<std::uint64_t> journaled_chunks(CampaignDriver& driver) {
  std::vector<std::uint64_t> out;
  for (std::size_t c = 0; c < driver.n_chunks(); ++c) {
    if (driver.checkpoint().journal().contains("chunk:" + std::to_string(c))) out.push_back(c);
  }
  return out;
}

/// Lay out in `to` what a run stopped after its first `k` chunks leaves
/// behind, copied from the completed campaign in `from`: the meta records
/// and chunk records 0..k-1, and those chunks' blocks.  Without
/// `netlist_record` the journal is one written before the netlist was
/// bound.
void copy_prefix(const std::filesystem::path& from, const std::filesystem::path& to,
                 std::size_t k, std::size_t rows_per_block, bool netlist_record) {
  std::filesystem::create_directories(to);
  util::Journal source;
  source.open((from / "campaign.mtj").string());
  util::Journal journal;
  journal.open((to / "campaign.mtj").string());
  source.for_each_text([&](const std::string& key, const std::string& value) {
    const bool chunk = key.rfind("chunk:", 0) == 0;
    if (chunk && std::stoul(key.substr(6)) >= k) return;
    if (key == "meta:campaign-netlist" && !netlist_record) return;
    journal.append(key, value);
  });
  journal.close();
  util::ColumnarWriter store;
  util::ColumnarOptions options;
  options.rows_per_block = rows_per_block;
  store.open((to / "campaign.mtc").string(), options);
  util::scan_columnar_file((from / "campaign.mtc").string(), [&](const util::ColumnarRow& row) {
    if (row.tag >= k) return;
    store.set_tag(row.tag);
    store.append(std::string(row.key), row.values, row.n_cols);
  });
  store.close();
}

TEST_F(CampaignTest, CancelAfterACommittedChunkLeavesAJournaledPrefix) {
  const auto spec = CampaignSpec::parse(kPipelineSpec);
  std::string reference;
  {
    CampaignDriver fresh(spec, subdir("fresh"), false);
    run_in_process(fresh);
    reference = table_of(fresh);
  }
  constexpr std::size_t kCommitted = 2;
  for (const int threads : {1, 2, 4}) {
    const std::string dir = subdir("cancelled" + std::to_string(threads));
    util::ThreadPool pool(threads);
    {
      // The watcher raises the token once chunk kCommitted - 1 is
      // journaled; however many chunks commit before the run sees it,
      // the journal must hold a prefix of them, each with its block.
      util::CancelToken token;
      CampaignDriver driver(spec, dir, false);
      std::thread watcher([&] {
        while (driver.chunks_done() < kCommitted) std::this_thread::yield();
        token.request();
      });
      driver.run(1, nullptr, &token, &pool);
      watcher.join();
      const std::vector<std::uint64_t> journaled = journaled_chunks(driver);
      ASSERT_GE(journaled.size(), kCommitted) << threads << " threads";
      EXPECT_EQ(journaled, first_tags(journaled.size())) << threads << " threads";
      EXPECT_EQ(block_tags(driver.store_path()), journaled) << threads << " threads";
    }
    CampaignDriver resumed(spec, dir, true);
    EXPECT_TRUE(resumed.run(1, nullptr, nullptr, &pool).complete) << threads << " threads";
    EXPECT_EQ(table_of(resumed), reference) << threads << " threads";
  }
}

TEST_F(CampaignTest, AppendFaultInALaterChunkLeavesNoBlockOrRecordFromIt) {
  const auto spec = CampaignSpec::parse(kPipelineSpec);
  std::string reference;
  {
    CampaignDriver fresh(spec, subdir("fresh"), false);
    run_in_process(fresh);
    reference = table_of(fresh);
  }
  constexpr std::size_t kFailing = 5;
  for (const int threads : {1, 2, 4}) {
    // Chunks 0..kFailing-1 are done, so the run's first block is chunk
    // kFailing's: its third append fails while the chunks behind it
    // compute.
    const std::filesystem::path dir = dir_ / ("failed" + std::to_string(threads));
    copy_prefix(dir_ / "fresh", dir, kFailing, spec.chunk, true);
    util::ThreadPool pool(threads);
    {
      CampaignDriver failing(spec, dir.string(), true);
      faultinject::arm(faultinject::Site::kColumnarAppend, 2, 1);
      try {
        failing.run(1, nullptr, nullptr, &pool);
        ADD_FAILURE() << "the injected append failure did not propagate";
      } catch (const NumericalError& e) {
        EXPECT_EQ(e.info().code, FailureCode::kInjected);
      }
      faultinject::disarm_all();
      EXPECT_EQ(journaled_chunks(failing), first_tags(kFailing)) << threads << " threads";
    }
    // Read after the driver closed its writer: nothing buffered may land.
    EXPECT_EQ(block_tags((dir / "campaign.mtc").string()), first_tags(kFailing))
        << threads << " threads";
    CampaignDriver resumed(spec, dir.string(), true);
    EXPECT_TRUE(resumed.run(1, nullptr, nullptr, &pool).complete) << threads << " threads";
    EXPECT_EQ(table_of(resumed), reference) << threads << " threads";
  }
}

// --- The netlist guard ----------------------------------------------------

void write_mtn(const std::string& path, const std::string& body) {
  std::ofstream os(path);
  os << "tech paper-0.7um\n" << body;
}

std::string mtn_spec(const std::string& mtn) {
  return R"({"circuit": ")" + mtn + R"(", "wl_grid": [10, 40], "chunk": 4})";
}

TEST_F(CampaignTest, ResumeOverAnEditedNetlistIsRefused) {
  const std::string mtn = (dir_ / "blk.mtn").string();
  write_mtn(mtn, "input a b\nnand2 g1 a b\ninv g2 g1.out\noutput g2.out\n");
  const auto spec = CampaignSpec::parse(mtn_spec(mtn));
  {
    CampaignDriver driver(spec, subdir("guard"), false);
    ASSERT_TRUE(run_in_process(driver).complete);
  }
  // Same path, same spec, another circuit: the resume must not finish
  // (or report as finished) a campaign over different rows.
  write_mtn(mtn, "input a b\nnor2 g1 a b\nload g1.out 500f\noutput g1.out\n");
  try {
    CampaignDriver resumed(spec, subdir("guard"), true);
    ADD_FAILURE() << "a resume over an edited netlist was accepted";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info().code, FailureCode::kInvalidArgument);
  }
}

TEST_F(CampaignTest, TableDescribesTheNetlistTheDriverBound) {
  const std::string mtn = (dir_ / "blk.mtn").string();
  write_mtn(mtn, "input a b\nnand2 g1 a b\ninv g2 g1.out\noutput g2.out\n");
  const auto spec = CampaignSpec::parse(mtn_spec(mtn));
  CampaignDriver driver(spec, subdir("t"), false);
  ASSERT_TRUE(run_in_process(driver).complete);
  const std::string table = table_of(driver);
  EXPECT_NE(table.find("\"vdd\": 1.2,"), std::string::npos);
  // An edit after the run changes neither the rows nor the corner
  // physics the table reports.
  {
    std::ofstream os(mtn);
    os << "tech paper-0.3um\ninput a b\nnand2 g1 a b\ninv g2 g1.out\noutput g2.out\n";
  }
  EXPECT_EQ(table_of(driver), table);
}

TEST_F(CampaignTest, JournalWithoutTheNetlistRecordResumesByteIdentically) {
  const std::string mtn = (dir_ / "blk.mtn").string();
  write_mtn(mtn, "input b a\nnand2 g1 a b\ninv g2 g1.out\nload g2.out 50f\noutput g2.out\n");
  const auto spec = CampaignSpec::parse(mtn_spec(mtn));
  std::string reference;
  {
    CampaignDriver fresh(spec, subdir("fresh"), false);
    ASSERT_TRUE(run_in_process(fresh).complete);
    reference = table_of(fresh);
    ASSERT_TRUE(fresh.checkpoint().journal().contains("meta:campaign-netlist"));
  }
  copy_prefix(dir_ / "fresh", dir_ / "older", 3, spec.chunk, false);
  {
    CampaignDriver resumed(spec, subdir("older"), true);
    EXPECT_EQ(resumed.chunks_done(), 3u);
    EXPECT_TRUE(run_in_process(resumed).complete);
    EXPECT_EQ(table_of(resumed), reference);
  }
  // The resume bound the netlist: an edit is refused from now on.
  write_mtn(mtn, "input b a\nnor2 g1 a b\noutput g1.out\n");
  EXPECT_THROW(CampaignDriver(spec, subdir("older"), true), NumericalError);
}

/// Every row of a store as "key value value ...", by chunk tag, first
/// block per tag winning as in write_table().
std::map<std::uint64_t, std::vector<std::string>> rows_by_chunk(const std::string& path) {
  std::map<std::uint64_t, std::vector<std::string>> out;
  std::map<std::uint64_t, int> blocks;
  util::scan_columnar_file(
      path,
      [&](const util::ColumnarRow& row) {
        std::ostringstream line;
        line << row.key << std::hexfloat;
        for (std::size_t c = 0; c < row.n_cols; ++c) line << ' ' << row.values[c];
        out[row.tag].push_back(line.str());
      },
      [&](std::uint64_t tag) { return ++blocks[tag] == 1; });
  return out;
}

// Two chunks of each shard kill their worker at generations 0 and 1, so
// both slots spend every restart on them and no slot finishes its shard
// cleanly.  The run still completes in one call: the killers are
// quarantined, and the in-process pass finishes the chunks the workers
// left, as a resume would.
TEST_F(CampaignTest, ShardedRunWhoseSlotsExhaustTheirRestartsCompletesInProcess) {
  const auto spec = CampaignSpec::parse(kTinySpec);
  const int shards = 2;
  CampaignDriver sharded(spec, subdir("sharded"), false);
  std::vector<std::uint64_t> killers;
  for (const auto& [begin, end] : sizing::plan_shards(sharded.n_chunks(), shards)) {
    for (const std::size_t chunk : {begin, begin + 1}) {
      killers.push_back(chunk);
      for (const int generation : {0, 1}) {
        faultinject::arm_generation(faultinject::Site::kWorkerKill,
                                    static_cast<std::int64_t>(chunk), generation, 1);
      }
    }
  }
  // A 1-thread pool spawns no thread, so the run forks a single-threaded
  // process; the kill plans fire only in workers.
  util::ThreadPool serial(1);
  const CampaignStats stats = sharded.run(shards, nullptr, nullptr, &serial);
  faultinject::disarm_all();
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.chunks_poisoned, 4u);
  EXPECT_EQ(stats.chunks_run, sharded.n_chunks());
  EXPECT_EQ(stats.supervisor.workers_spawned, shards * (1 + sizing::kMaxRestarts));
  EXPECT_EQ(stats.supervisor.quarantined, 4u);
  EXPECT_EQ(stats.supervisor.abandoned, sharded.n_chunks() - 4);
  EXPECT_EQ(stats.rows_emitted, (sharded.n_chunks() - 4) * 4);  // 4 vectors per chunk

  CampaignDriver fresh(spec, subdir("fresh"), false);
  run_in_process(fresh);
  const auto want = rows_by_chunk(fresh.store_path());
  const auto got = rows_by_chunk(sharded.store_path());
  for (std::uint64_t c = 0; c < sharded.n_chunks(); ++c) {
    const bool killer = std::find(killers.begin(), killers.end(), c) != killers.end();
    EXPECT_EQ(got.count(c), killer ? 0u : 1u) << "chunk " << c;
    if (!killer && got.count(c) != 0) {
      EXPECT_EQ(got.at(c), want.at(c)) << "chunk " << c;
    }
  }
}

}  // namespace
}  // namespace mtcmos
