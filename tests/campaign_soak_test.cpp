// Campaign crash/resume soak: a mid-size corner-crossed campaign is
// interrupted at randomized points over and over until it completes,
// then re-run sharded -- every path must converge to a characterization
// table byte-identical to the uninterrupted reference.  Registered under
// the `soak` ctest configuration (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "sizing/campaign.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

using sizing::CampaignDriver;
using sizing::CampaignSpec;
using sizing::CampaignStats;

const char* kSoakSpec = R"({
  "circuit": "builtin:mult3",
  "target_pct": 8.0,
  "wl_grid": [15, 60],
  "corners": [
    { "name": "nominal" },
    { "name": "slow", "vdd_scale": 0.95, "vt_low_shift": 0.02, "temp": 358.15 },
    { "name": "hot",  "kp_scale": 0.9, "temp": 398.15 }
  ],
  "chunk": 256
})";

std::string table_of(CampaignDriver& driver) {
  std::ostringstream os;
  driver.write_table(os);
  return os.str();
}

TEST(CampaignSoak, RandomizedInterruptionsAndShardsConverge) {
  const auto spec = CampaignSpec::parse(kSoakSpec);
  const auto root = test::scratch_dir("campaign_soak");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  CampaignDriver reference(spec, (root / "reference").string(), false);
  const CampaignStats ref_stats = reference.run();
  ASSERT_TRUE(ref_stats.complete);
  const std::string expected = table_of(reference);
  const std::size_t n_chunks = reference.n_chunks();

  // Kill-and-resume rounds: cancel after a random delay, resume, repeat
  // until the campaign completes.  Every prefix of journaled chunks must
  // extend to the same table.
  Rng rng(static_cast<std::uint64_t>(::testing::UnitTest::GetInstance()->random_seed()) + 1);
  const std::string dir = (root / "interrupted").string();
  int rounds = 0;
  bool fresh = true;
  while (true) {
    ++rounds;
    ASSERT_LE(rounds, 500) << "campaign made no progress across resume rounds";
    util::CancelToken token;
    CampaignDriver driver(spec, dir, !fresh);
    fresh = false;
    const auto delay_us = rng.uniform_int(0, 30000);
    std::thread canceller([&token, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      token.request();
    });
    const CampaignStats stats = driver.run(1, nullptr, &token);
    canceller.join();
    EXPECT_EQ(stats.chunks_replayed + stats.chunks_run, driver.chunks_done());
    if (driver.complete()) {
      EXPECT_EQ(table_of(driver), expected) << "after " << rounds << " interrupted rounds";
      break;
    }
  }
  SUCCEED() << "converged after " << rounds << " rounds over " << n_chunks << " chunks";

  // Sharded convergence: four supervised worker processes.
  CampaignDriver sharded(spec, (root / "sharded").string(), false);
  const CampaignStats sstats = sharded.run(4);
  ASSERT_TRUE(sstats.complete);
  EXPECT_EQ(sstats.chunks_poisoned, 0u);
  EXPECT_EQ(table_of(sharded), expected);

  // And interrupting a *sharded* run, then resuming sharded, converges
  // too: worker shard stores merge across the restart boundary.
  {
    util::CancelToken token;
    CampaignDriver driver(spec, (root / "sharded_killed").string(), false);
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      token.request();
    });
    driver.run(3, nullptr, &token);
    canceller.join();
  }
  CampaignDriver resumed(spec, (root / "sharded_killed").string(), true);
  const CampaignStats rstats = resumed.run(3);
  ASSERT_TRUE(rstats.complete);
  EXPECT_EQ(table_of(resumed), expected);

  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace mtcmos
