// Unit tests for util::Journal: append/replay round-trips, torn-tail
// truncation, update-in-place (last record wins), compaction via atomic
// replacement, and the failure contract (bad keys, closed journals).

#include "util/journal.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace {

using mtcmos::util::format_journal_record;
using mtcmos::util::Journal;
using mtcmos::util::JournalOptions;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("journal_test." +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    mtcmos::faultinject::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name = "j.mtj") const { return (dir_ / name).string(); }

  std::string slurp(const std::string& p) const {
    std::ifstream is(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
};

TEST_F(JournalTest, AppendFindRoundTrip) {
  Journal j;
  j.open(path());
  EXPECT_TRUE(j.is_open());
  EXPECT_EQ(j.size(), 0u);
  j.append("alpha", "1");
  j.append("beta", "two");
  ASSERT_TRUE(j.contains("alpha"));
  EXPECT_EQ(*j.find("alpha"), "1");
  ASSERT_TRUE(j.contains("beta"));
  EXPECT_EQ(*j.find("beta"), "two");
  EXPECT_FALSE(j.contains("gamma"));
  EXPECT_EQ(j.size(), 2u);
}

TEST_F(JournalTest, LaterRecordForSameKeyWins) {
  Journal j;
  j.open(path());
  j.append("k", "first");
  j.append("k", "second");
  EXPECT_EQ(*j.find("k"), "second");
  EXPECT_EQ(j.size(), 1u);
  j.close();

  Journal replayed;
  replayed.open(path());
  EXPECT_EQ(replayed.replayed_records(), 2u);
  EXPECT_EQ(*replayed.find("k"), "second");
  EXPECT_EQ(replayed.size(), 1u);
}

TEST_F(JournalTest, ReplaySurvivesCloseAndReopen) {
  {
    Journal j;
    j.open(path());
    for (int i = 0; i < 100; ++i) j.append("key" + std::to_string(i), std::to_string(i * i));
  }
  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 100u);
  EXPECT_EQ(j.truncated_bytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(j.contains("key" + std::to_string(i))) << i;
    EXPECT_EQ(*j.find("key" + std::to_string(i)), std::to_string(i * i));
  }
}

TEST_F(JournalTest, BinaryValuesAndNewlinesRoundTrip) {
  Journal j;
  j.open(path());
  const std::string value("line1\nline2\0binary", 18);
  j.append("multi\nline\nkey", value);
  j.close();
  Journal r;
  r.open(path());
  ASSERT_TRUE(r.contains("multi\nline\nkey"));
  EXPECT_EQ(*r.find("multi\nline\nkey"), value);
}

TEST_F(JournalTest, TornTailIsTruncatedAtEveryOffset) {
  // Write two good records and one final record, then truncate the file
  // at every byte offset inside the final record: replay must keep the
  // two good records and drop the torn tail.
  {
    Journal j;
    j.open(path());
    j.append("a", "AA");
    j.append("b", "BB");
    j.append("victim", "the torn one");
  }
  const std::string full = slurp(path());
  const std::size_t tail = format_journal_record("victim", "the torn one").size();
  const std::size_t keep = full.size() - tail;
  for (std::size_t cut = keep; cut < full.size(); ++cut) {
    const std::string p = path("torn_" + std::to_string(cut) + ".mtj");
    std::ofstream os(p, std::ios::binary);
    os.write(full.data(), static_cast<std::streamsize>(cut));
    os.close();
    Journal j;
    j.open(p);
    EXPECT_EQ(j.replayed_records(), 2u) << "cut at " << cut;
    EXPECT_EQ(j.truncated_bytes(), cut - keep) << "cut at " << cut;
    EXPECT_FALSE(j.contains("victim")) << "cut at " << cut;
    EXPECT_EQ(*j.find("a"), "AA");
    EXPECT_EQ(*j.find("b"), "BB");
    // The torn bytes are gone from disk: appends after replay start from
    // a clean record boundary.
    j.append("after", "resume");
    j.close();
    Journal r;
    r.open(p);
    EXPECT_EQ(r.replayed_records(), 3u) << "cut at " << cut;
    EXPECT_EQ(*r.find("after"), "resume");
  }
}

std::vector<mtcmos::util::JournalRecord> sample_batch() {
  return {{"alpha", "1"},
          {"multi\nline", std::string("bin\0ary", 7)},
          {"alpha", "2"},  // same key twice in one group: the later wins
          {"empty-value", ""},
          {"last", "the final record of the group"}};
}

TEST_F(JournalTest, AppendBatchIsByteIdenticalToAppends) {
  const auto records = sample_batch();
  {
    Journal batched;
    batched.open(path("batched.mtj"));
    batched.append_batch(records);
    EXPECT_EQ(batched.size(), 4u);
    EXPECT_EQ(*batched.find("alpha"), "2");
    Journal single;
    single.open(path("single.mtj"));
    for (const auto& [key, value] : records) single.append(key, value);
  }
  const std::string bytes = slurp(path("batched.mtj"));
  EXPECT_EQ(bytes, slurp(path("single.mtj")));
  std::string expected;
  for (const auto& [key, value] : records) expected += format_journal_record(key, value);
  EXPECT_EQ(bytes, expected);

  Journal r;
  r.open(path("batched.mtj"));
  EXPECT_EQ(r.replayed_records(), records.size());
  EXPECT_EQ(*r.find("alpha"), "2");
  EXPECT_EQ(*r.find("multi\nline"), std::string("bin\0ary", 7));
  EXPECT_EQ(*r.find("empty-value"), "");
}

TEST_F(JournalTest, AppendBatchRejectsAnEmptyKeyBeforeWriting) {
  Journal j;
  j.open(path());
  EXPECT_THROW(j.append_batch({{"ok", "1"}, {"", "2"}}), std::invalid_argument);
  EXPECT_EQ(j.size(), 0u);
  j.append_batch({});  // an empty group writes nothing
  j.close();
  EXPECT_TRUE(slurp(path()).empty());
}

TEST_F(JournalTest, TornBatchKeepsEveryWholeRecordAtEveryOffset) {
  // A crash mid-write of a group tears it at an arbitrary byte: replay
  // keeps the records before the group, every record of the group that
  // reached the file whole, and truncates the torn remainder.
  const auto records = sample_batch();
  {
    Journal j;
    j.open(path());
    j.append("before", "B");
    j.append_batch(records);
  }
  const std::string full = slurp(path());
  std::vector<std::size_t> ends;  // file offset just past each record
  std::size_t offset = format_journal_record("before", "B").size();
  const std::size_t group_begin = offset;
  for (const auto& [key, value] : records) {
    offset += format_journal_record(key, value).size();
    ends.push_back(offset);
  }
  ASSERT_EQ(offset, full.size());
  for (std::size_t cut = group_begin; cut < full.size(); ++cut) {
    const std::string p = path("torn_" + std::to_string(cut) + ".mtj");
    {
      std::ofstream os(p, std::ios::binary);
      os.write(full.data(), static_cast<std::streamsize>(cut));
    }
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    const std::size_t kept = whole == 0 ? group_begin : ends[whole - 1];
    Journal j;
    j.open(p);
    EXPECT_EQ(j.replayed_records(), 1 + whole) << "cut at " << cut;
    EXPECT_EQ(j.truncated_bytes(), cut - kept) << "cut at " << cut;
    EXPECT_EQ(*j.find("before"), "B");
    EXPECT_EQ(j.contains("last"), whole == records.size()) << "cut at " << cut;
    if (whole >= 1) {
      EXPECT_EQ(*j.find("alpha"), whole >= 3 ? "2" : "1") << "cut at " << cut;
    }
    j.close();
    EXPECT_EQ(std::filesystem::file_size(p), kept) << "cut at " << cut;
  }
}

TEST_F(JournalTest, CorruptedInteriorByteStopsReplayThere) {
  {
    Journal j;
    j.open(path());
    j.append("a", "AA");
    j.append("b", "BB");
    j.append("c", "CC");
  }
  std::string data = slurp(path());
  // Flip a payload byte of the second record ("b" -> corrupt): its CRC
  // fails, so replay keeps only record one and truncates the rest.
  const std::size_t first = format_journal_record("a", "AA").size();
  const std::string second = format_journal_record("b", "BB");
  data[first + second.size() - 2] ^= 0x01;  // inside the "BB" payload
  {
    std::ofstream os(path(), std::ios::binary);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 1u);
  EXPECT_EQ(*j.find("a"), "AA");
  EXPECT_FALSE(j.contains("b"));
  EXPECT_FALSE(j.contains("c"));
  EXPECT_GT(j.truncated_bytes(), 0u);
}

TEST_F(JournalTest, CompactKeepsLatestValuesOnly) {
  Journal j;
  j.open(path());
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 5; ++k) {
      j.append("key" + std::to_string(k), "round" + std::to_string(round));
    }
  }
  const auto before = std::filesystem::file_size(path());
  j.compact();
  const auto after = std::filesystem::file_size(path());
  EXPECT_LT(after, before);
  EXPECT_EQ(j.size(), 5u);
  for (int k = 0; k < 5; ++k) EXPECT_EQ(*j.find("key" + std::to_string(k)), "round9");
  // Still appendable after the fd swap, and the result replays.
  j.append("post", "compact");
  j.close();
  Journal r;
  r.open(path());
  EXPECT_EQ(r.replayed_records(), 6u);
  EXPECT_EQ(*r.find("post"), "compact");
  EXPECT_EQ(*r.find("key0"), "round9");
}

TEST_F(JournalTest, EmptyKeyAndClosedJournalThrow) {
  Journal j;
  EXPECT_THROW(j.append("k", "v"), std::runtime_error);  // never opened
  j.open(path());
  EXPECT_THROW(j.append("", "v"), std::invalid_argument);
  j.close();
  EXPECT_THROW(j.append("k", "v"), std::runtime_error);
  EXPECT_THROW(j.compact(), std::runtime_error);
}

TEST_F(JournalTest, FsyncEveryRecordAndNeverBothWork) {
  JournalOptions every;
  every.fsync_every = 1;
  Journal j1;
  j1.open(path("every.mtj"), every);
  j1.append("a", "1");
  j1.append("b", "2");
  j1.close();

  JournalOptions never;
  never.fsync_every = 0;
  never.fsync_interval_s = 0.0;
  Journal j2;
  j2.open(path("never.mtj"), never);
  j2.append("a", "1");
  j2.flush();
  j2.close();

  Journal r;
  r.open(path("every.mtj"));
  EXPECT_EQ(r.replayed_records(), 2u);
  r.open(path("never.mtj"));
  EXPECT_EQ(r.replayed_records(), 1u);
}

// Key of worker t's i-th record in the concurrency tests.  Built by
// append: GCC 12 at -O3 raises a false -Wrestrict on "t" + std::to_string(t).
std::string worker_key(int t, int i) {
  return std::string("t").append(std::to_string(t)) + ":" + std::to_string(i);
}

TEST_F(JournalTest, ConcurrentAppendsAllSurvive) {
  Journal j;
  j.open(path());
  constexpr int kThreads = 8, kPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&j, t] {
      for (int i = 0; i < kPerThread; ++i) {
        j.append(worker_key(t, i), std::to_string(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  j.close();
  Journal r;
  r.open(path());
  EXPECT_EQ(r.replayed_records(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(r.truncated_bytes(), 0u);
  EXPECT_EQ(r.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_F(JournalTest, CompactRacingConcurrentAppendsLosesNothing) {
  // compact() swaps the fd under the same mutex append() takes, so an
  // append landing mid-compaction goes to either the old file (then the
  // compaction rewrite includes it) or the new one -- never a torn or
  // dropped record.  Hammer the race, then replay and count.
  Journal j;
  j.open(path());
  constexpr int kThreads = 4, kPerThread = 150;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&j, t] {
      for (int i = 0; i < kPerThread; ++i) {
        j.append(worker_key(t, i), std::to_string(i));
        j.append("hot", std::to_string(t * kPerThread + i));  // contended key
      }
    });
  }
  std::thread compactor([&j] {
    for (int c = 0; c < 25; ++c) {
      j.compact();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& w : workers) w.join();
  compactor.join();
  j.compact();  // final compaction over the quiesced journal
  j.close();

  Journal r;
  r.open(path());
  EXPECT_EQ(r.truncated_bytes(), 0u);
  EXPECT_EQ(r.size(), static_cast<std::size_t>(kThreads * kPerThread) + 1);
  // Compacted: exactly one record per distinct key survives on disk.
  EXPECT_EQ(r.replayed_records(), r.size());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::optional<std::string> v = r.find(worker_key(t, i));
      ASSERT_TRUE(v.has_value()) << "t" << t << ":" << i;
      EXPECT_EQ(*v, std::to_string(i));
    }
  }
  EXPECT_TRUE(r.contains("hot"));
}

TEST_F(JournalTest, InjectedAppendFaultLeavesValidJournal) {
  Journal j;
  j.open(path());
  j.append("before", "ok");
  mtcmos::faultinject::arm(mtcmos::faultinject::Site::kJournalAppend,
                           mtcmos::faultinject::kAnyScope, 1);
  EXPECT_THROW(j.append("doomed", "x"), mtcmos::NumericalError);
  j.append("after", "ok");
  j.close();
  Journal r;
  r.open(path());
  EXPECT_EQ(r.replayed_records(), 2u);
  EXPECT_FALSE(r.contains("doomed"));
  EXPECT_EQ(*r.find("before"), "ok");
  EXPECT_EQ(*r.find("after"), "ok");
}

TEST_F(JournalTest, ForEachVisitsLatestPerKey) {
  Journal j;
  j.open(path());
  j.append("x", "old");
  j.append("x", "new");
  j.append("y", "only");
  std::size_t visited = 0;
  j.for_each([&](const std::string& key, const std::string& value) {
    ++visited;
    if (key == "x") {
      EXPECT_EQ(value, "new");
    }
    if (key == "y") {
      EXPECT_EQ(value, "only");
    }
  });
  EXPECT_EQ(visited, 2u);
}

// Durability regression (PR7): a crash right after creating a journal
// must not lose the file itself.  open() O_CREATs the file and then
// fsyncs the PARENT DIRECTORY, so the new directory entry is on disk
// before the first append -- without it, a power cut after open() could
// roll back the file's existence even though appends were fsynced.
// (compact() has the matching ordering: fsync temp file, rename, fsync
// parent dir; and fsync_parent_dir retries EINTR on open and fsync.)
// The durable-ordering side is not observable in a unit test; what is
// observable -- the file existing immediately after open(), before any
// append -- is pinned here.
TEST_F(JournalTest, OpenCreatesTheFileEagerly) {
  const std::string p = path("fresh.mtj");
  ASSERT_FALSE(std::filesystem::exists(p));
  Journal j;
  j.open(p);
  EXPECT_TRUE(std::filesystem::exists(p)) << "directory entry must exist before first append";
  j.append("k", "v");
  j.close();
  Journal again;
  again.open(p);
  ASSERT_TRUE(again.contains("k"));
  EXPECT_EQ(*again.find("k"), "v");
}

TEST_F(JournalTest, MergeJournalFileDedupsSkipsAndCounts) {
  Journal source;
  source.open(path("source.mtj"));
  source.append("shared-same", "1");
  source.append("shared-stale", "old");
  source.append("shared-stale", "new");  // latest per key wins
  source.append("hb:0", "beat");
  source.append("fresh", "f");
  source.close();

  Journal dest;
  dest.open(path("dest.mtj"));
  dest.append("shared-same", "1");    // identical -> not re-appended
  dest.append("shared-stale", "old");  // differs -> source's latest appended
  const std::size_t appended = mtcmos::util::merge_journal_file(
      dest, path("source.mtj"),
      [](const std::string& key) { return key.rfind("hb:", 0) == 0; });
  EXPECT_EQ(appended, 2u);  // shared-stale + fresh
  EXPECT_EQ(dest.size(), 3u);
  EXPECT_EQ(*dest.find("shared-same"), "1");
  EXPECT_EQ(*dest.find("shared-stale"), "new");
  EXPECT_EQ(*dest.find("fresh"), "f");
  EXPECT_FALSE(dest.contains("hb:0"));
}

TEST_F(JournalTest, MergeJournalFileAppendsInSortedKeyOrder) {
  Journal source;
  source.open(path("source.mtj"));
  source.append("zeta", "z");
  source.append("alpha", "a");
  source.append("mid", "m");
  source.close();

  Journal dest;
  dest.open(path("dest.mtj"));
  EXPECT_EQ(mtcmos::util::merge_journal_file(dest, path("source.mtj"), {}), 3u);
  dest.close();
  // Sorted visitation makes the merged bytes deterministic regardless of
  // the source's (insertion-ordered) record sequence.
  const std::string bytes = slurp(path("dest.mtj"));
  const auto pos_a = bytes.find(format_journal_record("alpha", "a"));
  const auto pos_m = bytes.find(format_journal_record("mid", "m"));
  const auto pos_z = bytes.find(format_journal_record("zeta", "z"));
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_m, std::string::npos);
  ASSERT_NE(pos_z, std::string::npos);
  EXPECT_LT(pos_a, pos_m);
  EXPECT_LT(pos_m, pos_z);
}

TEST_F(JournalTest, MergeJournalFileTruncatesTornSourceTail) {
  Journal source;
  source.open(path("source.mtj"));
  source.append("whole", "w");
  source.close();
  {
    // Half a record: what a SIGKILL mid-append leaves behind.
    const std::string torn = format_journal_record("torn", "lost");
    std::ofstream os(path("source.mtj"), std::ios::binary | std::ios::app);
    os.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }
  Journal dest;
  dest.open(path("dest.mtj"));
  EXPECT_EQ(mtcmos::util::merge_journal_file(dest, path("source.mtj"), {}), 1u);
  EXPECT_EQ(*dest.find("whole"), "w");
  EXPECT_FALSE(dest.contains("torn"));
}

TEST_F(JournalTest, MergeJournalFileMissingSourceThrows) {
  Journal dest;
  dest.open(path("dest.mtj"));
  EXPECT_THROW(mtcmos::util::merge_journal_file(dest, path("no-such.mtj"), {}),
               std::runtime_error);
}

}  // namespace
