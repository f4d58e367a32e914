// Unit tests for util::Journal: append/replay round-trips of text and
// item records, torn-tail truncation, update-in-place (last record wins),
// strict header parsing, deterministic merges, and the failure contract
// (bad keys, closed journals).

#include "util/journal.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"
#include "scratch_dir.hpp"

namespace {

using mtcmos::util::format_journal_record;
using mtcmos::util::ItemKey;
using mtcmos::util::ItemValue;
using mtcmos::util::Journal;
using mtcmos::util::JournalBatch;
using JournalRecord = std::pair<std::string, std::string>;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = mtcmos::test::scratch_dir("journal_test");
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

TEST_F(JournalTest, RefusedReplayLeavesTheFileWholeAndTheJournalClosed) {
  // An open() whose accept check throws must not truncate the torn tail
  // it replayed past, and must leave nothing open or queryable.
  {
    Journal j;
    j.open(path());
    j.append("a", "AA");
  }
  const std::string torn = slurp(path()) + format_journal_record("b", "BB").substr(0, 5);
  {
    std::ofstream os(path(), std::ios::binary | std::ios::trunc);
    os.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }
  Journal j;
  std::size_t seen = 0;
  EXPECT_THROW(j.open(path(),
                      [&](const Journal& replayed) {
                        seen = replayed.size();
                        throw std::invalid_argument("refused");
                      }),
               std::invalid_argument);
  EXPECT_EQ(seen, 1u);
  EXPECT_FALSE(j.is_open());
  EXPECT_FALSE(j.contains("a"));
  EXPECT_EQ(slurp(path()), torn);
  // An accepting check changes nothing: the tail is truncated as usual.
  j.open(path(), [](const Journal&) {});
  EXPECT_EQ(*j.find("a"), "AA");
  EXPECT_EQ(j.truncated_bytes(), 5u);
  j.close();
  EXPECT_EQ(slurp(path()).size(), torn.size() - 5);
}

JournalBatch batch_of(const std::vector<JournalRecord>& records) {
  JournalBatch batch;
  for (const auto& [key, value] : records) batch.add(key, value);
  return batch;
}

std::vector<JournalRecord> sample_batch() {
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
    batched.append_batch(batch_of(records));
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
  EXPECT_THROW(j.append_batch(batch_of({{"ok", "1"}, {"", "2"}})), std::invalid_argument);
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
    j.append_batch(batch_of(records));
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

TEST_F(JournalTest, EmptyKeyAndClosedJournalThrow) {
  Journal j;
  EXPECT_THROW(j.append("k", "v"), std::runtime_error);  // never opened
  j.open(path());
  EXPECT_THROW(j.append("", "v"), std::invalid_argument);
  j.close();
  EXPECT_THROW(j.append("k", "v"), std::runtime_error);
}

TEST_F(JournalTest, FailedWriteLeavesNoTornBytesForTheNextAppend) {
  // A write cut short (here by RLIMIT_FSIZE, 10 bytes past the first
  // record) must not leave torn bytes for the next append to land after:
  // the next open() would truncate that whole record away.  The limit is
  // set in a forked child, so this process keeps its own; the child exits
  // with the number of the first check that failed.
  const std::string p = path();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int failed = 0;
    try {
      Journal j;
      j.open(p);
      j.append("a", "1");
      const std::uintmax_t size = std::filesystem::file_size(p);
      ::signal(SIGXFSZ, SIG_IGN);
      rlimit lifted{};
      ::getrlimit(RLIMIT_FSIZE, &lifted);
      rlimit capped = lifted;
      capped.rlim_cur = static_cast<rlim_t>(size + 10);
      bool threw = false;
      if (::setrlimit(RLIMIT_FSIZE, &capped) != 0) _exit(1);
      try {
        j.append("b", std::string(200, 'x'));
      } catch (const std::runtime_error&) {
        threw = true;
      }
      if (::setrlimit(RLIMIT_FSIZE, &lifted) != 0) _exit(2);
      if (!threw) _exit(3);
      if (std::filesystem::file_size(p) != size) _exit(4);
      j.append("c", "3");
      if (!j.contains("c") || j.contains("b")) _exit(5);
      j.close();
      Journal back;
      back.open(p);
      if (!back.contains("a") || back.contains("b")) _exit(6);
      if (!back.contains("c")) _exit(7);
      if (back.truncated_bytes() != 0) _exit(8);
    } catch (...) {
      failed = 9;
    }
    _exit(failed);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(JournalTest, FsyncEveryRecordAndNeverBothWork) {
  // An fsync after every record, and one for the whole journal.
  Journal j1;
  j1.open(path("every.mtj"));
  j1.append("a", "1");
  j1.flush();
  j1.append("b", "2");
  j1.flush();
  j1.flush();  // nothing appended since: a no-op
  j1.close();

  Journal j2;
  j2.open(path("never.mtj"));
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

// Durability: a power cut must not lose a journal whose records were
// synced.  open() O_CREATs the file, and the journal's first fsync (the
// time batch, flush() or close()) also fsyncs the PARENT DIRECTORY, so the
// directory entry is on disk no later than the first synced record.
// (fsync_parent_dir retries EINTR on open and fsync.)  The durable-ordering
// side is not observable in a unit test; what is observable -- the file
// existing immediately after open(), before any append -- is pinned here.
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
  source.append("fresh", "f");
  source.close();

  Journal dest;
  dest.open(path("dest.mtj"));
  dest.append("shared-same", "1");    // identical -> not re-appended
  dest.append("shared-stale", "old");  // differs -> source's latest appended
  const std::size_t appended = mtcmos::util::merge_journal_file(dest, path("source.mtj"));
  EXPECT_EQ(appended, 2u);  // shared-stale + fresh
  EXPECT_EQ(dest.size(), 3u);
  EXPECT_EQ(*dest.find("shared-same"), "1");
  EXPECT_EQ(*dest.find("shared-stale"), "new");
  EXPECT_EQ(*dest.find("fresh"), "f");
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
  EXPECT_EQ(mtcmos::util::merge_journal_file(dest, path("source.mtj")), 3u);
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
  EXPECT_EQ(mtcmos::util::merge_journal_file(dest, path("source.mtj")), 1u);
  EXPECT_EQ(*dest.find("whole"), "w");
  EXPECT_FALSE(dest.contains("torn"));
}

TEST_F(JournalTest, MergeJournalFileMissingSourceThrows) {
  Journal dest;
  dest.open(path("dest.mtj"));
  EXPECT_THROW(mtcmos::util::merge_journal_file(dest, path("no-such.mtj")),
               std::runtime_error);
}

// --- Strict headers ---

/// Write `bytes` as the whole file at `p`.
void write_file(const std::string& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(JournalTest, HeaderLengthsThatWrapAroundAreTheTornTail) {
  // A CRC-valid header whose lengths sum to 10 modulo 2^64.  Unbounded
  // offset arithmetic would replay it with the rest of the file as its
  // key and a value read from before its payload; bounded by the bytes
  // remaining, it is the torn tail.
  {
    Journal j;
    j.open(path());
    j.append("a", "AA");
  }
  const std::string good = slurp(path());
  const std::string covered = "0123456789";  // the 10 bytes the wrapped sum spans
  char header[96];
  std::snprintf(header, sizeof(header), "J1 %08x 18446744073709551606 20\n",
                mtcmos::util::crc32(covered.data(), covered.size()));
  const std::string evil = header + covered + "\n" + std::string(23, 'x');
  ASSERT_EQ(evil.size() - std::string(header).size(), 34u);
  write_file(path(), good + evil);

  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 1u);
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(*j.find("a"), "AA");
  EXPECT_EQ(j.truncated_bytes(), evil.size());
  j.close();
  EXPECT_EQ(std::filesystem::file_size(path()), good.size());
}

TEST_F(JournalTest, NonCanonicalHeadersAreTheTornTail) {
  // Each header carries the right CRC for "kv"; only its spelling is off
  // (signs, leading zeros, extra whitespace, uppercase or short hex).
  const std::uint32_t crc = mtcmos::util::crc32("kv", 2);
  char canonical[64];
  std::snprintf(canonical, sizeof(canonical), "J1 %08x 1 1\n", crc);
  const char* const forms[] = {"J1 %08x +1 1\n", "J1 %08x 01 1\n", "J1 %08x  1 1\n",
                               "J1  %08x 1 1\n", "J1 %08X 1 1\n",  "J1 %x 1 1\n",
                               "J1 %08x 1 1 \n", "J1 %08x 1\t1\n", "J1 %08x 1 -1\n",
                               " J1 %08x 1 1\n", "J1 0x%08x 1 1\n"};
  int checked = 0;
  for (const char* form : forms) {
    char header[64];
    std::snprintf(header, sizeof(header), form, crc);
    if (std::string(header) == canonical) continue;  // e.g. a crc without hex letters
    SCOPED_TRACE(header);
    const std::string p = path("form" + std::to_string(checked++) + ".mtj");
    write_file(p, std::string(header) + "kv\n");
    Journal j;
    j.open(p);
    EXPECT_EQ(j.replayed_records(), 0u);
    EXPECT_FALSE(j.contains("k"));
    EXPECT_GT(j.truncated_bytes(), 0u);
  }
  EXPECT_GE(checked, 9);
  // The canonical spelling of the same record replays.
  write_file(path("canonical.mtj"), std::string(canonical) + "kv\n");
  Journal j;
  j.open(path("canonical.mtj"));
  EXPECT_EQ(*j.find("k"), "v");
}

TEST_F(JournalTest, ItemGroupHeadersAreBoundedByTheBytesLeft) {
  // Groups whose count x width cannot fit in the file -- including
  // widths and counts whose products would wrap around 2^64 -- and
  // counts outside 1..64 are the torn tail, whatever their CRC says.
  {
    Journal j;
    j.open(path());
    j.append("a", "AA");
  }
  const std::string good = slurp(path());
  const std::string payload(200, '\0');
  const char* const dims[] = {"64 64 0", "4294967295 1 0", "18446744073709551615 1 0",
                              "1 18446744073709551615 0", "1 1 18446744073709551615", "1 0 0",
                              "1 65 0", "288230376151711744 1 0"};
  for (const char* d : dims) {
    SCOPED_TRACE(d);
    const std::uint32_t crc =
        mtcmos::util::crc32(payload.data(), payload.size(), mtcmos::util::crc32(d, std::strlen(d)));
    char header[96];
    std::snprintf(header, sizeof(header), "J2 %08x %s\n", crc, d);
    write_file(path(), good + header + payload + "\n");
    Journal j;
    j.open(path());
    EXPECT_EQ(j.replayed_records(), 1u);
    EXPECT_EQ(j.item_count(), 0u);
    EXPECT_EQ(j.truncated_bytes(), std::strlen(header) + payload.size() + 1);
  }
}

// --- Item records ---

/// Item i of a 6-bit transition space: v0 = i, v1 = ~i.  A key views
/// the item's words, so key() is for items that outlive it: a temporary's
/// key would dangle, and does not compile.
struct TestItem {
  std::uint64_t words[2];
  ItemKey key(std::uint64_t context, std::uint32_t bits = 6) const& {
    return {context, bits, words};
  }
  ItemKey key(std::uint64_t context, std::uint32_t bits = 6) && = delete;
};

/// Item i (mod 64), held for the whole test run.
const TestItem& test_item(unsigned i) {
  static const std::array<TestItem, 64> items = [] {
    std::array<TestItem, 64> all{};
    for (unsigned k = 0; k < all.size(); ++k) all[k] = {{k, ~k & 63u}};
    return all;
  }();
  return items[i & 63u];
}

/// A one-key range read: item `key`'s latest outcome into `out`; false
/// when the journal does not hold it.
bool find_one(const Journal& j, const ItemKey& key, ItemValue& out) {
  return j.find_items(key, 1, [&out](std::size_t, const ItemValue& v) { out = v; })[0] != 0;
}

/// A range read of the `n` keys packed from `first` on: key i's outcome,
/// or nullopt where the journal does not hold it.
std::vector<std::optional<ItemValue>> read_range(const Journal& j, const ItemKey& first,
                                                 std::size_t n) {
  std::vector<std::optional<ItemValue>> out(n);
  const std::vector<char> held =
      j.find_items(first, n, [&out](std::size_t i, const ItemValue& v) { out[i] = v; });
  EXPECT_EQ(held.size(), n);
  for (std::size_t i = 0; i < std::min(n, held.size()); ++i) {
    EXPECT_EQ(held[i] != 0, out[i].has_value()) << i;
  }
  return out;
}

ItemValue ok_value(int attempts, double a, double b, double c) {
  ItemValue v;
  v.attempts = attempts;
  v.values = 3;
  v.value[0] = std::bit_cast<std::uint64_t>(a);
  v.value[1] = std::bit_cast<std::uint64_t>(b);
  v.value[2] = std::bit_cast<std::uint64_t>(c);
  return v;
}

ItemValue fail_value(int attempts, std::uint8_t code, std::string site, std::string detail) {
  ItemValue v;
  v.attempts = attempts;
  v.code = code;
  v.site = std::move(site);
  v.detail = std::move(detail);
  return v;
}

bool same_value(const ItemValue& a, const ItemValue& b) {
  return a.attempts == b.attempts && a.values == b.values && a.code == b.code &&
         a.value[0] == b.value[0] && a.value[1] == b.value[1] && a.value[2] == b.value[2] &&
         a.site == b.site && a.detail == b.detail;
}

/// Item i's value in the tests below: every fourth item is a failure.
ItemValue value_of(unsigned i) {
  if (i % 4 == 3) {
    return fail_value(static_cast<int>(i), 2, "spice::lu", "pivot " + std::to_string(i));
  }
  return ok_value(1 + static_cast<int>(i), 1.0 / (i + 1), -0.0, 1e-300 * i);
}

const std::string kPrefix = "rank:vbs:00000000000000aa:4024000000000000:";

TEST_F(JournalTest, ItemRecordsRoundTripAndLaterRecordsWin) {
  std::uint64_t ctx = 0;
  {
    Journal j;
    j.open(path());
    ctx = j.register_context(kPrefix);
    EXPECT_EQ(j.register_context(kPrefix), ctx);  // registered once
    JournalBatch batch;
    for (unsigned i = 0; i < 8; ++i) batch.add(test_item(i).key(ctx), value_of(i));
    batch.add("meta:x", "text and items share a group");
    j.append_batch(batch);
    JournalBatch update;
    update.add(test_item(1).key(ctx), value_of(3));  // a failure overwrites a success
    update.add(test_item(3).key(ctx), value_of(0));  // and vice versa
    j.append_batch(update);
    EXPECT_EQ(j.item_count(), 8u);
    EXPECT_EQ(j.size(), 9u);
  }
  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 11u);  // 8 + 1 text + 2 updates; the registry is not counted
  EXPECT_EQ(j.item_count(), 8u);
  for (unsigned i = 0; i < 8; ++i) {
    SCOPED_TRACE(i);
    ItemValue back;
    ASSERT_TRUE(find_one(j, test_item(i).key(ctx), back));
    EXPECT_TRUE(same_value(back, value_of(i == 1 ? 3 : i == 3 ? 0 : i)));
  }
  ItemValue back;
  EXPECT_FALSE(find_one(j, test_item(9).key(ctx), back));
  EXPECT_FALSE(find_one(j, test_item(1).key(ctx + 1), back));  // other context
  EXPECT_FALSE(find_one(j, test_item(1).key(ctx, 5), back));    // other width
  // The cold view renders the registered prefix plus the transition bits
  // (bit 0 first) and the value bytes.
  std::optional<std::string> rendered;
  j.for_each([&](const std::string& key, const std::string& value) {
    if (key == kPrefix + "100000-011111") rendered = value;
  });
  ASSERT_TRUE(rendered.has_value());
  ItemValue decoded;
  ASSERT_TRUE(mtcmos::util::decode_item_value(*rendered, decoded));
  EXPECT_TRUE(same_value(decoded, value_of(3)));
}

TEST_F(JournalTest, AnItemRecordEqualToItsLatestIsNotWrittenAgain) {
  std::uint64_t ctx = 0;
  std::uintmax_t bytes = 0;
  {
    Journal j;
    j.open(path());
    ctx = j.register_context(kPrefix);
    JournalBatch batch;
    batch.add(test_item(0).key(ctx), value_of(0));
    batch.add(test_item(0).key(ctx), value_of(0));  // a twice-drawn transition
    batch.add(test_item(1).key(ctx), value_of(3));
    batch.add(test_item(1).key(ctx), value_of(3));  // a failure, text and all
    batch.add(test_item(2).key(ctx), value_of(1));
    batch.add(test_item(2).key(ctx), value_of(2));  // later records still win...
    batch.add(test_item(2).key(ctx), value_of(1));  // ...against the batch's latest
    EXPECT_EQ(j.append_batch(batch), 5u);
    bytes = std::filesystem::file_size(path());
    JournalBatch again;
    again.add(test_item(0).key(ctx), value_of(0));  // held by the journal: dropped
    again.add(test_item(2).key(ctx), value_of(1));
    EXPECT_EQ(j.append_batch(again), 0u);
    EXPECT_EQ(std::filesystem::file_size(path()), bytes) << "nothing written";
    JournalBatch changed;
    changed.add(test_item(0).key(ctx), value_of(1));
    EXPECT_EQ(j.append_batch(changed), 1u);
  }
  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 6u);
  EXPECT_EQ(j.item_count(), 3u);
  ItemValue back;
  ASSERT_TRUE(find_one(j, test_item(0).key(ctx), back));
  EXPECT_TRUE(same_value(back, value_of(1)));
  ASSERT_TRUE(find_one(j, test_item(1).key(ctx), back));
  EXPECT_TRUE(same_value(back, value_of(3)));
  ASSERT_TRUE(find_one(j, test_item(2).key(ctx), back));
  EXPECT_TRUE(same_value(back, value_of(1)));
}

TEST_F(JournalTest, ItemsWiderThanOneWordAndManyGroupsRoundTrip) {
  // 130-bit transitions (three words per vector) in one batch larger than
  // a commit group, with a 6-bit item every 50: the writer splits the
  // batch into groups of at most 64 items of one width.
  std::vector<std::array<std::uint64_t, 6>> words(150);
  std::uint64_t ctx = 0;
  {
    Journal j;
    j.open(path());
    ctx = j.register_context(kPrefix);
    JournalBatch batch;
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = {i, ~i, i << 60, i * 7, i ^ 0xdeadbeef, (i * 13) & 3};
      words[i][2] &= 3;  // bits 128..129 only
      words[i][5] &= 3;
      batch.add({ctx, 130, words[i].data()}, value_of(static_cast<unsigned>(i)));
      if (i % 50 == 0) batch.add(test_item(static_cast<unsigned>(i)).key(ctx), value_of(7));
    }
    j.append_batch(batch);
  }
  const std::string bytes = slurp(path());
  std::size_t groups = 0;
  for (std::size_t at = bytes.find("\nJ2 "); at != std::string::npos;
       at = bytes.find("\nJ2 ", at + 1)) {
    ++groups;
  }
  EXPECT_GE(groups, 7u);  // each width change starts a new group
  Journal j;
  j.open(path());
  EXPECT_EQ(j.item_count(), words.size() + 3);
  for (std::size_t i = 0; i < words.size(); ++i) {
    ItemValue back;
    ASSERT_TRUE(find_one(j, {ctx, 130, words[i].data()}, back)) << i;
    EXPECT_TRUE(same_value(back, value_of(static_cast<unsigned>(i)))) << i;
    if (i % 50 != 0) continue;
    ASSERT_TRUE(find_one(j, test_item(static_cast<unsigned>(i)).key(ctx), back)) << i;
    EXPECT_TRUE(same_value(back, value_of(7))) << i;
  }
}

TEST_F(JournalTest, ContextIdCollisionIsACodedError) {
  // A registry record that maps this prefix's id to another prefix --
  // what a 64-bit hash collision would leave -- must stop the sweep, not
  // let it replay the other pass's items.
  const std::uint64_t id = mtcmos::util::fnv1a64(kPrefix.data(), kPrefix.size());
  char key[24];
  std::snprintf(key, sizeof(key), "ctx:%016llx", static_cast<unsigned long long>(id));
  {
    Journal j;
    j.open(path());
    j.append(key, "probe:vbs:00000000000000bb:4024000000000000:");
  }
  Journal j;
  j.open(path());
  EXPECT_EQ(j.size(), 0u);  // registry records are not counted
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      std::uint64_t found = 0;
      if (attempt == 0) {
        (void)j.register_context(kPrefix);
      } else {
        (void)j.find_context(kPrefix, found);
      }
      ADD_FAILURE() << "collision accepted";
    } catch (const mtcmos::NumericalError& e) {
      EXPECT_EQ(e.info().code, mtcmos::FailureCode::kInvalidArgument);
    }
  }
}

TEST_F(JournalTest, ItemGroupsTearOrFlipOnlyToAWholeGroupPrefix) {
  // Three groups of four items (one failure each).  Cut the file at every
  // offset and flip every byte: replay must keep exactly the groups
  // before the damage, each item unchanged, and nothing else.
  constexpr unsigned kGroups = 3, kPerGroup = 4;
  std::uint64_t ctx = 0;
  {
    Journal j;
    j.open(path());
    ctx = j.register_context(kPrefix);
    for (unsigned g = 0; g < kGroups; ++g) {
      JournalBatch batch;
      for (unsigned k = 0; k < kPerGroup; ++k) {
        batch.add(test_item(g * kPerGroup + k).key(ctx), value_of(g * kPerGroup + k));
      }
      j.append_batch(batch);
    }
  }
  const std::string full = slurp(path());
  std::size_t damaged = 0;
  const auto check = [&](const std::string& bytes, const std::string& what) {
    SCOPED_TRACE(what);
    const std::string p = path("damaged.mtj");
    write_file(p, bytes);
    Journal j;
    j.open(p);
    std::size_t present = 0;
    for (unsigned i = 0; i < kGroups * kPerGroup; ++i) {
      ItemValue back;
      if (!find_one(j, test_item(i).key(ctx), back)) continue;
      EXPECT_EQ(i, present) << "item " << i << " replayed after a missing one";
      EXPECT_TRUE(same_value(back, value_of(i))) << "item " << i << " changed";
      ++present;
    }
    EXPECT_EQ(present % kPerGroup, 0u);
    EXPECT_EQ(j.item_count(), present);
    if (present < kGroups * kPerGroup) ++damaged;
  };
  for (std::size_t cut = 0; cut < full.size(); ++cut) check(full.substr(0, cut), "cut");
  for (std::size_t at = 0; at < full.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string flipped = full;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      check(flipped, "flip at " + std::to_string(at));
    }
  }
  EXPECT_EQ(damaged, 3 * full.size());  // every cut and every flip loses something
}

TEST_F(JournalTest, MergedItemBytesDependOnlyOnTheRecordSet) {
  // Two sources hold the same items of two contexts, appended in opposite
  // orders and group splits: their merges are byte-identical files.
  const std::string other = "probe:vbs:00000000000000aa:4024000000000000:";
  const auto fill = [&](const std::string& name, bool reversed) {
    Journal j;
    j.open(path(name));
    const std::uint64_t first = j.register_context(reversed ? other : kPrefix);
    const std::uint64_t second = j.register_context(reversed ? kPrefix : other);
    const std::uint64_t even = reversed ? second : first;
    const std::uint64_t odd = reversed ? first : second;
    JournalBatch batch;
    for (unsigned n = 0; n < 20; ++n) {
      const unsigned i = reversed ? 19 - n : n;
      batch.add(test_item(i).key(i % 2 == 0 ? even : odd), value_of(i));
      if (batch.size() == 3) {
        j.append_batch(batch);
        batch.clear();
      }
    }
    j.append_batch(batch);
  };
  fill("forward.mtj", false);
  fill("reverse.mtj", true);
  {
    Journal dest;
    dest.open(path("merged_f.mtj"));
    EXPECT_EQ(mtcmos::util::merge_journal_file(dest, path("forward.mtj")), 20u);
    EXPECT_EQ(mtcmos::util::merge_journal_file(dest, path("reverse.mtj")), 0u);  // all present
    Journal dest2;
    dest2.open(path("merged_r.mtj"));
    EXPECT_EQ(mtcmos::util::merge_journal_file(dest2, path("reverse.mtj")), 20u);
  }
  EXPECT_TRUE(slurp(path("merged_f.mtj")) == slurp(path("merged_r.mtj")));
  Journal merged;
  merged.open(path("merged_f.mtj"));
  std::uint64_t ctx = 0;
  ASSERT_TRUE(merged.find_context(kPrefix, ctx));
  ItemValue back;
  ASSERT_TRUE(find_one(merged, test_item(4).key(ctx), back));
  EXPECT_TRUE(same_value(back, value_of(4)));
}


// --- Range reads and replay sizing ---

TEST_F(JournalTest, RangeReadMatchesPerKeyFinds) {
  // Ranges over absent keys, failures with site/detail text, items a
  // later record overwrote and 130-bit keys read what one-key reads read
  // key by key: while open, after close(), and after a reopen.
  std::vector<std::uint64_t> narrow(2 * 12), wide(6 * 10);
  for (std::uint64_t i = 0; i < 12; ++i) {
    narrow[2 * i] = test_item(static_cast<unsigned>(i)).words[0];
    narrow[2 * i + 1] = test_item(static_cast<unsigned>(i)).words[1];
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t w[6] = {i, ~i, i & 3, i * 5, i ^ 7, 1};
    std::copy(w, w + 6, wide.begin() + static_cast<std::ptrdiff_t>(6 * i));
  }
  Journal j;
  j.open(path());
  const std::uint64_t ctx = j.register_context(kPrefix);
  JournalBatch batch;
  for (unsigned i = 0; i < 12; ++i) {
    if (i % 3 != 2) batch.add(test_item(i).key(ctx), value_of(i));  // 2, 5, 8, 11 stay absent
  }
  for (unsigned i = 0; i < 10; ++i) batch.add({ctx, 130, &wide[6 * i]}, value_of(i + 3));
  j.append_batch(batch);
  JournalBatch later;
  later.add(test_item(0).key(ctx), value_of(7));  // a success becomes a failure
  later.add(test_item(3).key(ctx), value_of(4));  // and a failure a success
  j.append_batch(later);

  struct Range {
    ItemKey first;
    std::size_t n;
  };
  const Range ranges[] = {
      {{ctx, 6, narrow.data()}, 12},
      {{ctx, 130, wide.data()}, 10},
      {{ctx + 1, 6, &narrow[2]}, 1},  // other context
      {{ctx, 5, &narrow[2]}, 1},      // other width
  };
  const auto check = [&](const Journal& reader, const char* when) {
    SCOPED_TRACE(when);
    std::vector<std::vector<std::optional<ItemValue>>> read;
    std::size_t held = 0;
    for (const Range& r : ranges) {
      read.push_back(read_range(reader, r.first, r.n));
      ASSERT_EQ(read.back().size(), r.n);
      const std::size_t stride = 2 * mtcmos::util::item_words(r.first.bits);
      for (std::size_t k = 0; k < r.n; ++k) {
        ItemKey key = r.first;
        key.words += k * stride;
        ItemValue one;
        const bool found = find_one(reader, key, one);
        EXPECT_EQ(read.back()[k].has_value(), found) << k;
        if (!found) continue;
        EXPECT_TRUE(same_value(*read.back()[k], one)) << k;
        ++held;
      }
    }
    EXPECT_EQ(held, 8u + 10u);
    ASSERT_TRUE(read[0][0].has_value());
    EXPECT_TRUE(same_value(*read[0][0], value_of(7)));
    ASSERT_TRUE(read[0][3].has_value());
    EXPECT_TRUE(same_value(*read[0][3], value_of(4)));
    ASSERT_TRUE(read[0][7].has_value());
    EXPECT_TRUE(same_value(*read[0][7], value_of(7)));
    ASSERT_TRUE(read[1][4].has_value());  // wide item 4: a failure
    EXPECT_TRUE(same_value(*read[1][4], value_of(7)));
    EXPECT_FALSE(read[0][2].has_value());
    EXPECT_EQ(reader.find_items(ranges[0].first, 0).size(), 0u);
  };
  check(j, "open");
  j.close();
  check(j, "closed");
  Journal back;
  back.open(path());
  check(back, "reopened");
}

TEST_F(JournalTest, ConcurrentRangeReadsSeeWholeGroups) {
  // Four readers range-read every group while one writer appends
  // 64-item groups: a reader sees each group all or none, and every item
  // it sees holds its committed value.
  constexpr std::size_t kGroups = 16, kGroup = 64;
  Journal j;
  j.open(path());
  const std::uint64_t ctx = j.register_context(kPrefix);
  std::vector<std::uint64_t> words(2 * kGroups * kGroup);
  std::vector<ItemKey> keys(kGroups * kGroup);
  for (std::uint64_t i = 0; i < keys.size(); ++i) {
    words[2 * i] = i;
    words[2 * i + 1] = ~i & 0x3FFu;
    keys[i] = {ctx, 10, &words[2 * i]};
  }
  std::atomic<bool> done{false};
  std::atomic<int> torn{0}, wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      // The visitor runs under the journal's reader lock: it only copies
      // the values out, and they are checked after the read.
      std::vector<ItemValue> seen(kGroup);
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t g = 0; g < kGroups; ++g) {
          const std::vector<char> held = j.find_items(
              keys[g * kGroup], kGroup, [&](std::size_t k, const ItemValue& v) { seen[k] = v; });
          const auto present = static_cast<std::size_t>(std::count(held.begin(), held.end(), 1));
          if (present != 0 && present != kGroup) ++torn;
          for (std::size_t k = 0; k < kGroup && present != 0; ++k) {
            if (!same_value(seen[k], value_of(static_cast<unsigned>(g * kGroup + k)))) ++wrong;
          }
        }
      }
    });
  }
  for (std::size_t g = 0; g < kGroups; ++g) {
    JournalBatch batch;
    for (std::size_t k = 0; k < kGroup; ++k) {
      batch.add(keys[g * kGroup + k], value_of(static_cast<unsigned>(g * kGroup + k)));
    }
    j.append_batch(batch);
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  const std::vector<char> all = j.find_items(keys[0], keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(all[i], 1) << i;
}

TEST_F(JournalTest, TextHeavyJournalReplaysEveryRecord) {
  // A daemon request log in miniature: hundreds of text records (one
  // overwritten), registrations, and a few items, one of them
  // overwritten by a later group.
  {
    Journal j;
    j.open(path());
    const std::uint64_t ctx = j.register_context(kPrefix);
    (void)j.register_context("probe:vbs:00000000000000aa:4024000000000000:");
    JournalBatch batch;
    for (int i = 0; i < 300; ++i) {
      batch.add(std::string("req:").append(std::to_string(i)),
                "{\"op\":\"rank\",\"wl\":" + std::to_string(i) + "}");
    }
    for (unsigned i = 0; i < 5; ++i) batch.add(test_item(i).key(ctx), value_of(i));
    j.append_batch(batch);
    JournalBatch later;
    later.add("req:7", "{\"op\":\"size\"}");
    later.add(test_item(2).key(ctx), value_of(3));
    later.add(test_item(9).key(ctx), value_of(9));
    j.append_batch(later);
  }
  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 300u + 5 + 3);
  EXPECT_EQ(j.item_count(), 6u);
  EXPECT_EQ(j.size(), 306u);
  EXPECT_EQ(j.truncated_bytes(), 0u);
  EXPECT_EQ(*j.find("req:7"), "{\"op\":\"size\"}");
  EXPECT_EQ(*j.find("req:299"), "{\"op\":\"rank\",\"wl\":299}");
  std::uint64_t ctx = 0;
  ASSERT_TRUE(j.find_context(kPrefix, ctx));
  for (unsigned i = 0; i < 10; ++i) {
    SCOPED_TRACE(i);
    ItemValue back;
    const bool held = i < 5 || i == 9;
    ASSERT_EQ(find_one(j, test_item(i).key(ctx), back), held);
    if (held) {
      EXPECT_TRUE(same_value(back, value_of(i == 2 ? 3 : i)));
    }
  }
  // Items appended after a replay land in the table sized at open().
  JournalBatch more;
  for (unsigned i = 10; i < 40; ++i) more.add(test_item(i).key(ctx), value_of(i));
  j.append_batch(more);
  EXPECT_EQ(j.item_count(), 36u);
  ItemValue back;
  ASSERT_TRUE(find_one(j, test_item(39).key(ctx), back));
  EXPECT_TRUE(same_value(back, value_of(39)));
}

TEST_F(JournalTest, TornMidGroupJournalKeepsItsWholeGroups) {
  // Three 64-item groups, the file cut halfway through the third: replay
  // keeps the first two groups and the text record between them, and
  // truncates the half group.
  constexpr unsigned kGroup = 64;
  std::vector<std::array<std::uint64_t, 2>> words(3 * kGroup);
  std::uint64_t ctx = 0;
  std::uintmax_t whole = 0;
  const auto key = [&](std::size_t i) { return ItemKey{ctx, 8, words[i].data()}; };
  {
    Journal j;
    j.open(path());
    ctx = j.register_context(kPrefix);
    for (std::uint64_t i = 0; i < words.size(); ++i) words[i] = {i, ~i & 0xFFu};
    for (unsigned g = 0; g < 3; ++g) {
      JournalBatch batch;
      for (unsigned k = 0; k < kGroup; ++k) {
        batch.add(key(g * kGroup + k), value_of(g * kGroup + k));
      }
      if (g == 1) batch.add("meta:between", "groups");
      j.append_batch(batch);
      if (g == 1) whole = std::filesystem::file_size(path());
    }
  }
  const std::string full = slurp(path());
  const std::size_t cut = whole + (full.size() - whole) / 2;
  write_file(path(), full.substr(0, cut));
  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 2u * kGroup + 1);
  EXPECT_EQ(j.item_count(), 2u * kGroup);
  EXPECT_EQ(j.truncated_bytes(), cut - whole);
  EXPECT_EQ(std::filesystem::file_size(path()), whole);
  EXPECT_EQ(*j.find("meta:between"), "groups");
  for (unsigned i = 0; i < 3 * kGroup; ++i) {
    ItemValue back;
    ASSERT_EQ(find_one(j, key(i), back), i < 2 * kGroup) << i;
    if (i < 2 * kGroup) {
      EXPECT_TRUE(same_value(back, value_of(i))) << i;
    }
  }
}


// util::crc32 against a bitwise reference of the reflected IEEE 802.3
// CRC-32.  Inputs of 64 bytes or more take the carry-less-multiply fold
// where the CPU has one (its tail, and shorter inputs, the table loop),
// so lengths and start offsets cover both paths and unaligned loads.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  mtcmos::Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.engine()());
  return out;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(mtcmos::util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(mtcmos::util::crc32("", 0), 0u);
}

TEST(Crc32, MatchesBitwiseAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = random_bytes(1100 + 16, 1);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(mtcmos::util::crc32(buf.data() + off, len), crc32_bitwise(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, MatchesBitwiseOnLargeInputsWithSeeds) {
  const std::vector<unsigned char> buf = random_bytes(std::size_t{1} << 20, 2);
  mtcmos::Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t len = rng.uniform_int(0, buf.size());
    const std::size_t off = rng.uniform_int(0, buf.size() - len);
    const auto seed = static_cast<std::uint32_t>(rng.engine()());
    ASSERT_EQ(mtcmos::util::crc32(buf.data() + off, len, seed),
              crc32_bitwise(buf.data() + off, len, seed))
        << "offset " << off << " length " << len << " seed " << seed;
  }
}

TEST(Crc32, ChainsAtEverySplit) {
  const std::vector<unsigned char> buf = random_bytes(300, 4);
  const std::uint32_t whole = mtcmos::util::crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, crc32_bitwise(buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    EXPECT_EQ(mtcmos::util::crc32(buf.data() + split, buf.size() - split,
                                  mtcmos::util::crc32(buf.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
