// Columnar block store: roundtrip, width changes, tagging, torn-tail
// truncation on append-reopen, no torn bytes after a failed flush, CRC
// rejection, first-block-wins merge dedup, and the discard() abandon path.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/columnar.hpp"
#include "scratch_dir.hpp"

namespace mtcmos {
namespace {

using util::ColumnarOptions;
using util::ColumnarRow;
using util::ColumnarWriter;
using util::merge_columnar_file;
using util::scan_columnar_file;

struct Row {
  std::uint64_t tag;
  std::string key;
  std::vector<double> values;
};

std::vector<Row> scan_all(const std::string& path) {
  std::vector<Row> rows;
  scan_columnar_file(path, [&](const ColumnarRow& r) {
    rows.push_back({r.tag, std::string(r.key), std::vector<double>(r.values, r.values + r.n_cols)});
  });
  return rows;
}

class ColumnarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::scratch_dir("columnar_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name = "rows.mtc") const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(ColumnarTest, RoundTripPreservesKeysValuesAndOrder) {
  ColumnarWriter w;
  w.open(path());
  const double a[3] = {1.5, -2.25, 1e-12};
  const double b[3] = {0.0, 3.0, 0x1.fffffffffffffp+1};
  w.append("item:a", a, 3);
  w.append("item:b", b, 3);
  w.close();

  const auto rows = scan_all(path());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "item:a");
  EXPECT_EQ(rows[1].key, "item:b");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rows[0].values[static_cast<std::size_t>(i)], a[i]);  // exact bit patterns
    EXPECT_EQ(rows[1].values[static_cast<std::size_t>(i)], b[i]);
  }
}

TEST_F(ColumnarTest, WidthChangeStartsANewBlock) {
  ColumnarWriter w;
  w.open(path());
  const double wide[3] = {1, 2, 3};
  const double narrow = 9.5;
  w.append("wide", wide, 3);
  w.append("narrow", &narrow, 1);  // must not throw; flushes the 3-col block
  w.close();
  EXPECT_EQ(w.blocks_written(), 2u);

  const auto rows = scan_all(path());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].values.size(), 3u);
  EXPECT_EQ(rows[1].values.size(), 1u);
}

TEST_F(ColumnarTest, TagsStampBlocksAndSettingATagFlushes) {
  ColumnarWriter w;
  w.open(path());
  const double v = 1.0;
  w.set_tag(7);
  w.append("k7", &v, 1);
  w.set_tag(8);  // flushes the tag-7 block first
  w.append("k8", &v, 1);
  w.close();

  const auto rows = scan_all(path());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tag, 7u);
  EXPECT_EQ(rows[1].tag, 8u);
}

TEST_F(ColumnarTest, AppendReopenExtendsTheFile) {
  const double v = 2.5;
  {
    ColumnarWriter w;
    w.open(path());
    w.set_tag(1);
    w.append("first", &v, 1);
    w.close();
  }
  {
    ColumnarWriter w;
    w.open(path());
    EXPECT_EQ(w.truncated_bytes(), 0u);
    w.set_tag(2);
    w.append("second", &v, 1);
    w.close();
  }
  const auto rows = scan_all(path());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "first");
  EXPECT_EQ(rows[1].key, "second");
}

TEST_F(ColumnarTest, TornTailIsTruncatedOnReopenAndSkippedByScan) {
  const double v = 4.0;
  {
    ColumnarWriter w;
    w.open(path());
    w.append("good", &v, 1);
    w.flush();
    w.append("torn", &v, 1);
    w.flush();
    w.close();
  }
  // Shear the last 5 bytes off: a crash mid-write of the second block.
  const auto full = std::filesystem::file_size(path());
  std::filesystem::resize_file(path(), full - 5);

  std::vector<Row> rows;
  const std::size_t skipped =
      scan_columnar_file(path(), [&](const ColumnarRow& r) {
        rows.push_back({r.tag, std::string(r.key), {}});
      });
  EXPECT_GT(skipped, 0u);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "good");

  // Append-reopen truncates the torn tail, then new blocks extend cleanly.
  ColumnarWriter w;
  w.open(path());
  EXPECT_GT(w.truncated_bytes(), 0u);
  w.append("after", &v, 1);
  w.close();
  const auto after = scan_all(path());
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].key, "good");
  EXPECT_EQ(after[1].key, "after");
}

TEST_F(ColumnarTest, FailedFlushLeavesNoTornBytesForTheNextBlock) {
  // A block write cut short (here by RLIMIT_FSIZE, 10 bytes past the
  // first block) must not leave torn bytes for the next block to land
  // after: the next open() would cut that whole block away.  The limit is
  // set in a forked child, so this process keeps its own; the child exits
  // with the number of the first check that failed.
  const std::string p = path();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    int failed = 0;
    try {
      const double v[2] = {1.0, 2.0};
      ColumnarWriter w;
      w.open(p);
      w.set_tag(1);
      w.append("a", v, 2);
      w.flush();
      const std::uintmax_t size = std::filesystem::file_size(p);
      ::signal(SIGXFSZ, SIG_IGN);
      rlimit lifted{};
      ::getrlimit(RLIMIT_FSIZE, &lifted);
      rlimit capped = lifted;
      capped.rlim_cur = static_cast<rlim_t>(size + 10);
      w.set_tag(2);
      w.append("b", v, 2);
      bool threw = false;
      if (::setrlimit(RLIMIT_FSIZE, &capped) != 0) _exit(1);
      try {
        w.flush();
      } catch (const std::runtime_error&) {
        threw = true;
      }
      if (::setrlimit(RLIMIT_FSIZE, &lifted) != 0) _exit(2);
      if (!threw) _exit(3);
      if (std::filesystem::file_size(p) != size) _exit(4);
      w.flush();  // the rows the failed flush kept, as one whole block
      w.set_tag(3);
      w.append("c", v, 2);
      w.close();
      ColumnarWriter back;
      back.open(p);
      if (back.truncated_bytes() != 0) _exit(5);
      back.close();
      const std::vector<Row> rows = scan_all(p);
      if (rows.size() != 3) _exit(6);
      if (rows[0].key != "a" || rows[1].key != "b" || rows[2].key != "c") _exit(7);
      if (rows[0].tag != 1 || rows[1].tag != 2 || rows[2].tag != 3) _exit(8);
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

TEST_F(ColumnarTest, CorruptedPayloadStopsTheScanAtTheBadBlock) {
  const double v = 8.0;
  {
    ColumnarWriter w;
    w.open(path());
    w.append("ok", &v, 1);
    w.flush();
    w.append("bad", &v, 1);
    w.flush();
    w.close();
  }
  // Flip one byte in the *last* block's payload; its CRC must reject it.
  const auto size = std::filesystem::file_size(path());
  std::fstream f(path(), std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(size - 3));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(size - 3));
  byte = static_cast<char>(byte ^ 0x5A);
  f.write(&byte, 1);
  f.close();

  std::vector<Row> rows;
  const std::size_t skipped = scan_columnar_file(path(), [&](const ColumnarRow& r) {
    rows.push_back({r.tag, std::string(r.key), {}});
  });
  EXPECT_GT(skipped, 0u);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "ok");
}

TEST_F(ColumnarTest, DiscardDropsBufferedRowsOnly) {
  ColumnarWriter w;
  w.open(path());
  const double v = 1.0;
  w.set_tag(1);
  w.append("committed", &v, 1);
  w.flush();
  w.set_tag(2);
  w.append("abandoned", &v, 1);
  w.discard();  // interrupted chunk: no partial tag-2 block may land
  w.close();

  const auto rows = scan_all(path());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "committed");
  // A later complete re-run of tag 2 is then the first (and only) block.
  ColumnarWriter w2;
  w2.open(path());
  w2.set_tag(2);
  w2.append("rerun", &v, 1);
  w2.close();
  const auto after = scan_all(path());
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].tag, 2u);
  EXPECT_EQ(after[1].key, "rerun");
}

TEST_F(ColumnarTest, MergeDedupesByTagFirstBlockWins) {
  const double one = 1.0, two = 2.0;
  // Shard A holds tags 1 and 2; shard B holds tags 2 and 3 (duplicate 2).
  {
    ColumnarWriter a;
    a.open(path("a.mtc"));
    a.set_tag(1);
    a.append("t1", &one, 1);
    a.set_tag(2);
    a.append("t2", &one, 1);
    a.close();
    ColumnarWriter b;
    b.open(path("b.mtc"));
    b.set_tag(2);
    b.append("t2", &one, 1);
    b.set_tag(3);
    b.append("t3", &two, 1);
    b.close();
  }
  ColumnarWriter dest;
  dest.open(path("merged.mtc"));
  std::vector<std::uint64_t> seen;
  const std::size_t from_a = merge_columnar_file(dest, path("a.mtc"), &seen);
  const std::size_t from_b = merge_columnar_file(dest, path("b.mtc"), &seen);
  dest.close();
  EXPECT_EQ(from_a, 2u);
  EXPECT_EQ(from_b, 1u);  // duplicate tag 2 dropped

  const auto rows = scan_all(path("merged.mtc"));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].tag, 1u);
  EXPECT_EQ(rows[1].tag, 2u);
  EXPECT_EQ(rows[2].tag, 3u);
}

TEST_F(ColumnarTest, MergeSeesDestinationsExistingTags) {
  const double v = 1.0;
  {
    ColumnarWriter src;
    src.open(path("src.mtc"));
    src.set_tag(5);
    src.append("dup", &v, 1);
    src.close();
  }
  ColumnarWriter dest;
  dest.open(path("dest.mtc"));
  dest.set_tag(5);
  dest.append("original", &v, 1);
  dest.flush();
  std::vector<std::uint64_t> seen;  // pre-populated from dest by the first call
  EXPECT_EQ(merge_columnar_file(dest, path("src.mtc"), &seen), 0u);
  dest.close();

  const auto rows = scan_all(path("dest.mtc"));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "original");
}

TEST_F(ColumnarTest, ScanOfMissingFileThrows) {
  EXPECT_THROW(scan_columnar_file(path("absent.mtc"), [](const ColumnarRow&) {}),
               std::runtime_error);
}

TEST_F(ColumnarTest, BlockFilterSkipsWholeBlocks) {
  ColumnarWriter w;
  w.open(path());
  const double v = 1.0;
  w.set_tag(1);
  w.append("keep", &v, 1);
  w.set_tag(2);
  w.append("skip", &v, 1);
  w.close();

  std::vector<Row> rows;
  scan_columnar_file(
      path(), [&](const ColumnarRow& r) { rows.push_back({r.tag, std::string(r.key), {}}); },
      [](std::uint64_t tag) { return tag != 2; });
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "keep");
}

TEST_F(ColumnarTest, AutoFlushAtRowsPerBlock) {
  ColumnarOptions opts;
  opts.rows_per_block = 4;
  ColumnarWriter w;
  w.open(path(), opts);
  const double v = 3.0;
  for (int i = 0; i < 10; ++i) w.append(std::string("k").append(std::to_string(i)), &v, 1);
  EXPECT_EQ(w.blocks_written(), 2u);  // two full blocks; 2 rows still buffered
  w.close();
  EXPECT_EQ(scan_all(path()).size(), 10u);
}

}  // namespace
}  // namespace mtcmos
