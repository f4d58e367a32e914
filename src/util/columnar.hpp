#pragma once
// Append-only columnar block store for streamed sweep results.
//
// A Journal (util/journal.hpp) keeps the latest value per key in RAM,
// which is exactly right for checkpoint *state* and exactly wrong for
// million-row *results*: a PVT x vector x W/L campaign produces more
// rows than fit in memory, and no consumer of those rows ever needs
// random access -- reporting, merging, and aggregation are all scans.
// The columnar store is the result-side complement of the journal:
// rows are buffered into fixed-width structure-of-arrays blocks and
// appended to disk, so writer RAM is bounded by one block regardless of
// how many rows a run emits, and readers stream one block at a time.
//
// File = a sequence of self-describing blocks:
//
//   header (fixed width, CRC'd):
//     magic "MTCB1\n", header crc32, payload crc32,
//     n_rows, n_cols, tag (u64, caller-defined block identity),
//     key_bytes, payload_bytes
//   payload (SoA):
//     key_len column   u32[n_rows]
//     key blob         key_bytes of concatenated keys
//     value columns    n_cols x u64[n_rows] (exact double bit patterns)
//
// Rows carry the same content-derived keys as the checkpoint journal, so
// shard stores merge by identity exactly like shard journals do.  Values
// are stored as their 64-bit patterns: a replayed row is bit-identical
// to the run that produced it.
//
// Crash safety is util/append_file.hpp's, with a block as the unit:
// open() for append scans the existing file and cuts a torn or
// checksum-failing tail block away before new blocks land; readers stop
// at the first bad block and report the discarded bytes.  Nothing is
// synced until sync(): a caller that journals "these rows exist" syncs
// first, so a power loss cannot keep the record and drop the rows.
//
// Block identity and merge: the `tag` field names the unit of work that
// produced a block (a campaign chunk, a shard row range).  Work units
// are deterministic, so two blocks with the same tag hold bit-identical
// rows -- merge_columnar_file() keeps the first and drops the rest,
// which makes "shard stores merged into a campaign store" and
// "interrupted chunk re-run after resume" both collapse to the same
// first-block-wins rule.
//
// Thread safety: append()/flush() are mutex-serialized like
// Journal::append; open/scan/merge are owner-thread operations.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/append_file.hpp"

namespace mtcmos::util {

struct ColumnarOptions {
  /// Rows buffered before a block is flushed to disk; the writer's RAM
  /// ceiling.  Callers with a natural work unit (a campaign chunk)
  /// usually flush explicitly at unit boundaries instead.
  std::size_t rows_per_block = 4096;
};

/// One decoded row handed to scan callbacks.  `values` points into the
/// reader's block buffer and is valid only during the callback.
struct ColumnarRow {
  std::uint64_t tag = 0;            ///< the containing block's tag
  std::string_view key;             ///< content-derived row identity
  const double* values = nullptr;   ///< n_cols doubles, exact bit patterns
  std::size_t n_cols = 0;
};

class ColumnarWriter {
 public:
  ColumnarWriter() = default;
  ~ColumnarWriter();

  ColumnarWriter(const ColumnarWriter&) = delete;
  ColumnarWriter& operator=(const ColumnarWriter&) = delete;

  /// Open `path` for appending, creating it if absent.  An existing file
  /// is scanned first: a torn tail block (crash mid-write) is truncated
  /// away, so appends always extend a clean block sequence.  Throws
  /// std::runtime_error on I/O failure.
  void open(const std::string& path, ColumnarOptions options = {});
  bool is_open() const { return file_.is_open(); }
  const std::string& path() const { return file_.path(); }
  std::size_t rows_per_block() const { return options_.rows_per_block; }

  /// Buffer one row under the current tag.  Flushes automatically when
  /// the buffer reaches rows_per_block, and also when `n` differs from
  /// the buffered rows' width (blocks are fixed-width, so a width change
  /// starts a new block).  Throws std::runtime_error on write failure
  /// (disk full).
  void append(const std::string& key, const double* values, std::size_t n);

  /// Tag stamped on subsequently *started* blocks (campaign chunk id,
  /// shard id, ...).  Setting a tag while rows are buffered flushes
  /// first, so one block never mixes two tags.
  void set_tag(std::uint64_t tag);
  std::uint64_t tag() const { return tag_; }

  /// Write the buffered rows out as one block (no-op when empty).  A
  /// failed write throws, keeps the rows and leaves no torn bytes.
  void flush();
  /// flush(), then AppendFile::sync(), so every block written survives a
  /// power loss.  Throws std::runtime_error on failure or a closed writer.
  void sync();
  /// Drop the buffered (unflushed) rows without writing them -- the
  /// abandon path for an interrupted work unit, so a cancelled chunk
  /// never leaves a partial block whose tag would shadow the complete
  /// re-run under first-block-wins dedup.  Blocks already on disk are
  /// untouched.
  void discard();
  /// Flush and close the file.
  void close();

  /// Bytes of torn tail discarded by open() (0 for a clean file).
  std::size_t truncated_bytes() const { return truncated_bytes_; }
  /// Blocks written since open() (diagnostics).
  std::size_t blocks_written() const { return blocks_written_; }

 private:
  friend std::size_t merge_columnar_file(ColumnarWriter&, const std::string&,
                                         std::vector<std::uint64_t>*);
  void flush_locked();
  void append_block(const std::string& block);

  ColumnarOptions options_;
  AppendFile file_;
  mutable std::mutex mutex_;
  std::uint64_t tag_ = 0;
  std::vector<std::uint32_t> key_lens_;
  std::string key_blob_;
  std::vector<std::uint64_t> value_bits_;  ///< row-major; transposed at flush
  std::size_t block_cols_ = 0;
  std::size_t truncated_bytes_ = 0;
  std::size_t blocks_written_ = 0;
};

/// Streaming scan of the store at `path`: `fn` is called once per row,
/// in file order, one block resident at a time.  Returns the number of
/// bytes of unreadable tail skipped (0 for a clean file); a missing file
/// throws std::runtime_error.  `block_filter`, when set, is consulted
/// once per block with its tag; returning false skips the whole block
/// without decoding its rows -- the first-block-wins dedup hook.
std::size_t scan_columnar_file(
    const std::string& path, const std::function<void(const ColumnarRow&)>& fn,
    const std::function<bool(std::uint64_t tag)>& block_filter = {});

/// Append every block of `source_path` whose tag survives first-block-
/// wins dedup (against both `dest`'s existing blocks and earlier blocks
/// of this merge) to the store behind `dest`.  Blocks are copied intact
/// -- rows, key blob, CRCs -- so a merged store scans exactly like the
/// shards would have.  `seen_tags` carries the dedup state across calls
/// (pass the same set for every shard; pre-populated from `dest` by the
/// first call).  Returns the number of blocks appended.  A torn source
/// tail is skipped like any scan; a missing source throws.
std::size_t merge_columnar_file(ColumnarWriter& dest, const std::string& source_path,
                                std::vector<std::uint64_t>* seen_tags);

}  // namespace mtcmos::util
