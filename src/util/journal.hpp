#pragma once
// Append-only, checksummed, crash-safe record log.
//
// A Journal persists (key, value) string records for runs that must
// survive process death: records are committed in groups, each group a
// single write() of its fully formatted records (append() is the group
// of one), so a crash can only ever produce a *truncated tail* -- whole
// records before it, at most one torn record at it -- never an
// interleaved or half-updated interior.  On open the file is
// replayed record by record; the first malformed or checksum-failing
// record marks the torn tail, which is truncated away so the file is
// again a clean sequence of records before any new append.  Later
// records for the same key win (append-only update semantics); compact()
// rewrites the latest record per key into a temporary file and renames
// it over the journal atomically, so even a crash mid-compaction leaves
// either the old or the new file, both valid.
//
// Record format (text, greppable):
//
//   J1 <crc32-hex> <key-bytes> <value-bytes>\n<key><value>\n
//
// where crc32 covers the concatenated key+value payload.  Keys and
// values are arbitrary bytes except that keys must not be empty;
// embedded newlines are fine because the header carries exact lengths.
//
// Durability: appends are written to the fd immediately (they survive
// process death -- SIGKILL, OOM kill, abort -- without any flush).
// fsync only narrows the *kernel*-crash / power-loss window, so it is
// batched by time, not by record count: at most one fsync per
// JournalOptions::fsync_interval_s (plus on flush()/close), bounding
// both the exposure window and the overhead on sweeps whose items are
// cheaper than an fsync.  fsync_every adds a count-based trigger on top
// (counting records, checked once per group) for callers that want
// per-record durability (fsync_every = 1).
//
// Thread safety: append()/append_batch()/flush()/compact() are
// mutex-serialized and safe to call from pool workers -- a compaction
// racing concurrent appends lands every group in either the old or the
// new file, never torn across both (the daemon compacts its request
// journal while the executor appends).  Readers -- find(), contains(),
// size(), for_each() -- share the lock, so parallel replays of a store
// do not serialize on each other.  find() returns a copy, so a reader
// never sees a value a concurrent append is overwriting.
// open/replay are owner-thread operations.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mtcmos::util {

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// One (key, value) record of a group handed to Journal::append_batch.
using JournalRecord = std::pair<std::string, std::string>;

struct JournalOptions {
  /// Max seconds between fsyncs while appending; 0 disables the timer.
  /// A kernel crash or power loss can lose at most this much of the most
  /// recent work (process death alone loses nothing).
  double fsync_interval_s = 0.5;
  std::size_t fsync_every = 0;  ///< also fsync every N records; 0 = timer only
};

class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating if absent) and replay `path`.  A torn tail -- the
  /// unfinished record a crash mid-append leaves behind -- is detected by
  /// length/checksum and truncated away.  Throws std::runtime_error on
  /// I/O errors (unreadable directory, permission).
  void open(const std::string& path, JournalOptions options = {});
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Append one record: the kJournalAppend fault-injection check, then
  /// append_batch() of that single record.
  void append(const std::string& key, const std::string& value);

  /// Append `records` in order as one group: every record is formatted
  /// into one buffer outside the lock, then written with a single
  /// write(); fsync per the options.  No fault-injection check -- callers
  /// that stage records (sizing::Checkpoint) check each one as they stage
  /// it.  Throws std::invalid_argument on an empty key (nothing written)
  /// and std::runtime_error if the write fails (disk full).
  void append_batch(const std::vector<JournalRecord>& records);

  /// fsync the fd (no-op when nothing was appended since the last sync).
  void flush();

  /// Close the fd (flushing first).  Replayed state stays queryable.
  void close();

  /// Copy of the latest value for `key` (replayed + appended records),
  /// or nullopt.  A copy, not a pointer: a concurrent append of the same
  /// key may overwrite the stored value at any time.
  std::optional<std::string> find(const std::string& key) const;
  bool contains(const std::string& key) const;
  std::size_t size() const;  ///< distinct keys
  /// Records replayed from disk at open() (resume diagnostics).
  std::size_t replayed_records() const { return replayed_records_; }
  /// Bytes of torn tail discarded at open() (0 for a clean file).
  std::size_t truncated_bytes() const { return truncated_bytes_; }

  /// Visit the latest record per key (unspecified order).
  void for_each(const std::function<void(const std::string&, const std::string&)>& fn) const;

  /// Rewrite the journal as one record per key (latest value), via a
  /// temporary file + atomic rename, then reopen for append.
  void compact();

 private:
  std::string path_;
  JournalOptions options_;
  int fd_ = -1;
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::string> latest_;
  std::size_t appended_since_sync_ = 0;
  std::chrono::steady_clock::time_point last_sync_ = {};
  std::size_t replayed_records_ = 0;
  std::size_t truncated_bytes_ = 0;
};

/// One formatted record (append() writes exactly this; append_batch()
/// writes the concatenation for its group).  Exposed so tests can compute
/// offsets when simulating torn tails.
std::string format_journal_record(const std::string& key, const std::string& value);

/// Merge every record of the journal file at `source_path` into `dest`
/// (latest value per key; keys whose latest value already matches in
/// `dest` are not re-appended).  `skip`, when set, drops matching keys
/// entirely -- the sharded sweep supervisor uses it to exclude worker
/// heartbeat records from the merged campaign journal.  The source is
/// replayed with the same torn-tail truncation as open(), so a journal
/// left behind by a SIGKILLed worker merges cleanly.  Keys are visited
/// in sorted order, making the merged file's contents deterministic.
/// Returns the number of records appended to `dest`.  Throws
/// std::runtime_error if the source cannot be read.
std::size_t merge_journal_file(Journal& dest, const std::string& source_path,
                               const std::function<bool(const std::string& key)>& skip = {});

}  // namespace mtcmos::util
