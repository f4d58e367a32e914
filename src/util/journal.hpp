#pragma once
// Append-only, checksummed, crash-safe record log with two record kinds:
//
//   J1 <crc32-hex> <key-bytes> <value-bytes>\n<key><value>\n
//   J2 <crc32-hex> <bits> <count> <text-bytes>\n<count items><text>\n
//
// J1 is a text record: (key, value) byte strings -- run metadata,
// context registrations, daemon requests, campaign chunks.  Keys
// must not be empty; embedded newlines are fine because the header
// carries exact lengths.  Its crc32 covers key+value.
//
// J2 is a group of 1..64 fixed-width item records: sweep item outcomes
// keyed by a pass context id plus the item's v0/v1 transition packed
// into 64-bit words.  Each item is 40 + 16 * item_words(bits) bytes,
// little-endian:
//
//   u64 context | u64 v0[words] | u64 v1[words] |
//   i32 attempts | u8 values | u8 code | u16 0 | u64 value[3]
//
// `values` counts the exact double bit patterns in value[] (1..3); 0
// marks a failure, whose value[0]/value[1] are the byte lengths of its
// site and context strings, stored in item order as the group's <text>.
// The crc32 covers the header's three numbers (as text), then the
// payload.  A context id is registered by a text record
// "ctx:<16-hex id>" -> key prefix, so items need no key text yet can be
// rendered back into "<prefix><v0 bits>-<v1 bits>" keys.
//
// Each append is one AppendFile::append() of whole records (a
// JournalBatch of text records and item groups).  open() replays record
// by record; the first malformed or checksum-failing record -- including
// a non-canonical header (a lowercase 8-digit crc, decimal lengths with
// no sign or leading zero) or a length that does not fit in the bytes
// remaining -- marks the torn tail, which is cut away before any new
// append.  A group is validated whole before any of it is applied.
// Later records for the same key or item win, and an item record equal
// to the item's latest one is not written again.  In memory, text records
// live in a string map and items in an open-addressed table of fixed
// slots: open() reads the file with one read() and sizes the table once
// for the item records it replayed; appends double it as needed.
//
// Durability is util/append_file.hpp's; the journal syncs at most every
// 0.5 s while appending, plus at flush() and close().
//
// Thread safety: appends, register_context() and flush() serialize on a
// write mutex and are safe from pool workers.  The in-memory tables have
// their own reader-writer lock, held exclusively only while a written
// batch is applied, so readers never wait on a write or a sync.  Item
// reads are range reads (find_items): one reader lock per range and one
// table probe per key, so a sweep chunk of 256 items takes the lock once.
// Each held outcome is decoded under the lock, straight into the caller's
// visitor, so a reader never sees a value a concurrent append is
// overwriting, and a range sees a committed batch's items all or none.
// open/replay are owner-thread operations.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <forward_list>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/append_file.hpp"

namespace mtcmos::util {

/// Reflected IEEE 802.3 CRC-32 (zlib's crc32): `seed` is the CRC of the
/// bytes before `data`, so crc32(b, nb, crc32(a, na)) is the CRC of a then
/// b.  Two paths, one polynomial, the same result for every input: on
/// x86-64 CPUs with PCLMULQDQ and SSE4.1 (checked once per process) an
/// input of 64 bytes or more is folded 64 bytes a step by carry-less
/// multiplication, its last size % 16 bytes by the table loop; shorter
/// inputs and every other CPU take the slicing-by-8 table loop alone.
/// Journals and columnar stores therefore hold the same bytes whichever
/// path wrote or checks them.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// 64-bit FNV-1a.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 1469598103934665603ull);

/// `v` as 16 lowercase hex digits.
std::string hex16(std::uint64_t v);

/// 64-bit words per packed vector of `bits` bits.
constexpr std::size_t item_words(std::uint32_t bits) { return (bits + 63u) / 64u; }

/// Key of one item record: a registered pass context plus the item's
/// transition, bit i of each vector in word i / 64 at bit i % 64.  A view:
/// `words` (v0's item_words(bits) words, then v1's) is caller-owned.
struct ItemKey {
  std::uint64_t context = 0;
  std::uint32_t bits = 0;
  const std::uint64_t* words = nullptr;
};

/// Outcome held by an item record: `values` (1..3) exact double bit
/// patterns, or (values == 0) a failure code with its site/context text.
/// The journal stores what it is given; checking the code and attempts
/// is the typed reader's job.
struct ItemValue {
  std::int32_t attempts = 0;
  std::uint8_t values = 0;
  std::uint8_t code = 0;
  std::uint64_t value[3] = {};
  std::string site, detail;
};

/// An ItemValue as one byte string -- the item record's 32-byte outcome
/// tail, then any failure text -- for text records that carry outcomes.
/// decode returns false on bytes encode() cannot have produced.
std::string encode_item_value(const ItemValue& value);
bool decode_item_value(std::string_view bytes, ItemValue& out);

/// Records for one Journal::append_batch: text records, then items
/// (written as J2 groups of up to 64 of equal width), in one write().
class JournalBatch {
 public:
  void add(std::string key, std::string value);
  void add(const ItemKey& key, const ItemValue& value);
  bool empty() const { return text_.empty() && items_.empty(); }
  std::size_t size() const { return text_.size() + items_.size(); }
  void clear();

 private:
  friend class Journal;
  /// End of item i's bytes in bytes_ (its record, then its failure text).
  std::size_t entry_end(std::size_t i) const;
  struct Item {
    std::size_t at;
    std::uint64_t hash;
    std::uint32_t bits;
  };
  std::vector<std::pair<std::string, std::string>> text_;
  std::vector<Item> items_;
  std::string bytes_;
};

class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating if absent) and replay `path`, truncating a torn
  /// tail.  `accept`, when set, sees the replayed records before the
  /// truncation; if it throws, the journal is left closed and empty, the
  /// file unchanged, and the exception propagates.  Throws
  /// std::runtime_error on I/O errors.
  void open(const std::string& path, const std::function<void(const Journal&)>& accept = {});
  bool is_open() const { return file_.is_open(); }
  const std::string& path() const { return file_.path(); }

  /// Append one text record: the kJournalAppend fault-injection check,
  /// then append_batch() of that single record.
  void append(const std::string& key, const std::string& value);

  /// Append `batch` as one AppendFile::append() (formatted outside the
  /// lock), syncing at most every 0.5 s.  An item record equal byte for byte to the
  /// item's latest record -- an earlier one in the batch, else the
  /// journal's -- is dropped, as it changes no lookup: a transition a
  /// pass draws twice, or two threads commit at once, is journaled once.
  /// Returns the records written.  No fault-injection check -- callers
  /// that stage records (sizing::Checkpoint) check each one as they stage
  /// it.  Throws std::invalid_argument on an empty text key (nothing
  /// written) and std::runtime_error if the write fails, leaving no torn
  /// bytes behind (see AppendFile::append()).
  std::size_t append_batch(JournalBatch batch);

  /// Id of the pass context `prefix` (its FNV-1a hash), registered with a
  /// "ctx:" record on first use.  Throws a
  /// kInvalidArgument NumericalError if another prefix already holds that
  /// id.  find_context never writes: false when `prefix` is not
  /// registered.
  std::uint64_t register_context(const std::string& prefix);
  bool find_context(const std::string& prefix, std::uint64_t& id) const;

  /// Sync the file (no-op when nothing was appended since the last sync).
  void flush();

  /// Close the file (flushing first).  Replayed state stays queryable.
  void close();

  /// Latest value of text record `key`.
  std::optional<std::string> find(const std::string& key) const;
  bool contains(const std::string& key) const;
  using ItemVisitor = std::function<void(std::size_t i, const ItemValue& value)>;
  /// Range read of `n` items of `first`'s context and width whose words
  /// are packed back to back: key i's words start at
  /// first.words + i * 2 * item_words(first.bits).  One reader lock, one
  /// table probe per key; `fn`, when set, sees each held key's latest
  /// outcome, decoded under the lock (so it must not call back into the
  /// journal).  Returns a mask, 1 where key i is held.  n == 1 is the
  /// one-key read.
  std::vector<char> find_items(const ItemKey& first, std::size_t n,
                               const ItemVisitor& fn = {}) const;

  std::size_t size() const;        ///< distinct text keys + distinct items
  std::size_t item_count() const;  ///< distinct items
  /// Records replayed at open(), items one by one, registrations not
  /// counted (resume diagnostics).
  std::size_t replayed_records() const { return replayed_records_; }
  /// Bytes of torn tail discarded at open() (0 for a clean file).
  std::size_t truncated_bytes() const { return truncated_bytes_; }

  using Visitor = std::function<void(const std::string& key, const std::string& value)>;
  /// Visit the latest text record per key (unspecified order).
  void for_each_text(const Visitor& fn) const;
  /// for_each_text, then every item: a cold diagnostic view with item
  /// keys rendered as "<registered prefix><v0 bits>-<v1 bits>" and values
  /// as encode_item_value() bytes.
  void for_each(const Visitor& fn) const;

 private:
  friend std::size_t merge_journal_file(Journal&, const std::string&);
  /// An item's latest record (then its failure text) in chunks_.
  struct Item {
    const char* at;
    std::uint64_t hash;
    std::uint32_t bits;
  };

  /// Append items [begin, end) of `batch` -- all one width -- as a J2
  /// group: their records, then their failure text.
  static void format_group(std::string& out, const JournalBatch& batch, std::size_t begin,
                           std::size_t end);
  /// `batch`'s text records, then its items as J2 groups.
  static std::string format_batch(const JournalBatch& batch);
  /// Drop the items append_batch() must not write; true when any was.
  bool drop_held_items_locked(JournalBatch& batch) const;
  /// Replay the record at `pos` and advance past it; false, with nothing
  /// applied, if it is torn.  Its items join items_ unindexed.
  bool replay_record(const std::string& data, std::size_t& pos);
  /// Index the replayed items_ in a table sized once for all of them,
  /// folding repeats of a key into its first entry (a later record wins).
  void index_replayed_locked();
  void clear_tables();
  void write_locked(const std::string& bytes);
  void sync_locked();
  /// Apply a text record; false for a context registration.
  bool apply_text_locked(const std::string& key, const std::string& value);
  /// Make the record at `at` (then any failure text), which chunks_
  /// owns, the item's latest value.
  void insert_locked(const char* at, std::uint64_t hash, std::uint32_t bits);
  /// Slot holding the item of width `bits` keyed `key` -- an ItemKey or
  /// stored key bytes -- or the empty slot where it would go.
  template <typename Key>
  std::size_t probe_locked(std::uint64_t hash, std::uint32_t bits, const Key& key) const;
  /// The latest record of the item probe_locked() finds, or nullptr.
  template <typename Key>
  const char* find_locked(std::uint64_t hash, std::uint32_t bits, const Key& key) const;

  AppendFile file_;
  std::mutex write_mutex_;  ///< file_ and last_sync_; taken before mutex_
  mutable std::shared_mutex mutex_;  ///< the tables below
  std::unordered_map<std::string, std::string> latest_;
  std::unordered_map<std::uint64_t, std::string> contexts_;
  // Items in first-insertion order, pointing into chunks_ (replayed file
  // bytes and committed batches, never moved), and open-addressed slots
  // (power-of-two count) holding (hash high half | index + 1); 0 = empty.
  std::vector<Item> items_;
  std::forward_list<std::string> chunks_;
  std::vector<std::uint64_t> slots_;
  std::chrono::steady_clock::time_point last_sync_ = {};
  std::size_t replayed_records_ = 0;
  std::size_t truncated_bytes_ = 0;
};

/// One formatted text record (append() writes exactly this).  Exposed so
/// tests can compute offsets when simulating torn tails.
std::string format_journal_record(const std::string& key, const std::string& value);

/// Merge the journal file at `source_path` into `dest` with one write():
/// its context registrations, then the latest value per text key (sorted)
/// and per item (sorted by width and key bytes), skipping records `dest`
/// already holds unchanged, so the merged bytes depend only on the record
/// sets.  The source is replayed with open()'s torn-tail
/// truncation, so a SIGKILLed worker's journal merges cleanly.  Returns
/// the text and item records appended.  Throws std::runtime_error if the
/// source cannot be read, and a kInvalidArgument NumericalError if a
/// source context collides with a different `dest` context.
std::size_t merge_journal_file(Journal& dest, const std::string& source_path);

}  // namespace mtcmos::util
