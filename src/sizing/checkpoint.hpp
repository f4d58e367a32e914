#pragma once
// Crash-safe checkpointing for sweep sessions.
//
// A Checkpoint wraps a util::Journal and gives the sweep entry points
// (sizing/session.hpp) a typed record store: per-item Outcomes keyed by
// a deterministic item identity -- netlist fingerprint + backend + sweep
// operation + W/L (the pass *context*) + vector transition.  Because keys are
// content-derived (never "item 37 of this process"), an identical
// re-invocation of a sweep maps every already-completed item to its
// journaled outcome and skips the simulation: a run interrupted at any
// point and resumed produces results and a SweepReport bit-identical to
// an uninterrupted run.  Doubles are stored as their exact 64-bit
// patterns, so replayed values round-trip without losing a single ulp.
//
// Items: PassKeys (below) keys every sweep pass; its context's "ctx:"
// record maps the 64-bit id back to the pass prefix, so an id collision
// is a coded error instead of a wrong replay.  Each item is a fixed-width
// journal item record (util/journal.hpp) committed in CRC-checked groups
// of up to 64, one write() per group: the crash-loss unit is one commit
// group.  Key strings exist only for row keys and the cold string view.
// A journal written before the item record kind (text item records,
// "rank:...:<bits>-<bits>" -> "ok ...") is refused at open() with a
// kInvalidArgument NumericalError and left untouched.
//
// What is persisted: successes and genuine numerical failures.  The one
// outcome that only describes the *interruption itself* -- kCancelled --
// is deliberately not persisted, so resuming after a Ctrl-C re-runs the
// cancelled items instead of replaying the cancellation forever.  The
// step and breakpoint budgets are deterministic, so their
// kDeadlineExceeded verdicts are persisted like any other numerical
// failure.
//
// Run-configuration guard: bind_meta() records named configuration
// strings (target, bounds, seed, ...) on first use and throws a coded
// kInvalidArgument NumericalError when a resume presents different
// values, so a journal can never silently mix two different runs.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sizing/backend.hpp"
#include "sizing/eval_types.hpp"
#include "util/failure.hpp"
#include "util/journal.hpp"

namespace mtcmos::sizing {

class ResultSink;  // sizing/result_sink.hpp

/// Typed keys of one sweep pass: its context id and every transition
/// packed into 64-bit words once, so the per-item path hashes words
/// instead of formatting strings.  Copies share the packed words, so
/// PassKeys::rekey() keys the same transitions in another pass (a
/// bisection's next probe) without repacking them.  Every transition of
/// a pass must have the same width (std::invalid_argument otherwise).
class ItemKeys {
 public:
  ItemKeys() = default;
  ItemKeys(std::uint64_t context, const VectorPair* vectors, std::size_t n);
  ItemKeys(std::uint64_t context, const std::vector<VectorPair>& vectors)
      : ItemKeys(context, vectors.data(), vectors.size()) {}

  util::ItemKey operator[](std::size_t i) const {
    return {context_, bits_, words_.get() + i * stride_};
  }

 private:
  friend class PassKeys;
  std::uint64_t context_ = 0;
  std::uint32_t bits_ = 0;
  std::size_t stride_ = 0;
  std::shared_ptr<const std::uint64_t[]> words_;
};

class Checkpoint {
 public:
  /// Caller-owned group of records awaiting commit().
  using Stage = util::JournalBatch;

  /// Identity of one outcome record: a typed sweep item, or -- when
  /// `text` is set -- a text record such as a campaign chunk.
  struct Key {
    Key(const util::ItemKey& k) : item(k) {}  // NOLINT: implicit by design
    Key(std::string t) : text(std::move(t)) {}  // NOLINT: implicit by design
    util::ItemKey item;
    std::string text;
  };

  Checkpoint() = default;

  /// Open (creating or resuming) the journal at `path`.  Throws
  /// std::runtime_error on I/O failure, and a kInvalidArgument
  /// NumericalError -- leaving the file untouched -- if it holds text item
  /// records of the old format.
  void open(const std::string& path);
  bool armed() const { return journal_.is_open(); }
  util::Journal& journal() { return journal_; }
  const util::Journal& journal() const { return journal_; }

  /// First call stores `value` under meta name `name`; later calls (and
  /// later runs resuming this journal) throw a kInvalidArgument-coded
  /// NumericalError if `value` differs from the stored one.
  void bind_meta(const std::string& name, const std::string& value);

  /// Context id of the pass whose key prefix is `prefix`
  /// (checkpoint_prefix), registered on first use; a kInvalidArgument
  /// NumericalError if the id is taken by another prefix.
  std::uint64_t context(const std::string& prefix) { return journal_.register_context(prefix); }

  /// Outcome records.  Reads answer from the replayed and committed
  /// records, also after journal().close() (an unopened checkpoint has
  /// none).  lookup returns false when the record is absent and throws a
  /// kInvalidArgument NumericalError on a record no writer of this type
  /// produced (a bad value count, failure code or attempt count); record
  /// silently skips outcomes that describe the interruption rather than
  /// the item (see header), and record_failure stages a bare failure that
  /// either lookup type replays (the supervisor's kPoisonedItem stamps).
  ///
  /// Range reads are the unit of item lookup: lookup(keys, begin, end,
  /// out) reads items [begin, end) from the journal in one range
  /// (util::Journal::find_items: one reader lock, the packed words read in
  /// place), decoding each held record under that lock into
  /// out[i - begin].  It returns a mask, 1 where the item's record is
  /// present; a null `out` reads presence only.  The one-key
  /// contains/lookup of an item key are its one-key case; those of a text
  /// key read the text record.
  ///
  /// Group commit: record() encodes into the caller's stage, and commit()
  /// writes the whole stage with one write().  Staged records are
  /// invisible to lookup until committed.  The kJournalAppend fault check
  /// runs at staging time, once per staged record, under the caller's
  /// fault-injection scope: a kill plan aimed at item N fires while item N
  /// is staged, and the uncommitted group is lost exactly as a crash
  /// would lose it.
  /// T is double or VectorDelay.
  template <typename T>
  std::vector<char> lookup(const ItemKeys& keys, std::size_t begin, std::size_t end,
                           Outcome<T>* out) const {
    return lookup_items(keys[begin], end - begin, out);
  }
  bool contains(const Key& key) const;
  bool lookup(const Key& key, Outcome<double>& out) const { return lookup_as(key, out); }
  bool lookup(const Key& key, Outcome<VectorDelay>& out) const { return lookup_as(key, out); }
  void record(const Key& key, const Outcome<double>& outcome, Stage& stage) const;
  void record(const Key& key, const Outcome<VectorDelay>& outcome, Stage& stage) const;
  void record_failure(const Key& key, const FailureInfo& info, Stage& stage) const;
  /// Write every staged record with one write(), then clear `stage`.
  void commit(Stage& stage);

  /// Cold string-keyed view, one committed record per record() call.  A
  /// key of the item form "<prefix><v0 bits>-<v1 bits>" (what
  /// Journal::for_each renders) addresses the typed item; any other key
  /// is a text record (campaign "chunk:" records).  No sweep path uses it.
  bool lookup(const std::string& key, Outcome<double>& out) const { return view_lookup(key, out); }
  bool lookup(const std::string& key, Outcome<VectorDelay>& out) const {
    return view_lookup(key, out);
  }
  void record(const std::string& key, const Outcome<double>& outcome) { view_record(key, outcome); }
  void record(const std::string& key, const Outcome<VectorDelay>& outcome) {
    view_record(key, outcome);
  }

  /// Whether a failed outcome belongs in the journal: an interruption
  /// artifact (kCancelled) must be re-run on resume, not replayed.
  static bool should_persist(const FailureInfo& failure);

 private:
  template <typename T>
  bool lookup_as(const Key& key, Outcome<T>& out) const;
  /// The range read under every item lookup: the `n` items packed from
  /// `first` on (util::Journal::find_items) into out[0, n).
  template <typename T>
  std::vector<char> lookup_items(const util::ItemKey& first, std::size_t n, Outcome<T>* out) const;
  template <typename T>
  bool view_lookup(const std::string& key, Outcome<T>& out) const;
  template <typename T>
  void view_record(const std::string& key, const Outcome<T>& outcome);

  util::Journal journal_;
};

/// FNV-1a fingerprint of the canonical .mtn serialization plus the
/// observed outputs: two sweeps share item records iff they evaluate the
/// same circuit through the same observation points.
std::uint64_t netlist_fingerprint(const netlist::Netlist& nl,
                                  const std::vector<std::string>& outputs);

/// The key formats PassKeys builds, public for tests: a pass prefix with
/// (NaN-free) or without W/L bits, rank_prefix for op "rank", and an item
/// key -- the prefix, then the transition's v0/v1 bit strings.
std::string checkpoint_prefix(const char* op, const char* backend_name, std::uint64_t fingerprint,
                              double wl);
std::string checkpoint_prefix_nowl(const char* op, const char* backend_name,
                                   std::uint64_t fingerprint);
std::string rank_prefix(const EvalBackend& backend, double wl);
std::string checkpoint_item_key(const std::string& prefix, const VectorPair& vp);
/// Append `bits` as '0'/'1' characters, bit 0 first.
void append_bits(std::string& out, const std::vector<bool>& bits);

/// The identity of one sweep pass, and the one place a sweep's keys are
/// built: the prefix "<op>:<backend>:<netlist fingerprint>:[<W/L bits>:]",
/// its context in an armed checkpoint (registered, or with kFind only
/// found), the transitions packed once as ItemKeys in that context, and
/// the row keys of a sink that wants_keys().  Nothing is fingerprinted or
/// formatted unless one of those two reads it; rekey() and over() reuse
/// the fingerprint and the packing for an entry point's other passes.
class PassKeys {
 public:
  enum class Context { kRegister, kFind };

  /// `op` over `backend` at `wl` (nullopt: no W/L dimension); either pointer may be null.
  PassKeys(Checkpoint* checkpoint, const ResultSink* sink, const char* op,
           const EvalBackend& backend, std::optional<double> wl,
           std::span<const VectorPair> vectors, Context mode = Context::kRegister);
  /// Logic-level screening: the bare netlist, no outputs, backend "logic".
  PassKeys(Checkpoint* checkpoint, const ResultSink* sink, const char* op,
           const netlist::Netlist& nl, std::span<const VectorPair> vectors);
  PassKeys rekey(const char* op, std::optional<double> wl) const;  ///< same transitions
  PassKeys over(std::span<const VectorPair> vectors) const;        ///< same pass

  const ItemKeys& items() const { return items_; }  ///< empty unless found()
  bool found() const { return found_; }  ///< an armed checkpoint holds the context
  /// The row key of `vp`, empty unless the sink wants keys; valid until the next call.
  const std::string& row_key(const VectorPair& vp) {
    if (row_keys_) key_ = checkpoint_item_key(prefix_, vp);
    return key_;
  }

 private:
  PassKeys(Checkpoint* checkpoint, const ResultSink* sink, const char* backend,
           const netlist::Netlist& nl, const std::vector<std::string>& outputs, Context mode);

  Checkpoint* checkpoint_;  ///< armed, or null
  bool row_keys_;
  Context mode_;
  const char* backend_;
  std::uint64_t fingerprint_;
  std::string prefix_;
  ItemKeys items_;
  bool found_ = false;
  std::string key_;  ///< row_key()'s buffer
};

}  // namespace mtcmos::sizing
