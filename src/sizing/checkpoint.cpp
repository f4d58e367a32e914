#include "sizing/checkpoint.hpp"

#include <bit>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "netlist/io.hpp"
#include "sizing/result_sink.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mtcmos::sizing {

namespace {

[[noreturn]] void throw_corrupt(const std::string& what) {
  // A CRC-valid record that fails typed decoding means the journal was
  // produced by an incompatible writer, not torn by a crash: refuse to
  // resume rather than silently recompute half the run.
  throw NumericalError({FailureCode::kInvalidArgument, "sizing::Checkpoint",
                        "undecodable checkpoint record for " + what +
                            " (journal written by an incompatible run?)"});
}

/// Item form of a string key: its prefix and transition, or false.
bool split_item_key(const std::string& key, std::string& prefix, VectorPair& vp) {
  if (!parse_item_key_transition(key, vp)) return false;
  prefix = key.substr(0, key.find_last_of(':') + 1);
  return true;
}

util::ItemValue success_value(int attempts, std::initializer_list<double> values) {
  util::ItemValue v;
  v.attempts = attempts;
  for (const double d : values) v.value[v.values++] = std::bit_cast<std::uint64_t>(d);
  return v;
}

/// The journal form of an outcome, or nullopt when it must not persist.
std::optional<util::ItemValue> persisted(const FailureInfo& failure, int attempts) {
  if (!Checkpoint::should_persist(failure)) return std::nullopt;
  util::ItemValue v;
  v.attempts = attempts;
  v.code = static_cast<std::uint8_t>(failure.code);
  v.site = failure.site;
  v.detail = failure.context;
  return v;
}

std::optional<util::ItemValue> persisted(const Outcome<double>& o) {
  if (!o.ok()) return persisted(o.failure, o.attempts);
  return success_value(o.attempts, {*o.value});
}

std::optional<util::ItemValue> persisted(const Outcome<VectorDelay>& o) {
  if (!o.ok()) return persisted(o.failure, o.attempts);
  const VectorDelay& vd = *o.value;
  return success_value(o.attempts, {vd.delay_cmos, vd.delay_mtcmos, vd.degradation_pct});
}

double value_at(const util::ItemValue& v, int i) { return std::bit_cast<double>(v.value[i]); }

bool decode_success(const util::ItemValue& v, Outcome<double>& out) {
  if (v.values != 1) return false;
  out = Outcome<double>::success(value_at(v, 0), v.attempts);
  return true;
}

bool decode_success(const util::ItemValue& v, Outcome<VectorDelay>& out) {
  if (v.values != 3) return false;
  VectorDelay vd;  // pair is re-attached by the sweep (it is in the key)
  vd.delay_cmos = value_at(v, 0);
  vd.delay_mtcmos = value_at(v, 1);
  vd.degradation_pct = value_at(v, 2);
  out = Outcome<VectorDelay>::success(std::move(vd), v.attempts);
  return true;
}

/// Strict typed decoder: a negative attempt count, a failure code no
/// FailureCode names, or a value count of the other outcome type is not a
/// record this writer produced.
template <typename T>
bool decode(const util::ItemValue& v, Outcome<T>& out) {
  if (v.attempts < 0) return false;
  if (v.values != 0) return decode_success(v, out);
  if (v.code > static_cast<std::uint8_t>(FailureCode::kPoisonedItem)) return false;
  FailureInfo info{static_cast<FailureCode>(v.code), v.site, v.detail};
  info.attempts = v.attempts;
  out = Outcome<T>::fail(std::move(info));
  return true;
}

/// The fault check fires per record as it is staged, under the staging
/// item's scope, before anything reaches the journal.
void stage_value(Checkpoint::Stage& stage, const Checkpoint::Key& key,
                 const util::ItemValue& value) {
  faultinject::check(faultinject::Site::kJournalAppend, "sizing::Checkpoint::record");
  if (key.text.empty()) {
    stage.add(key.item, value);
  } else {
    stage.add(key.text, util::encode_item_value(value));
  }
}

}  // namespace

ItemKeys::ItemKeys(std::uint64_t context, const VectorPair* vectors, std::size_t n)
    : context_(context) {
  if (n == 0) return;
  bits_ = static_cast<std::uint32_t>(vectors[0].v0.size());
  stride_ = 2 * util::item_words(bits_);
  const std::shared_ptr<std::uint64_t[]> words = std::make_shared<std::uint64_t[]>(n * stride_);
  for (std::size_t i = 0; i < n; ++i) {
    const VectorPair& vp = vectors[i];
    if (vp.v0.size() != bits_ || vp.v1.size() != bits_) {
      throw std::invalid_argument("checkpoint: every transition of a pass must be " +
                                  std::to_string(bits_) + " bits wide");
    }
    pack_transition(vp, words.get() + i * stride_);
  }
  words_ = words;
}

PassKeys::PassKeys(Checkpoint* checkpoint, const ResultSink* sink, const char* backend,
                   const netlist::Netlist& nl, const std::vector<std::string>& outputs,
                   Context mode)
    : checkpoint_(checkpoint != nullptr && checkpoint->armed() ? checkpoint : nullptr),
      row_keys_(sink != nullptr && sink->wants_keys()),
      mode_(mode),
      backend_(backend),
      fingerprint_(checkpoint_ != nullptr || row_keys_ ? netlist_fingerprint(nl, outputs) : 0) {}

PassKeys::PassKeys(Checkpoint* checkpoint, const ResultSink* sink, const char* op,
                   const EvalBackend& backend, std::optional<double> wl,
                   std::span<const VectorPair> vectors, Context mode)
    : PassKeys(checkpoint, sink, backend.name(), backend.netlist(), backend.outputs(), mode) {
  *this = rekey(op, wl).over(vectors);
}

PassKeys::PassKeys(Checkpoint* checkpoint, const ResultSink* sink, const char* op,
                   const netlist::Netlist& nl, std::span<const VectorPair> vectors)
    : PassKeys(checkpoint, sink, "logic", nl, {}, Context::kRegister) {
  *this = rekey(op, std::nullopt).over(vectors);
}

PassKeys PassKeys::rekey(const char* op, std::optional<double> wl) const {
  PassKeys keys = *this;
  if (checkpoint_ == nullptr && !row_keys_) return keys;
  keys.prefix_ = wl ? checkpoint_prefix(op, backend_, fingerprint_, *wl)
                    : checkpoint_prefix_nowl(op, backend_, fingerprint_);
  if (checkpoint_ == nullptr) return keys;
  std::uint64_t& context = keys.items_.context_;
  keys.found_ = mode_ == Context::kRegister ||
                checkpoint_->journal().find_context(keys.prefix_, context);
  if (mode_ == Context::kRegister) context = checkpoint_->context(keys.prefix_);
  return keys;
}

PassKeys PassKeys::over(std::span<const VectorPair> vectors) const {
  PassKeys keys = *this;
  if (found_) keys.items_ = ItemKeys(items_.context_, vectors.data(), vectors.size());
  return keys;
}

void Checkpoint::open(const std::string& path) {
  // The legacy check runs before open() truncates a torn tail, so a
  // refused file keeps every byte.
  journal_.open(path, [&](const util::Journal& replayed) {
    std::string legacy;
    replayed.for_each_text([&](const std::string& key, const std::string&) {
      VectorPair vp;
      if (legacy.empty() && parse_item_key_transition(key, vp)) legacy = key;
    });
    if (!legacy.empty()) {
      throw NumericalError(
          {FailureCode::kInvalidArgument, "sizing::Checkpoint",
           "journal '" + path + "' holds text item records of an older format (e.g. '" +
               legacy + "'); it is left unchanged -- rerun into a fresh checkpoint directory"});
    }
  });
}

void Checkpoint::bind_meta(const std::string& name, const std::string& value) {
  if (!armed()) return;
  const std::string key = "meta:" + name;
  if (const std::optional<std::string> existing = journal_.find(key)) {
    if (*existing != value) {
      throw NumericalError(
          {FailureCode::kInvalidArgument, "sizing::Checkpoint",
           "journal '" + journal_.path() + "' was written by a different run: meta '" + name +
               "' is '" + *existing + "' there but '" + value +
               "' now (use a fresh checkpoint directory or rerun with the original settings)"});
    }
    return;
  }
  journal_.append(key, value);
}

bool Checkpoint::contains(const Key& key) const {
  if (!key.text.empty()) return journal_.contains(key.text);
  return journal_.find_items(key.item, 1)[0] != 0;
}

template <typename T>
std::vector<char> Checkpoint::lookup_items(const util::ItemKey& first, std::size_t n,
                                           Outcome<T>* out) const {
  if (out == nullptr) return journal_.find_items(first, n);
  const std::uint64_t context = first.context;
  return journal_.find_items(first, n, [out, context](std::size_t i, const util::ItemValue& v) {
    if (!decode(v, out[i])) throw_corrupt("an item of context " + util::hex16(context));
  });
}

template <typename T>
bool Checkpoint::lookup_as(const Key& key, Outcome<T>& out) const {
  if (key.text.empty()) return lookup_items(key.item, 1, &out)[0] != 0;
  const std::optional<std::string> bytes = journal_.find(key.text);
  if (!bytes) return false;
  util::ItemValue v;
  if (!util::decode_item_value(*bytes, v) || !decode(v, out)) {
    throw_corrupt("key '" + key.text + "'");
  }
  return true;
}

void Checkpoint::record(const Key& key, const Outcome<double>& outcome, Stage& stage) const {
  if (!armed()) return;
  if (const auto v = persisted(outcome)) stage_value(stage, key, *v);
}

void Checkpoint::record(const Key& key, const Outcome<VectorDelay>& outcome,
                        Stage& stage) const {
  if (!armed()) return;
  if (const auto v = persisted(outcome)) stage_value(stage, key, *v);
}

void Checkpoint::record_failure(const Key& key, const FailureInfo& info, Stage& stage) const {
  if (!armed()) return;
  if (const auto v = persisted(info, info.attempts)) stage_value(stage, key, *v);
}

void Checkpoint::commit(Stage& stage) {
  if (stage.empty()) return;
  journal_.append_batch(std::move(stage));
  stage.clear();
}

template <typename T>
bool Checkpoint::view_lookup(const std::string& key, Outcome<T>& out) const {
  std::string prefix;
  VectorPair vp;
  if (!split_item_key(key, prefix, vp)) return lookup_as(Key(key), out);
  std::uint64_t context = 0;
  return journal_.find_context(prefix, context) &&
         lookup_as(Key(ItemKeys(context, {vp})[0]), out);
}

template <typename T>
void Checkpoint::view_record(const std::string& key, const Outcome<T>& outcome) {
  if (!armed()) return;
  Stage stage;
  std::string prefix;
  VectorPair vp;
  if (split_item_key(key, prefix, vp)) {
    record(ItemKeys(context(prefix), {vp})[0], outcome, stage);
  } else {
    record(key, outcome, stage);
  }
  commit(stage);
}

template bool Checkpoint::view_lookup(const std::string&, Outcome<double>&) const;
template bool Checkpoint::view_lookup(const std::string&, Outcome<VectorDelay>&) const;
template void Checkpoint::view_record(const std::string&, const Outcome<double>&);
template void Checkpoint::view_record(const std::string&, const Outcome<VectorDelay>&);
template bool Checkpoint::lookup_as(const Key&, Outcome<double>&) const;
template bool Checkpoint::lookup_as(const Key&, Outcome<VectorDelay>&) const;
template std::vector<char> Checkpoint::lookup_items(const util::ItemKey&, std::size_t,
                                                    Outcome<double>*) const;
template std::vector<char> Checkpoint::lookup_items(const util::ItemKey&, std::size_t,
                                                    Outcome<VectorDelay>*) const;

bool Checkpoint::should_persist(const FailureInfo& failure) {
  return failure.code != FailureCode::kCancelled;
}

std::uint64_t netlist_fingerprint(const netlist::Netlist& nl,
                                  const std::vector<std::string>& outputs) {
  std::ostringstream os;
  netlist::write_netlist(os, nl, outputs);
  const std::string text = os.str();
  return util::fnv1a64(text.data(), text.size());
}

std::string checkpoint_prefix(const char* op, const char* backend_name,
                              std::uint64_t fingerprint, double wl) {
  return std::string(op) + ":" + backend_name + ":" + util::hex16(fingerprint) + ":" +
         util::hex16(std::bit_cast<std::uint64_t>(wl)) + ":";
}

std::string checkpoint_prefix_nowl(const char* op, const char* backend_name,
                                   std::uint64_t fingerprint) {
  return std::string(op) + ":" + backend_name + ":" + util::hex16(fingerprint) + ":";
}

std::string rank_prefix(const EvalBackend& backend, double wl) {
  return checkpoint_prefix("rank", backend.name(),
                           netlist_fingerprint(backend.netlist(), backend.outputs()), wl);
}

void append_bits(std::string& out, const std::vector<bool>& bits) {
  const std::size_t at = out.size();
  out.resize(at + bits.size());
  char* p = out.data() + at;
  for (const bool b : bits) *p++ = b ? '1' : '0';
}

std::string checkpoint_item_key(const std::string& prefix, const VectorPair& vp) {
  std::string key = prefix;
  append_bits(key, vp.v0);
  key += '-';
  append_bits(key, vp.v1);
  return key;
}

}  // namespace mtcmos::sizing
