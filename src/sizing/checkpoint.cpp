#include "sizing/checkpoint.hpp"

#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "netlist/io.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mtcmos::sizing {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_double(double v, std::uint64_t seed) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  return fnv1a(&bits, sizeof(bits), seed);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string double_bits(double v) { return hex64(std::bit_cast<std::uint64_t>(v)); }

bool parse_double_bits(const std::string& token, double& out) {
  std::uint64_t bits = 0;
  if (std::sscanf(token.c_str(), "%" SCNx64, &bits) != 1) return false;
  out = std::bit_cast<double>(bits);
  return true;
}

/// Strict decoder for the success form record() writes:
/// "ok <attempts> <bits>" with kN space-separated double_bits() fields,
/// each exactly 16 hex digits.  No sign on the attempt count, no "0x",
/// nothing trailing: anything else is not a record this writer produced.
template <std::size_t kN>
bool decode_ok(const std::string& value, int& attempts, double (&out)[kN]) {
  if (value.rfind("ok ", 0) != 0) return false;
  const char* p = value.data() + 3;
  const char* const end = value.data() + value.size();
  const std::from_chars_result a = std::from_chars(p, end, attempts);
  if (a.ec != std::errc() || a.ptr == p) return false;
  p = a.ptr;
  for (double& d : out) {
    if (end - p < 17 || *p != ' ') return false;
    ++p;
    std::uint64_t bits = 0;
    const std::from_chars_result b = std::from_chars(p, p + 16, bits, 16);
    if (b.ec != std::errc() || b.ptr != p + 16) return false;
    d = std::bit_cast<double>(bits);
    p += 16;
  }
  return p == end;
}

void append_bits(std::string& out, const std::vector<bool>& bits) {
  for (const bool b : bits) out += b ? '1' : '0';
}

[[noreturn]] void throw_corrupt(const std::string& key) {
  // A CRC-valid record that fails typed decoding means the journal was
  // produced by an incompatible writer, not torn by a crash: refuse to
  // resume rather than silently recompute half the run.
  throw NumericalError({FailureCode::kInvalidArgument, "sizing::Checkpoint",
                        "undecodable checkpoint record for key '" + key +
                            "' (journal written by an incompatible run?)"});
}

/// "fail <attempts> <code> <site-len> <site><context>"
std::string encode_failure(const Outcome<double>& o) {
  std::string out = "fail " + std::to_string(o.attempts) + " " +
                    std::to_string(static_cast<int>(o.failure.code)) + " " +
                    std::to_string(o.failure.site.size()) + " ";
  out += o.failure.site;
  out += o.failure.context;
  return out;
}

template <typename T>
bool decode_failure(const std::string& value, Outcome<T>& out) {
  int attempts = 0, code = 0;
  std::size_t site_len = 0;
  int consumed = 0;
  if (std::sscanf(value.c_str(), "fail %d %d %zu %n", &attempts, &code, &site_len, &consumed) !=
      3) {
    return false;
  }
  // %n lands after the trailing space unless site+context is empty, in
  // which case the scan stops at the end of the length field.
  std::size_t payload = static_cast<std::size_t>(consumed);
  if (payload > value.size() || value.size() - payload < site_len) return false;
  FailureInfo info;
  info.code = static_cast<FailureCode>(code);
  info.site = value.substr(payload, site_len);
  info.context = value.substr(payload + site_len);
  info.attempts = attempts;
  out = Outcome<T>::fail(std::move(info));
  out.attempts = attempts;
  return true;
}

/// The fault check fires per record as it is staged, under the staging
/// item's scope, before anything reaches the journal.
void stage_record(Checkpoint::Stage& stage, const std::string& key, std::string value) {
  faultinject::check(faultinject::Site::kJournalAppend, "sizing::Checkpoint::record");
  stage.emplace_back(key, std::move(value));
}

}  // namespace

void Checkpoint::open(const std::string& path, util::JournalOptions options) {
  journal_.open(path, options);
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

bool Checkpoint::lookup(const std::string& key, Outcome<double>& out) const {
  if (!armed()) return false;
  const std::optional<std::string> value = journal_.find(key);
  if (!value) return false;
  int attempts = 0;
  double v[1] = {};
  if (decode_ok(*value, attempts, v)) {
    out = Outcome<double>::success(v[0], attempts);
    return true;
  }
  if (value->rfind("fail ", 0) == 0 && decode_failure(*value, out)) return true;
  throw_corrupt(key);
}

bool Checkpoint::lookup(const std::string& key, Outcome<VectorDelay>& out) const {
  if (!armed()) return false;
  const std::optional<std::string> value = journal_.find(key);
  if (!value) return false;
  int attempts = 0;
  double v[3] = {};
  if (decode_ok(*value, attempts, v)) {
    VectorDelay vd;  // pair is re-attached by the sweep (it is in the key)
    vd.delay_cmos = v[0];
    vd.delay_mtcmos = v[1];
    vd.degradation_pct = v[2];
    out = Outcome<VectorDelay>::success(std::move(vd), attempts);
    return true;
  }
  if (value->rfind("fail ", 0) == 0 && decode_failure(*value, out)) return true;
  throw_corrupt(key);
}

void Checkpoint::record(const std::string& key, const Outcome<double>& outcome,
                        Stage& stage) const {
  if (!armed()) return;
  if (outcome.ok()) {
    stage_record(stage, key,
                 "ok " + std::to_string(outcome.attempts) + " " + double_bits(*outcome.value));
  } else if (should_persist(outcome.failure)) {
    stage_record(stage, key, encode_failure(outcome));
  }
}

void Checkpoint::record(const std::string& key, const Outcome<VectorDelay>& outcome,
                        Stage& stage) const {
  if (!armed()) return;
  if (outcome.ok()) {
    const VectorDelay& vd = *outcome.value;
    stage_record(stage, key,
                 "ok " + std::to_string(outcome.attempts) + " " + double_bits(vd.delay_cmos) +
                     " " + double_bits(vd.delay_mtcmos) + " " + double_bits(vd.degradation_pct));
  } else if (should_persist(outcome.failure)) {
    Outcome<double> shim;
    shim.attempts = outcome.attempts;
    shim.failure = outcome.failure;
    stage_record(stage, key, encode_failure(shim));
  }
}

void Checkpoint::record(const std::string& key, const Outcome<double>& outcome) {
  Stage stage;
  record(key, outcome, stage);
  commit(stage);
}

void Checkpoint::record(const std::string& key, const Outcome<VectorDelay>& outcome) {
  Stage stage;
  record(key, outcome, stage);
  commit(stage);
}

void Checkpoint::record_failure(const std::string& key, const FailureInfo& info,
                                Stage& stage) const {
  record(key, Outcome<double>::fail(info), stage);
}

void Checkpoint::commit(Stage& stage) {
  if (stage.empty()) return;
  journal_.append_batch(stage);
  stage.clear();
}

bool Checkpoint::lookup_bisect(const std::string& key, BisectState& out) const {
  if (!armed()) return false;
  const std::optional<std::string> value = journal_.find(key);
  if (!value) return false;
  char lo[32], hi[32], deg[32];
  BisectState s;
  if (std::sscanf(value->c_str(), "bs %d %31s %31s %31s %zu %zu", &s.phase, lo, hi, deg,
                  &s.hi_idx, &s.probes) != 6 ||
      !parse_double_bits(lo, s.lo) || !parse_double_bits(hi, s.hi) ||
      !parse_double_bits(deg, s.hi_deg)) {
    throw_corrupt(key);
  }
  out = s;
  return true;
}

void Checkpoint::record_bisect(const std::string& key, const BisectState& state) {
  if (!armed()) return;
  journal_.append(key, "bs " + std::to_string(state.phase) + " " + double_bits(state.lo) + " " +
                           double_bits(state.hi) + " " + double_bits(state.hi_deg) + " " +
                           std::to_string(state.hi_idx) + " " + std::to_string(state.probes));
}

bool Checkpoint::should_persist(const FailureInfo& failure) {
  if (failure.code == FailureCode::kCancelled) return false;
  if (failure.code == FailureCode::kDeadlineExceeded &&
      (failure.site == "sizing::sweep_item" || failure.site == "sizing::watchdog")) {
    return false;
  }
  return true;
}

std::uint64_t netlist_fingerprint(const netlist::Netlist& nl,
                                  const std::vector<std::string>& outputs) {
  std::ostringstream os;
  netlist::write_netlist(os, nl, outputs);
  const std::string text = os.str();
  return fnv1a(text.data(), text.size());
}

std::string checkpoint_prefix(const char* op, const char* backend_name,
                              std::uint64_t fingerprint, double wl) {
  return std::string(op) + ":" + backend_name + ":" + hex64(fingerprint) + ":" +
         double_bits(wl) + ":";
}

std::string checkpoint_prefix_nowl(const char* op, const char* backend_name,
                                   std::uint64_t fingerprint) {
  return std::string(op) + ":" + backend_name + ":" + hex64(fingerprint) + ":";
}

std::string checkpoint_item_key(const std::string& prefix, const VectorPair& vp) {
  std::string key = prefix;
  append_bits(key, vp.v0);
  key += '-';
  append_bits(key, vp.v1);
  return key;
}

std::uint64_t sizing_args_hash(std::uint64_t fingerprint, const char* backend_name,
                               const std::vector<VectorPair>& vectors, double target_pct,
                               double wl_min, double wl_max, double wl_tol) {
  std::uint64_t h = fingerprint;
  h = fnv1a(backend_name, std::string(backend_name).size(), h);
  h = fnv1a_double(target_pct, h);
  h = fnv1a_double(wl_min, h);
  h = fnv1a_double(wl_max, h);
  h = fnv1a_double(wl_tol, h);
  for (const VectorPair& vp : vectors) {
    std::string bits;
    append_bits(bits, vp.v0);
    bits += '-';
    append_bits(bits, vp.v1);
    h = fnv1a(bits.data(), bits.size(), h);
  }
  return h;
}

}  // namespace mtcmos::sizing
