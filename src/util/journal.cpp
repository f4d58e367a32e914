#include "util/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mtcmos::util {

namespace {

/// Reflected CRC-32 (IEEE 802.3) tables for slicing-by-8: t[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight lookups fold in eight
/// bytes at once.  Built at compile time: no start-up cost in any process.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}();

#if defined(__x86_64__)
#define MTCMOS_CLMUL __attribute__((target("pclmul,sse4.1")))

MTCMOS_CLMUL inline __m128i load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// x's low half times k's low, its high half times k's high, xored into
/// the next 16 bytes.
MTCMOS_CLMUL inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)), next);
}

/// The same CRC by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009):
/// fold 64 bytes a step into four 128-bit lanes, fold the lanes into one,
/// fold the remaining 16-byte blocks into it, then reduce 128 -> 64 -> 32
/// bits with a Barrett step.  `crc` and the result are the table loop's
/// inverted register; `size` is a multiple of 16, at least 64.  In the
/// reflected domain, with P the CRC-32 polynomial and rev32 a 32-bit
/// reversal, each fold constant is rev32(x^n mod P) << 1:
///   k1 = n 4*128+32, k2 = n 4*128-32, k3 = n 128+32, k4 = n 128-32,
///   k5 = n 64;  P' = P reflected over 33 bits, mu = (x^64 / P) reflected.
MTCMOS_CLMUL std::uint32_t crc32_clmul(const unsigned char* p, std::size_t size,
                                       std::uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
    x1 = fold(x1, k1k2, load16(p));
    x2 = fold(x2, k1k2, load16(p + 16));
    x3 = fold(x3, k1k2, load16(p + 32));
    x4 = fold(x4, k1k2, load16(p + 48));
  }
  x1 = fold(fold(fold(x1, k3k4, x2), k3k4, x3), k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) x1 = fold(x1, k3k4, load16(p));

  // 128 -> 64 bits, then 64 -> 32 + 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

/// Whether this CPU runs crc32_clmul, decided once per process.
bool have_clmul() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return yes;
}
#undef MTCMOS_CLMUL
#endif

void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  return v;
}

/// Bytes of an item's key (context + v0/v1 words), of its outcome tail
/// (attempts, values, code, padding, value[3]), and of its record.
std::size_t key_size(std::uint32_t bits) { return 8 + 16 * item_words(bits); }
constexpr std::size_t kTail = 32;
std::size_t record_size(std::uint32_t bits) { return key_size(bits) + kTail; }
constexpr std::size_t kMaxGroup = 64;  ///< items per J2 group: the commit unit
/// Longest time appends go without a sync.  A kernel crash or power
/// loss can lose at most this much of the most recent work (process death
/// alone loses nothing).
constexpr std::chrono::milliseconds kSyncInterval{500};

/// Write an item's key bytes: context, then the v0/v1 words.
void put_key(char* p, const ItemKey& key) {
  put_u64(p, key.context);
  for (std::size_t i = 0; i < 2 * item_words(key.bits); ++i) put_u64(p + 8 + 8 * i, key.words[i]);
}

/// Append `v`'s outcome tail and, for a failure, its text.
void append_value(std::string& out, const ItemValue& v) {
  const bool failure = v.values == 0;
  const std::size_t at = out.size();
  out.resize(at + kTail);
  char* p = out.data() + at;
  put_u64(p, static_cast<std::uint32_t>(v.attempts));  // i32 attempts, then four zero bytes
  p[4] = static_cast<char>(v.values);
  p[5] = static_cast<char>(v.code);  // bytes 6 and 7 stay zero
  put_u64(p + 8, failure ? v.site.size() : v.value[0]);
  put_u64(p + 16, failure ? v.detail.size() : v.value[1]);
  put_u64(p + 24, failure ? 0 : v.value[2]);
  if (failure) out.append(v.site).append(v.detail);
}

/// Check the outcome tail at `p` with at most `left` bytes of failure
/// text available and set `text` to its text length; false when it is
/// not a tail append_value() writes.  With `out`, also decode it, reading
/// the text right after the tail.
bool parse_tail(const char* p, std::uint64_t left, ItemValue* out, std::size_t& text) {
  const auto values = static_cast<std::uint8_t>(p[4]);
  const std::uint64_t v0 = get_u64(p + 8), v1 = get_u64(p + 16), v2 = get_u64(p + 24);
  if (p[6] != 0 || p[7] != 0 || values > 3) return false;
  if (values == 0 && (v2 != 0 || v0 > left || v1 > left - v0)) return false;
  text = values == 0 ? v0 + v1 : 0;
  if (out != nullptr) {
    out->attempts = static_cast<std::int32_t>(static_cast<std::uint32_t>(get_u64(p)));
    out->values = values;
    out->code = static_cast<std::uint8_t>(p[5]);
    out->value[0] = values == 0 ? 0 : v0;
    out->value[1] = values == 0 ? 0 : v1;
    out->value[2] = v2;
    out->site.assign(p + kTail, values == 0 ? v0 : 0);
    out->detail.assign(p + kTail + (values == 0 ? v0 : 0), values == 0 ? v1 : 0);
  }
  return true;
}

/// Word i of an item key -- its context, then its v0/v1 words -- from
/// its stored bytes at `at` or from an ItemKey.
std::uint64_t key_word(const char* at, std::size_t i) { return get_u64(at + 8 * i); }
std::uint64_t key_word(const ItemKey& key, std::size_t i) {
  return i == 0 ? key.context : key.words[i - 1];
}

/// Hash of an item key of width `bits`, folded in word by word, so a
/// key's stored bytes and its ItemKey hash alike.
template <typename Key>
std::uint64_t hash_key(const Key& key, std::uint32_t bits) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull * key_size(bits);
  for (std::size_t i = 0; i < key_size(bits) / 8; ++i) {
    h ^= key_word(key, i);
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  h *= 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 33);
}

/// Whether the stored key bytes at `at` are `key`'s, both `bits` wide.
template <typename Key>
bool same_key(const char* at, const Key& key, std::uint32_t bits) {
  for (std::size_t i = 0; i < key_size(bits) / 8; ++i) {
    if (key_word(at, i) != key_word(key, i)) return false;
  }
  return true;
}

constexpr std::uint64_t kSlotIndex = 0xFFFFFFFFull;
constexpr std::uint64_t kSlotTag = ~kSlotIndex;

/// `digits` lowercase hex digits, then `stop`.
bool read_hex(const char*& p, const char* end, int digits, char stop, std::uint64_t& v) {
  if (end - p <= digits) return false;
  v = 0;
  for (int i = 0; i < digits; ++i, ++p) {
    const int d = *p >= '0' && *p <= '9' ? *p - '0' : *p >= 'a' && *p <= 'f' ? *p - 'a' + 10 : -1;
    if (d < 0) return false;
    v = v << 4 | static_cast<unsigned>(d);
  }
  return *p++ == stop;
}

/// A canonical decimal -- digits only, no leading zero, no overflow --
/// then `stop`.
bool read_dec(const char*& p, const char* end, char stop, std::uint64_t& v) {
  const char* const begin = p;
  v = 0;
  for (; p != end && *p >= '0' && *p <= '9'; ++p) {
    const auto d = static_cast<std::uint64_t>(*p - '0');
    if (v > (~std::uint64_t{0} - d) / 10) return false;
    v = v * 10 + d;
  }
  if (p == begin || (*begin == '0' && p - begin > 1) || p == end) return false;
  return *p++ == stop;
}

/// Room for the longest header: "J2 <crc> " plus three 20-digit numbers.
constexpr std::size_t kMaxHeader = 80;

/// Append one record in the J1 format to `out`.  The CRC is chained over
/// key then value, which equals the CRC of their concatenation.
void format_record_into(std::string& out, const std::string& key, const std::string& value) {
  const std::uint32_t crc = crc32(value.data(), value.size(), crc32(key.data(), key.size()));
  char header[kMaxHeader];
  const int n =
      std::snprintf(header, sizeof(header), "J1 %08x %zu %zu\n", crc, key.size(), value.size());
  out.append(header, static_cast<std::size_t>(n));
  out += key;
  out += value;
  out += '\n';
}

/// Registry records "ctx:<16 lowercase hex id>" map a context id to its
/// key prefix.
bool context_id(const std::string& key, std::uint64_t& id) {
  const char* p = key.c_str() + 4;
  return key.size() == 20 && key.rfind("ctx:", 0) == 0 &&
         read_hex(p, key.c_str() + 21, 16, '\0', id);
}

[[noreturn]] void throw_collision(const std::string& prefix, const std::string& held,
                                  const std::string& path) {
  throw NumericalError({FailureCode::kInvalidArgument, "util::Journal",
                        "context id of '" + prefix + "' is already held by '" + held +
                            "' in journal '" + path + "'"});
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (size >= 64 && have_clmul()) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = crc32_clmul(p, folded, crc);
    p += folded;
    size -= folded;
  }
#endif
  const auto& t = kCrcTables;
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = crc ^ (p[0] | p[1] << 8 | p[2] << 16 | std::uint32_t{p[3]} << 24);
    const std::uint32_t hi = p[4] | p[5] << 8 | p[6] << 16 | std::uint32_t{p[7]} << 24;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) seed = (seed ^ p[i]) * 1099511628211ull;
  return seed;
}

std::string format_journal_record(const std::string& key, const std::string& value) {
  std::string record;
  format_record_into(record, key, value);
  return record;
}

std::string encode_item_value(const ItemValue& value) {
  std::string out;
  append_value(out, value);
  return out;
}

bool decode_item_value(std::string_view bytes, ItemValue& out) {
  std::size_t text = 0;
  return bytes.size() >= kTail && parse_tail(bytes.data(), bytes.size() - kTail, &out, text) &&
         text == bytes.size() - kTail;
}

void JournalBatch::add(std::string key, std::string value) {
  text_.emplace_back(std::move(key), std::move(value));
}

void JournalBatch::add(const ItemKey& key, const ItemValue& value) {
  if (value.values > 3) throw std::invalid_argument("journal: an item carries at most 3 values");
  const std::size_t at = bytes_.size();
  bytes_.resize(at + key_size(key.bits));
  put_key(bytes_.data() + at, key);
  items_.push_back({at, hash_key(key, key.bits), key.bits});
  append_value(bytes_, value);
}

void JournalBatch::clear() {
  text_.clear();
  items_.clear();
  bytes_.clear();
}

std::size_t JournalBatch::entry_end(std::size_t i) const {
  return i + 1 < items_.size() ? items_[i + 1].at : bytes_.size();
}

void Journal::format_group(std::string& out, const JournalBatch& batch, std::size_t begin,
                           std::size_t end) {
  const auto& items = batch.items_;
  const std::size_t rec = record_size(items[begin].bits);
  const std::size_t text = batch.entry_end(end - 1) - items[begin].at - (end - begin) * rec;
  char dims[kMaxHeader];
  const int nd =
      std::snprintf(dims, sizeof(dims), "%u %zu %zu", items[begin].bits, end - begin, text);
  out += "J2 ";
  const std::size_t crc_at = out.size();
  out.append("00000000 ").append(dims, static_cast<std::size_t>(nd)) += '\n';
  const std::size_t payload = out.size();
  for (std::size_t i = begin; i < end; ++i) out.append(batch.bytes_, items[i].at, rec);
  for (std::size_t i = begin; i < end; ++i) {
    out.append(batch.bytes_, items[i].at + rec, batch.entry_end(i) - items[i].at - rec);
  }
  const std::uint32_t crc = crc32(out.data() + payload, out.size() - payload,
                                  crc32(dims, static_cast<std::size_t>(nd)));
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  out.replace(crc_at, 8, hex, 8);
  out += '\n';
}

Journal::~Journal() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; the data already written is intact.
  }
}

template <typename Key>
std::size_t Journal::probe_locked(std::uint64_t hash, std::uint32_t bits, const Key& key) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
    const std::uint64_t slot = slots_[s];
    if (slot == 0) return s;
    const Item& it = items_[(slot & kSlotIndex) - 1];
    if ((slot & kSlotTag) == (hash & kSlotTag) && it.bits == bits && same_key(it.at, key, bits)) {
      return s;
    }
  }
}

template <typename Key>
const char* Journal::find_locked(std::uint64_t hash, std::uint32_t bits, const Key& key) const {
  if (slots_.empty()) return nullptr;
  const std::uint64_t slot = slots_[probe_locked(hash, bits, key)];
  return slot == 0 ? nullptr : items_[(slot & kSlotIndex) - 1].at;
}

bool Journal::replay_record(const std::string& data, std::size_t& pos) {
  const char* p = data.data() + pos;
  const char* const end = data.data() + data.size();
  if (end - p < 3 || p[0] != 'J' || (p[1] != '1' && p[1] != '2') || p[2] != ' ') return false;
  const bool group = p[1] == '2';
  p += 3;
  std::uint64_t crc = 0, n[3] = {};
  if (!read_hex(p, end, 8, ' ', crc)) return false;
  const char* const dims = p;
  const int fields = group ? 3 : 2;
  for (int f = 0; f < fields; ++f) {
    if (!read_dec(p, end, f + 1 < fields ? ' ' : '\n', n[f])) return false;
  }
  const auto dims_len = static_cast<std::size_t>(p - 1 - dims);
  // Every length is bounded by the bytes left before it is used, so no
  // header can wrap an offset around or reach outside the file.
  const auto left = static_cast<std::size_t>(end - p);

  if (!group) {
    const std::uint64_t key_len = n[0], value_len = n[1];
    if (key_len == 0 || key_len > left || value_len >= left - key_len) return false;
    if (p[key_len + value_len] != '\n' || crc32(p, key_len + value_len) != crc) return false;
    if (apply_text_locked(std::string(p, key_len), std::string(p + key_len, value_len))) {
      ++replayed_records_;
    }
    pos = static_cast<std::size_t>(p - data.data()) + key_len + value_len + 1;
    return true;
  }

  const std::uint64_t bits = n[0], count = n[1], text = n[2];
  if (bits > 0xFFFFFFFFull || count == 0 || count > kMaxGroup || bits / 64 >= left / 16) {
    return false;
  }
  const auto width = static_cast<std::uint32_t>(bits);
  const std::size_t rec = record_size(width);
  if (count > left / rec || text >= left - count * rec) return false;
  const std::size_t body = count * rec;
  if (p[body + text] != '\n' || crc32(p, body + text, crc32(dims, dims_len)) != crc) return false;
  std::size_t texts[kMaxGroup] = {};
  std::size_t used = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!parse_tail(p + (i + 1) * rec - kTail, text - used, nullptr, texts[i])) return false;
    used += texts[i];
  }
  if (used != text) return false;
  // Items point into the replayed file bytes; a failure's record is
  // copied next to its text, as the table expects.
  used = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const char* r = p + i * rec;
    if (texts[i] != 0) r = chunks_.emplace_front(r, rec).append(p + body + used, texts[i]).data();
    used += texts[i];
    items_.push_back({r, hash_key(r, width), width});
  }
  replayed_records_ += count;
  pos = static_cast<std::size_t>(p - data.data()) + body + text + 1;
  return true;
}

void Journal::index_replayed_locked() {
  if (items_.empty()) return;
  // A load factor of at most 1/2 even if no key repeats; insert_locked()
  // doubles from here as appends add items.
  slots_.assign(std::max<std::size_t>(64, std::bit_ceil(2 * items_.size())), 0);
  std::size_t kept = 0;
  for (std::size_t r = 0; r < items_.size(); ++r) {
    const Item it = items_[r];
    const std::size_t s = probe_locked(it.hash, it.bits, it.at);
    if (slots_[s] == 0) {
      slots_[s] = (it.hash & kSlotTag) | (kept + 1);
      items_[kept++] = it;
    } else {
      items_[(slots_[s] & kSlotIndex) - 1].at = it.at;  // a later record wins
    }
  }
  items_.resize(kept);
}

void Journal::clear_tables() {
  latest_.clear();
  contexts_.clear();
  items_.clear();
  chunks_.clear();
  slots_.clear();
}

void Journal::open(const std::string& path, const std::function<void(const Journal&)>& accept) {
  close();
  clear_tables();
  replayed_records_ = 0;
  truncated_bytes_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  file_.open(path);

  // Replay: read the file into one chunk (replayed items point into it),
  // parse records until the first torn one, then index the items.
  std::string& data = chunks_.emplace_front(file_.size(), '\0');
  data.resize(file_.read(data.data(), data.size()));
  std::size_t pos = 0;
  while (pos < data.size() && replay_record(data, pos)) {
  }
  truncated_bytes_ = data.size() - pos;
  index_replayed_locked();
  if (accept) {
    try {
      accept(*this);
    } catch (...) {
      file_.close();
      clear_tables();
      throw;
    }
  }
  file_.keep(pos);  // cut a torn tail off before anything lands after it
  if (items_.empty()) chunks_.clear();  // text records were copied out
}

void Journal::append(const std::string& key, const std::string& value) {
  faultinject::check(faultinject::Site::kJournalAppend, "util::Journal::append");
  JournalBatch batch;
  batch.add(key, value);
  append_batch(std::move(batch));
}

std::string Journal::format_batch(const JournalBatch& batch) {
  std::string bytes;
  bytes.reserve(batch.bytes_.size() + (batch.items_.size() / kMaxGroup + 1) * kMaxHeader);
  for (const auto& [key, value] : batch.text_) {
    if (key.empty()) throw std::invalid_argument("journal: key must not be empty");
    format_record_into(bytes, key, value);
  }
  const auto& items = batch.items_;
  for (std::size_t begin = 0, end = 0; begin < items.size(); begin = end) {
    const std::uint32_t bits = items[begin].bits;
    while (++end < items.size() && end - begin < kMaxGroup && items[end].bits == bits) {
    }
    format_group(bytes, batch, begin, end);
  }
  return bytes;
}

bool Journal::drop_held_items_locked(JournalBatch& batch) const {
  const auto& items = batch.items_;
  const char* const bytes = batch.bytes_.data();
  const auto entry = [&](std::size_t i) {
    return std::string_view(bytes + items[i].at, batch.entry_end(i) - items[i].at);
  };
  std::uint64_t seen[4] = {};  // a 256-bit filter of the batch's hashes so far
  std::vector<char> drop;      // allocated on the first drop
  for (std::size_t i = 0; i < items.size(); ++i) {
    const JournalBatch::Item& it = items[i];
    const char* const key = bytes + it.at;
    // The item's latest record: its last earlier item in the batch (j < i
    // once found), else the journal's.
    std::size_t j = i;
    const unsigned bit = static_cast<unsigned>(it.hash >> 56);
    if ((seen[bit / 64] >> (bit % 64) & 1) != 0) {
      while (j-- > 0 && (items[j].hash != it.hash || items[j].bits != it.bits ||
                         std::memcmp(bytes + items[j].at, key, key_size(it.bits)) != 0)) {
      }
    }
    seen[bit / 64] |= std::uint64_t{1} << (bit % 64);
    const char* held = j < i ? bytes + items[j].at : find_locked(it.hash, it.bits, key);
    if (held == nullptr) continue;
    std::size_t text = 0;
    parse_tail(held + key_size(it.bits), ~std::uint64_t{0}, nullptr, text);
    if (std::string_view(held, record_size(it.bits) + text) != entry(i)) continue;
    drop.resize(items.size());
    drop[i] = 1;
  }
  if (drop.empty()) return false;
  JournalBatch kept;
  kept.text_ = std::move(batch.text_);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (drop[i] != 0) continue;
    kept.items_.push_back({kept.bytes_.size(), items[i].hash, items[i].bits});
    kept.bytes_.append(entry(i));
  }
  batch = std::move(kept);
  return true;
}

std::size_t Journal::append_batch(JournalBatch batch) {
  if (batch.empty()) return 0;
  std::string bytes = format_batch(batch);
  const std::lock_guard<std::mutex> write_lock(write_mutex_);
  // Only writers change the tables, and they hold the write lock: the
  // check needs no table lock, and no other append can land between it
  // and the write.
  if (drop_held_items_locked(batch)) {
    if (batch.empty()) return 0;
    bytes = format_batch(batch);
  }
  write_locked(bytes);
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  for (const auto& [key, value] : batch.text_) apply_text_locked(key, value);
  const std::size_t written = batch.size();
  if (batch.items_.empty()) return written;
  // The table points into the batch's bytes from now on: no copy.
  const char* bytes_at = chunks_.emplace_front(std::move(batch.bytes_)).data();
  for (const JournalBatch::Item& item : batch.items_) {
    insert_locked(bytes_at + item.at, item.hash, item.bits);
  }
  return written;
}

void Journal::write_locked(const std::string& bytes) {
  file_.append(bytes.data(), bytes.size());
  // A sync narrows kernel-crash exposure only (the append already
  // survives process death), so it is rate-limited by time, which caps
  // both the exposure and the overhead.
  if (std::chrono::steady_clock::now() - last_sync_ >= kSyncInterval) sync_locked();
}

void Journal::sync_locked() {
  file_.sync();
  last_sync_ = std::chrono::steady_clock::now();
}

bool Journal::apply_text_locked(const std::string& key, const std::string& value) {
  if (std::uint64_t id = 0; context_id(key, id)) {
    contexts_[id] = value;
    return false;
  }
  latest_.insert_or_assign(key, value);
  return true;
}

void Journal::insert_locked(const char* at, std::uint64_t hash, std::uint32_t bits) {
  if ((items_.size() + 1) * 2 > slots_.size()) {
    // Keep the load factor at or below 1/2: double (from 64) and re-place
    // every item by its stored hash.
    std::vector<std::uint64_t> grown(std::max<std::size_t>(64, slots_.size() * 2), 0);
    for (std::size_t idx = 0; idx < items_.size(); ++idx) {
      std::size_t s = items_[idx].hash & (grown.size() - 1);
      while (grown[s] != 0) s = (s + 1) & (grown.size() - 1);
      grown[s] = (items_[idx].hash & kSlotTag) | (idx + 1);
    }
    slots_.swap(grown);
  }
  const std::size_t s = probe_locked(hash, bits, at);
  if (slots_[s] == 0) {
    slots_[s] = (hash & kSlotTag) | (items_.size() + 1);
    items_.push_back({at, hash, bits});
  } else {
    items_[(slots_[s] & kSlotIndex) - 1].at = at;  // a later record wins
  }
}

std::uint64_t Journal::register_context(const std::string& prefix) {
  const std::lock_guard<std::mutex> write_lock(write_mutex_);
  std::uint64_t id = 0;
  if (find_context(prefix, id)) return id;
  write_locked(format_journal_record("ctx:" + hex16(id), prefix));
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  contexts_.emplace(id, prefix);
  return id;
}

bool Journal::find_context(const std::string& prefix, std::uint64_t& id) const {
  id = fnv1a64(prefix.data(), prefix.size());
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = contexts_.find(id);
  if (it != contexts_.end() && it->second != prefix) throw_collision(prefix, it->second, file_.path());
  return it != contexts_.end();
}

void Journal::flush() {
  const std::lock_guard<std::mutex> write_lock(write_mutex_);
  if (file_.is_open() && file_.unsynced()) sync_locked();
}

void Journal::close() {
  const std::lock_guard<std::mutex> write_lock(write_mutex_);
  if (!file_.is_open()) return;
  if (file_.unsynced()) sync_locked();
  file_.close();
}

std::optional<std::string> Journal::find(const std::string& key) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = latest_.find(key);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

bool Journal::contains(const std::string& key) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return latest_.count(key) != 0;
}

std::vector<char> Journal::find_items(const ItemKey& first, std::size_t n,
                                      const ItemVisitor& fn) const {
  std::vector<char> held(n, 0);
  const std::size_t stride = 2 * item_words(first.bits);
  ItemKey key = first;
  ItemValue value;
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (std::size_t i = 0; i < n; ++i, key.words += stride) {
    const char* record = find_locked(hash_key(key, key.bits), key.bits, key);
    if (record == nullptr) continue;
    held[i] = 1;
    if (!fn) continue;
    std::size_t text = 0;
    parse_tail(record + key_size(key.bits), ~std::uint64_t{0}, &value, text);
    fn(i, value);
  }
  return held;
}

std::size_t Journal::size() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return latest_.size() + items_.size();
}

std::size_t Journal::item_count() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return items_.size();
}

void Journal::for_each_text(const Visitor& fn) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [key, value] : latest_) fn(key, value);
}

void Journal::for_each(const Visitor& fn) const {
  for_each_text(fn);
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  ItemValue value;
  for (const Item& item : items_) {
    const char* p = item.at;
    const auto ctx = contexts_.find(get_u64(p));
    std::string key = ctx != contexts_.end() ? ctx->second : hex16(get_u64(p)) + ":";
    for (std::size_t half = 0; half < 2; ++half) {
      if (half == 1) key += '-';
      const char* words = p + 8 + half * 8 * item_words(item.bits);
      for (std::uint32_t b = 0; b < item.bits; ++b) {
        key += ((get_u64(words + 8 * (b / 64)) >> (b % 64)) & 1u) != 0 ? '1' : '0';
      }
    }
    std::size_t text = 0;
    parse_tail(p + key_size(item.bits), ~std::uint64_t{0}, &value, text);
    fn(key, encode_item_value(value));
  }
}

std::size_t merge_journal_file(Journal& dest, const std::string& source_path) {
  // Journal::open O_CREATs; probe first so a missing source is an error
  // instead of a silently-created empty journal.
  if (::access(source_path.c_str(), F_OK) != 0) {
    throw std::runtime_error("merge_journal_file: no such journal: " + source_path);
  }
  Journal source;
  source.open(source_path);
  source.close();

  // Sorted visits: the merged bytes depend only on the record *sets*,
  // not on hash-map iteration or source insertion order.
  JournalBatch batch;
  std::vector<std::pair<std::uint64_t, std::string>> contexts(source.contexts_.begin(),
                                                              source.contexts_.end());
  std::sort(contexts.begin(), contexts.end());
  for (const auto& [id, prefix] : contexts) {
    std::uint64_t held = 0;
    if (!dest.find_context(prefix, held)) batch.add("ctx:" + hex16(id), prefix);
  }
  const std::size_t registrations = batch.size();

  std::vector<std::pair<std::string, std::string>> records(source.latest_.begin(),
                                                           source.latest_.end());
  std::sort(records.begin(), records.end());
  for (auto& [key, value] : records) {
    const std::optional<std::string> existing = dest.find(key);
    if (!existing || *existing != value) batch.add(std::move(key), std::move(value));
  }

  const auto& items = source.items_;
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (items[a].bits != items[b].bits) return items[a].bits < items[b].bits;
    return std::memcmp(items[a].at, items[b].at, key_size(items[a].bits)) < 0;
  });
  // append_batch drops the items `dest` already holds unchanged.
  std::vector<std::uint64_t> words;
  ItemValue value;
  for (const std::size_t i : order) {
    const char* p = items[i].at;
    words.resize(2 * item_words(items[i].bits));
    for (std::size_t w = 0; w < words.size(); ++w) words[w] = get_u64(p + 8 + 8 * w);
    std::size_t text = 0;
    parse_tail(p + key_size(items[i].bits), ~std::uint64_t{0}, &value, text);
    batch.add(ItemKey{get_u64(p), items[i].bits, words.data()}, value);
  }
  return dest.append_batch(std::move(batch)) - registrations;
}

}  // namespace mtcmos::util
