#include "util/columnar.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/faultinject.hpp"
#include "util/journal.hpp"  // crc32

namespace mtcmos::util {

namespace {

// Little-endian field codec: the store must scan identically wherever a
// shard file is merged, independent of host byte order.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}
std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}
std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

constexpr char kMagic[6] = {'M', 'T', 'C', 'B', '1', '\n'};
// magic + header crc + payload crc + n_rows/n_cols/tag/key_bytes/payload_bytes
constexpr std::size_t kHeaderSize = 6 + 4 + 4 + 5 * 8;
// The header crc covers everything after itself: payload crc + the five
// size fields.  A crc-valid header therefore has trustworthy sizes.
constexpr std::size_t kHeaderCrcSpan = 4 + 5 * 8;
// Allocation guard for the 2^-32 corrupt-header-with-matching-crc case.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;

struct BlockInfo {
  std::uint64_t n_rows = 0;
  std::uint64_t n_cols = 0;
  std::uint64_t tag = 0;
  std::uint64_t key_bytes = 0;
  std::uint64_t payload_bytes = 0;
};

std::string encode_header(const BlockInfo& info, std::uint32_t payload_crc) {
  std::string tail;
  tail.reserve(kHeaderCrcSpan);
  put_u32(tail, payload_crc);
  put_u64(tail, info.n_rows);
  put_u64(tail, info.n_cols);
  put_u64(tail, info.tag);
  put_u64(tail, info.key_bytes);
  put_u64(tail, info.payload_bytes);
  std::string header(kMagic, sizeof(kMagic));
  put_u32(header, crc32(tail.data(), tail.size()));
  header += tail;
  return header;
}

/// Parse + validate a header buffer.  Returns false on any mismatch
/// (magic, crc, or internally inconsistent sizes) -- a torn/corrupt tail.
bool decode_header(const char* buf, BlockInfo& info, std::uint32_t& payload_crc) {
  if (std::memcmp(buf, kMagic, sizeof(kMagic)) != 0) return false;
  const std::uint32_t header_crc = get_u32(buf + 6);
  if (crc32(buf + 10, kHeaderCrcSpan) != header_crc) return false;
  payload_crc = get_u32(buf + 10);
  info.n_rows = get_u64(buf + 14);
  info.n_cols = get_u64(buf + 22);
  info.tag = get_u64(buf + 30);
  info.key_bytes = get_u64(buf + 38);
  info.payload_bytes = get_u64(buf + 46);
  if (info.payload_bytes > kMaxPayloadBytes) return false;
  const std::uint64_t expected =
      4 * info.n_rows + info.key_bytes + 8 * info.n_rows * info.n_cols;
  return info.payload_bytes == expected;
}

/// Walk the block sequence of `file` from its current offset.  For each
/// structurally valid block, `on_block` receives the decoded info plus the
/// raw header+payload bytes (so callers can re-emit blocks verbatim).
/// Stops at the first torn/corrupt block; returns the byte offset of the
/// end of the last valid block.
std::uint64_t walk_blocks(
    AppendFile& file,
    const std::function<void(const BlockInfo&, const std::string& raw)>& on_block) {
  std::uint64_t offset = 0;
  std::string raw;
  char header[kHeaderSize];
  BlockInfo info;
  std::uint32_t payload_crc = 0;
  while (file.read(header, kHeaderSize) == kHeaderSize &&
         decode_header(header, info, payload_crc)) {
    raw.assign(header, kHeaderSize);
    raw.resize(kHeaderSize + info.payload_bytes);
    if (file.read(raw.data() + kHeaderSize, info.payload_bytes) < info.payload_bytes ||
        crc32(raw.data() + kHeaderSize, info.payload_bytes) != payload_crc) {
      break;
    }
    if (on_block) on_block(info, raw);
    offset += raw.size();
  }
  return offset;
}

/// Decode one raw block into per-row callbacks.
void emit_rows(const BlockInfo& info, const std::string& raw,
               const std::function<void(const ColumnarRow&)>& fn) {
  const char* payload = raw.data() + kHeaderSize;
  const char* key_lens = payload;
  const char* key_blob = payload + 4 * info.n_rows;
  const char* columns = key_blob + info.key_bytes;
  std::vector<double> values(info.n_cols);
  std::size_t key_off = 0;
  for (std::uint64_t r = 0; r < info.n_rows; ++r) {
    const std::uint32_t key_len = get_u32(key_lens + 4 * r);
    for (std::uint64_t c = 0; c < info.n_cols; ++c) {
      const std::uint64_t bits = get_u64(columns + 8 * (c * info.n_rows + r));
      std::memcpy(&values[c], &bits, sizeof(double));
    }
    ColumnarRow row;
    row.tag = info.tag;
    row.key = std::string_view(key_blob + key_off, key_len);
    row.values = values.data();
    row.n_cols = info.n_cols;
    fn(row);
    key_off += key_len;
  }
}

}  // namespace

ColumnarWriter::~ColumnarWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; flushed blocks are intact.
  }
}

void ColumnarWriter::open(const std::string& path, ColumnarOptions options) {
  close();
  options_ = options;
  truncated_bytes_ = 0;
  blocks_written_ = 0;
  if (options_.rows_per_block == 0) {
    throw std::invalid_argument("columnar: rows_per_block must be positive");
  }
  file_.open(path);
  // Append-reopen: walk the existing block sequence and cut off any torn
  // tail so new blocks extend a clean file.
  truncated_bytes_ = file_.keep(walk_blocks(file_, nullptr));
}

void ColumnarWriter::append(const std::string& key, const double* values, std::size_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!file_.is_open()) throw std::runtime_error("columnar: append on a closed writer");
  if (n == 0) throw std::invalid_argument("columnar: rows need at least one value column");
  if (key.size() > 0xFFFFFFFFull) throw std::invalid_argument("columnar: key too long");
  {
    const faultinject::ScopedScope scope(static_cast<std::int64_t>(key_lens_.size()));
    faultinject::check(faultinject::Site::kColumnarAppend, "util::columnar_append");
  }
  if (key_lens_.empty()) {
    block_cols_ = n;
  } else if (n != block_cols_) {
    // Blocks are fixed-width; a width change starts a new block.
    flush_locked();
    block_cols_ = n;
  }
  key_lens_.push_back(static_cast<std::uint32_t>(key.size()));
  key_blob_ += key;
  for (std::size_t c = 0; c < n; ++c) {
    std::uint64_t bits;
    std::memcpy(&bits, &values[c], sizeof(double));
    value_bits_.push_back(bits);
  }
  if (key_lens_.size() >= options_.rows_per_block) flush_locked();
}

void ColumnarWriter::set_tag(std::uint64_t tag) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (tag == tag_) return;
  flush_locked();
  tag_ = tag;
}

void ColumnarWriter::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
}

void ColumnarWriter::sync() {
  const std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
  file_.sync();  // a closed file throws
}

void ColumnarWriter::discard() {
  const std::lock_guard<std::mutex> lock(mutex_);
  key_lens_.clear();
  key_blob_.clear();
  value_bits_.clear();
  block_cols_ = 0;
}

void ColumnarWriter::flush_locked() {
  if (key_lens_.empty()) return;
  const std::size_t n_rows = key_lens_.size();
  BlockInfo info;
  info.n_rows = n_rows;
  info.n_cols = block_cols_;
  info.tag = tag_;
  info.key_bytes = key_blob_.size();
  info.payload_bytes = 4 * n_rows + key_blob_.size() + 8 * n_rows * block_cols_;

  std::string payload;
  payload.reserve(info.payload_bytes);
  for (const std::uint32_t len : key_lens_) put_u32(payload, len);
  payload += key_blob_;
  // Transpose the row-major append buffer into SoA columns.
  for (std::size_t c = 0; c < block_cols_; ++c) {
    for (std::size_t r = 0; r < n_rows; ++r) {
      put_u64(payload, value_bits_[r * block_cols_ + c]);
    }
  }
  std::string block = encode_header(info, crc32(payload.data(), payload.size()));
  block += payload;
  append_block(block);
  key_lens_.clear();
  key_blob_.clear();
  value_bits_.clear();
  block_cols_ = 0;
}

void ColumnarWriter::append_block(const std::string& block) {
  file_.append(block.data(), block.size());
  ++blocks_written_;
}

void ColumnarWriter::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!file_.is_open()) return;
  flush_locked();
  file_.close();
}

std::size_t scan_columnar_file(const std::string& path,
                               const std::function<void(const ColumnarRow&)>& fn,
                               const std::function<bool(std::uint64_t tag)>& block_filter) {
  AppendFile file;
  file.open_readonly(path);
  const std::uint64_t end = walk_blocks(file, [&](const BlockInfo& info, const std::string& raw) {
    if (!block_filter || block_filter(info.tag)) emit_rows(info, raw, fn);
  });
  return file.size() - end;
}

std::size_t merge_columnar_file(ColumnarWriter& dest, const std::string& source_path,
                                std::vector<std::uint64_t>* seen_tags) {
  if (!dest.is_open()) throw std::runtime_error("columnar: merge into a closed writer");
  if (seen_tags == nullptr) throw std::invalid_argument("columnar: merge needs a seen_tags set");
  AppendFile source;
  source.open_readonly(source_path);  // a missing source throws here
  // First call with an empty dedup set: charge dest's existing blocks into
  // it so re-merging after a crash-mid-merge stays first-block-wins.
  if (seen_tags->empty()) {
    AppendFile held;
    held.open_readonly(dest.path());
    walk_blocks(held,
                [&](const BlockInfo& info, const std::string&) { seen_tags->push_back(info.tag); });
  }
  // Blocks with the same tag hold bit-identical rows (work units are
  // deterministic), so first-wins dedup both drops cross-shard duplicates
  // and makes the merge idempotent.
  dest.flush();
  std::size_t appended = 0;
  walk_blocks(source, [&](const BlockInfo& info, const std::string& raw) {
    if (std::find(seen_tags->begin(), seen_tags->end(), info.tag) != seen_tags->end()) return;
    seen_tags->push_back(info.tag);
    dest.append_block(raw);  // verbatim: CRCs and row bytes carry over untouched
    ++appended;
  });
  return appended;
}

}  // namespace mtcmos::util
