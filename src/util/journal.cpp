#include "util/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/faultinject.hpp"

namespace mtcmos::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error("journal: " + what + " '" + path + "': " + std::strerror(errno));
}

/// write() the whole buffer, retrying short writes and EINTR (the cancel
/// signal handlers install without SA_RESTART).
void write_all(int fd, const char* data, std::size_t size, const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_retry(int fd, const std::string& path) {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) throw_errno("fsync failed", path);
  }
}

/// fsync the containing directory so a freshly created or renamed file is
/// durable: the rename in compact() only persists once the *directory*
/// entry reaches disk, and a crash between the rename and the directory
/// sync can lose the whole journal on some filesystems.  EINTR is retried
/// (the cancel signal handlers install without SA_RESTART); other errors
/// stay best-effort since not every filesystem supports directory fsync.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  int dfd;
  do {
    dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (dfd < 0 && errno == EINTR);
  if (dfd < 0) return;  // best effort: not all filesystems allow it
  while (::fsync(dfd) != 0 && errno == EINTR) {
  }
  ::close(dfd);
}

/// Parse one record at `data + pos`.  Returns false (leaving key/value
/// untouched) on a torn or corrupt record -- the replay loop treats that
/// position as the end of valid history.
bool parse_record(const std::string& data, std::size_t& pos, std::string& key,
                  std::string& value) {
  const std::size_t header_end = data.find('\n', pos);
  if (header_end == std::string::npos) return false;
  const std::string header = data.substr(pos, header_end - pos);
  std::uint32_t crc = 0;
  std::size_t key_len = 0, value_len = 0;
  {
    unsigned long long c = 0, k = 0, v = 0;
    if (std::sscanf(header.c_str(), "J1 %llx %llu %llu", &c, &k, &v) != 3) return false;
    crc = static_cast<std::uint32_t>(c);
    key_len = static_cast<std::size_t>(k);
    value_len = static_cast<std::size_t>(v);
  }
  const std::size_t payload_begin = header_end + 1;
  const std::size_t payload_end = payload_begin + key_len + value_len;
  if (payload_end + 1 > data.size()) return false;  // torn payload
  if (data[payload_end] != '\n') return false;
  if (key_len == 0) return false;
  const std::uint32_t actual = crc32(data.data() + payload_begin, key_len + value_len);
  if (actual != crc) return false;
  key.assign(data, payload_begin, key_len);
  value.assign(data, payload_begin + key_len, value_len);
  pos = payload_end + 1;
  return true;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Standard reflected CRC-32 (IEEE 802.3), table built on first use.
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

namespace {

/// Room for the longest "J1 <crc> <key-len> <value-len>\n" header
/// (3 + 8 + 2 * 21 + 1 = 54 bytes).
constexpr std::size_t kMaxHeader = 64;

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

}  // namespace

std::string format_journal_record(const std::string& key, const std::string& value) {
  std::string record;
  format_record_into(record, key, value);
  return record;
}

Journal::~Journal() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; the data already written is intact.
  }
}

void Journal::open(const std::string& path, JournalOptions options) {
  close();
  path_ = path;
  options_ = options;
  latest_.clear();
  replayed_records_ = 0;
  truncated_bytes_ = 0;
  appended_since_sync_ = 0;
  last_sync_ = std::chrono::steady_clock::now();

  // O_EXCL-free create-or-open, then probe whether we made the file: a
  // brand-new journal's directory entry must be fsynced too, or a crash
  // shortly after open() can make the first appends vanish with the file.
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("cannot open", path);
  if (!existed) fsync_parent_dir(path_);

  // Replay: slurp the file, parse records until the first torn one.
  std::string data;
  {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("read failed", path);
      }
      if (n == 0) break;
      data.append(buf, static_cast<std::size_t>(n));
    }
  }
  std::size_t pos = 0;
  std::string key, value;
  while (pos < data.size() && parse_record(data, pos, key, value)) {
    latest_[key] = value;
    ++replayed_records_;
  }
  if (pos < data.size()) {
    // Torn tail from a crash mid-append: drop it so the file is a clean
    // record sequence again before anything is appended after it.
    truncated_bytes_ = data.size() - pos;
    if (::ftruncate(fd_, static_cast<off_t>(pos)) != 0) throw_errno("truncate failed", path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) throw_errno("seek failed", path);
}

void Journal::append(const std::string& key, const std::string& value) {
  faultinject::check(faultinject::Site::kJournalAppend, "util::Journal::append");
  append_batch({{key, value}});
}

void Journal::append_batch(const std::vector<JournalRecord>& records) {
  if (records.empty()) return;
  std::size_t bytes_max = 0;
  for (const auto& [key, value] : records) {
    if (key.empty()) throw std::invalid_argument("journal: key must not be empty");
    bytes_max += kMaxHeader + key.size() + value.size() + 1;
  }
  std::string bytes;
  bytes.reserve(bytes_max);
  for (const auto& [key, value] : records) format_record_into(bytes, key, value);

  const std::lock_guard<std::shared_mutex> lock(mutex_);
  if (fd_ < 0) throw std::runtime_error("journal: append on a closed journal");
  write_all(fd_, bytes.data(), bytes.size(), path_);
  appended_since_sync_ += records.size();
  // fsync narrows kernel-crash exposure only (the write() above already
  // survives process death), so it is rate-limited: the count trigger is
  // opt-in, the time trigger caps both exposure and overhead.
  bool sync = options_.fsync_every > 0 && appended_since_sync_ >= options_.fsync_every;
  if (!sync && options_.fsync_interval_s > 0.0) {
    const auto now = std::chrono::steady_clock::now();
    sync = std::chrono::duration<double>(now - last_sync_).count() >= options_.fsync_interval_s;
  }
  if (sync) {
    fsync_retry(fd_, path_);
    appended_since_sync_ = 0;
    last_sync_ = std::chrono::steady_clock::now();
  }
  // Copies, not moves: staged values carry the slack capacity of the
  // concatenations that built them, and latest_ holds one per key.
  for (const auto& [key, value] : records) latest_.insert_or_assign(key, value);
}

void Journal::flush() {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  if (fd_ < 0 || appended_since_sync_ == 0) return;
  fsync_retry(fd_, path_);
  appended_since_sync_ = 0;
}

void Journal::close() {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  if (fd_ < 0) return;
  if (appended_since_sync_ > 0) fsync_retry(fd_, path_);
  ::close(fd_);
  fd_ = -1;
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

std::size_t Journal::size() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return latest_.size();
}

void Journal::for_each(
    const std::function<void(const std::string&, const std::string&)>& fn) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [key, value] : latest_) fn(key, value);
}

void Journal::compact() {
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  if (fd_ < 0) throw std::runtime_error("journal: compact on a closed journal");
  const std::string tmp_path = path_ + ".compact.tmp";
  const int tmp_fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) throw_errno("cannot open", tmp_path);
  try {
    for (const auto& [key, value] : latest_) {
      const std::string record = format_journal_record(key, value);
      write_all(tmp_fd, record.data(), record.size(), tmp_path);
    }
    fsync_retry(tmp_fd, tmp_path);
  } catch (...) {
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    throw;
  }
  ::close(tmp_fd);
  // Atomic replacement: a crash before the rename leaves the old journal,
  // after it the compacted one -- never a mix.
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    throw_errno("rename failed", tmp_path);
  }
  fsync_parent_dir(path_);
  // Swap the fd to the new file and position at its end.
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) throw_errno("cannot reopen", path_);
  if (::lseek(fd_, 0, SEEK_END) < 0) throw_errno("seek failed", path_);
  appended_since_sync_ = 0;
}

std::size_t merge_journal_file(Journal& dest, const std::string& source_path,
                               const std::function<bool(const std::string& key)>& skip) {
  // Journal::open O_CREATs; probe first so a missing source is an error
  // instead of a silently-created empty journal.
  if (::access(source_path.c_str(), F_OK) != 0) {
    throw std::runtime_error("merge_journal_file: no such journal: " + source_path);
  }
  Journal source;
  source.open(source_path);
  source.close();
  // Sorted visit: the merged file's byte contents depend only on the
  // record *sets*, not on hash-map iteration order.
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(source.size());
  source.for_each([&](const std::string& key, const std::string& value) {
    if (skip && skip(key)) return;
    records.emplace_back(key, value);
  });
  std::sort(records.begin(), records.end());
  std::size_t appended = 0;
  for (const auto& [key, value] : records) {
    const std::optional<std::string> existing = dest.find(key);
    if (existing && *existing == value) continue;
    dest.append(key, value);
    ++appended;
  }
  return appended;
}

}  // namespace mtcmos::util
