#pragma once
// One append-only durable file: the file discipline under the checkpoint
// journal (util/journal.hpp) and the columnar store (util/columnar.hpp).
// The owner frames its bytes into whole units (journal records, columnar
// blocks) and chooses when to sync; this type makes every syscall.
//
// Torn tails: each unit is one append(), so a crash can only tear the
// file's tail; the owner reads the file after open() and keep()s its
// whole units.  A failed or short append (a full disk, RLIMIT_FSIZE)
// cuts the file back to its last whole unit before it throws, so the
// next append never lands after torn bytes; if that cut fails too, the
// file is closed.
//
// Durability: an appended byte survives process death without a sync.
// sync() is fdatasync, which persists an appended file's new size (the
// only metadata a reader needs), plus, the first time after open()
// created the file, an fsync of its directory, so the entry that names
// the synced bytes survives a power loss too.
//
// Every call retries EINTR (the cancel signal handlers install without
// SA_RESTART); other errors, and every call but close() on a closed file
// (EBADF), throw std::runtime_error naming the step, path and errno.
// Nothing here locks: the owner serializes its calls.

#include <cstddef>
#include <cstdint>
#include <string>

namespace mtcmos::util {

class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { close(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Open `path` read-write at offset 0, creating it if absent.
  void open(const std::string& path);
  /// Open the existing file `path` read-only at offset 0 (scans).
  void open_readonly(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  std::uint64_t size() const;
  /// Read up to `size` bytes at the current offset; fewer only at EOF.
  std::size_t read(char* data, std::size_t size);
  /// Make the first `end` bytes the file, cutting any torn tail past
  /// them, and append from there.  Returns the bytes cut.
  std::uint64_t keep(std::uint64_t end);

  void append(const char* data, std::size_t size);
  /// Appended to, or created, since the last sync().
  bool unsynced() const { return unsynced_ || dir_sync_pending_; }
  void sync();
  /// Close without syncing.
  void close();

 private:
  void open_fd(const std::string& path, int flags);
  [[noreturn]] void fail(const char* what) const;

  std::string path_;
  int fd_ = -1;
  std::uint64_t end_ = 0;          ///< file size after the last whole unit
  bool unsynced_ = false;          ///< appended to since the last sync()
  bool dir_sync_pending_ = false;  ///< open() created the file; its entry is not synced yet
};

}  // namespace mtcmos::util
