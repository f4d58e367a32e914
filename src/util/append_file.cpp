#include "util/append_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/subprocess.hpp"  // write_bytes

namespace mtcmos::util {

namespace {

int open_retry(const std::string& path, int flags) {
  int fd;
  do {
    fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

/// fsync the directory holding `path`, so the entry of a file just
/// created there is durable.  Best effort: not every filesystem allows it.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const int dfd = open_retry(slash == std::string::npos ? "." : path.substr(0, slash + 1),
                             O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;
  while (::fsync(dfd) != 0 && errno == EINTR) {
  }
  ::close(dfd);
}

}  // namespace

void AppendFile::fail(const char* what) const {
  throw std::runtime_error(std::string(what) + " '" + path_ + "': " + std::strerror(errno));
}

void AppendFile::open(const std::string& path) {
  // Probe whether this call makes the file: a new file's directory entry
  // must be synced too, which the first sync() does (nothing is durable
  // before it anyway), keeping a directory fsync out of open().
  const bool creates = ::access(path.c_str(), F_OK) != 0;
  open_fd(path, O_RDWR | O_CREAT);
  dir_sync_pending_ = creates;
}

void AppendFile::open_readonly(const std::string& path) { open_fd(path, O_RDONLY); }

void AppendFile::open_fd(const std::string& path, int flags) {
  close();
  path_ = path;
  end_ = 0;
  unsynced_ = dir_sync_pending_ = false;
  fd_ = open_retry(path, flags);
  if (fd_ < 0) fail("cannot open");
}

std::uint64_t AppendFile::size() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) fail("stat failed");
  return static_cast<std::uint64_t>(st.st_size);
}

std::size_t AppendFile::read(char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd_, data + done, size - done);
    if (n == 0) break;
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (errno != EINTR) {
      fail("read failed");
    }
  }
  return done;
}

std::uint64_t AppendFile::keep(std::uint64_t end) {
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) fail("seek failed");
  end_ = std::min(end, static_cast<std::uint64_t>(size));
  if (end_ == static_cast<std::uint64_t>(size)) return 0;
  if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0) fail("truncate failed");
  if (::lseek(fd_, static_cast<off_t>(end_), SEEK_SET) < 0) fail("seek failed");
  return static_cast<std::uint64_t>(size) - end_;
}

void AppendFile::append(const char* data, std::size_t size) {
  if (write_bytes(fd_, data, size)) {
    end_ += size;
    unsynced_ = true;
    return;
  }
  const int err = errno;
  if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(end_), SEEK_SET) < 0) {
    close();
  }
  errno = err;
  fail("write failed");
}

void AppendFile::sync() {
  while (::fdatasync(fd_) != 0) {
    if (errno != EINTR) fail("fdatasync failed");
  }
  if (dir_sync_pending_) fsync_parent_dir(path_);
  unsynced_ = dir_sync_pending_ = false;
}

void AppendFile::close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

}  // namespace mtcmos::util
