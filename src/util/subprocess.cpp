#include "util/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace mtcmos::util {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("subprocess: ") + what + ": " + std::strerror(errno));
}

ExitStatus decode_status(int raw) {
  ExitStatus st;
  st.exited = true;
  if (WIFSIGNALED(raw)) {
    st.signaled = true;
    st.term_signal = WTERMSIG(raw);
  } else if (WIFEXITED(raw)) {
    st.exit_code = WEXITSTATUS(raw);
  }
  return st;
}

}  // namespace

ChildProcess spawn_child(const std::function<int(int write_fd)>& body) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw_errno("pipe2 failed");

  // Flush stdio so buffered output is not replayed from the child's copy
  // of the buffers when it writes to stdout/stderr.
  std::fflush(stdout);
  std::fflush(stderr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw_errno("fork failed");
  }
  if (pid == 0) {
    // Child: keep only the write end.  Die on SIGPIPE-free EPIPE via
    // write_line's return value instead of the signal.
    ::close(fds[0]);
    ::signal(SIGPIPE, SIG_IGN);
    int code = 125;
    try {
      code = body(fds[1]);
    } catch (...) {
      code = 125;
    }
    ::close(fds[1]);
    ::_exit(code);
  }

  // Parent: keep only the nonblocking read end.
  ::close(fds[1]);
  const int flags = ::fcntl(fds[0], F_GETFL);
  if (flags >= 0) ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
  ChildProcess child;
  child.pid = pid;
  child.pipe_fd = fds[0];
  return child;
}

bool try_reap(pid_t pid, ExitStatus& out) {
  int raw = 0;
  pid_t r;
  do {
    r = ::waitpid(pid, &raw, WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r == pid) {
    out = decode_status(raw);
    return true;
  }
  return false;
}

ExitStatus reap(pid_t pid) {
  int raw = 0;
  pid_t r;
  do {
    r = ::waitpid(pid, &raw, 0);
  } while (r < 0 && errno == EINTR);
  if (r != pid) throw_errno("waitpid failed");
  return decode_status(raw);
}

void send_signal(pid_t pid, int sig) {
  if (pid <= 0) return;
  if (::kill(pid, sig) != 0 && errno != ESRCH) throw_errno("kill failed");
}

void close_fd(int fd) {
  if (fd < 0) return;
  int r;
  do {
    r = ::close(fd);
  } while (r != 0 && errno == EINTR);
}

namespace {

/// poll() for writability, retrying EINTR against the remaining budget.
/// timeout_ms < 0 waits forever.  Returns false on timeout.
bool wait_writable(int fd, int timeout_ms) {
  const auto deadline = timeout_ms < 0
                            ? std::chrono::steady_clock::time_point::max()
                            : std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    int remaining = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      remaining = left > 0 ? static_cast<int>(left) : 0;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int r = ::poll(&pfd, 1, remaining);
    if (r > 0) return true;  // POLLERR/POLLHUP too: the retried write reports it
    if (r == 0) return false;
    if (errno != EINTR) return true;  // let write() surface the error
  }
}

}  // namespace

bool write_bytes(int fd, const char* data, std::size_t size, int stall_timeout_ms) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nonblocking socket with a full send buffer (a slow client
        // mid-row-stream): wait for writability instead of dropping the
        // bytes, but only within the stall budget -- a peer that keeps
        // the connection open yet never reads must not pin the writer
        // forever.  Any drain by the peer restarts the budget.
        if (!wait_writable(fd, stall_timeout_ms)) return false;  // stalled: peer is as good as gone
        continue;
      }
      return false;  // EPIPE: reader is gone
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, const std::string& line, int stall_timeout_ms) {
  // One buffer, one write(): a short line stays atomic on a pipe.
  std::string buf;
  buf.reserve(line.size() + 1);
  buf += line;
  buf += '\n';
  return write_bytes(fd, buf.data(), buf.size(), stall_timeout_ms);
}

bool LineReader::poll(std::vector<std::string>& lines) {
  if (eof_) return false;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // drained for now
      eof_ = true;  // ECONNRESET etc.: the peer is gone, not "try later"
      break;
    }
    if (n == 0) {
      eof_ = true;
      break;
    }
    partial_.append(buf, static_cast<std::size_t>(n));
  }
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = partial_.find('\n', start);
    if (nl == std::string::npos) break;
    lines.emplace_back(partial_, start, nl - start);
    start = nl + 1;
  }
  if (start > 0) partial_.erase(0, start);
  return !eof_;
}

}  // namespace mtcmos::util
