#pragma once
// Minimal fork/pipe process supervision primitives.
//
// The sharded sweep supervisor (sizing/supervisor.hpp) isolates each
// shard in a worker *process* so a crashed solver, an OOM kill, or a
// poisoned item can never take down the campaign.  This header carries
// the small POSIX surface it needs, kept in util so tests and future
// drivers (the mtcmos_sizerd daemon) can reuse it:
//
//  - spawn_child(): fork with a status pipe.  The child runs a callback
//    with the pipe's write fd and _exit()s with its return value -- no
//    exec, the worker is the same binary sharing the parent's read-only
//    state.  The parent gets the pid and the pipe's nonblocking read end.
//  - ExitStatus / try_reap / reap: waitpid wrappers that normalize
//    "exited with code" vs "killed by signal".
//  - LineReader: incremental splitter over the nonblocking pipe --
//    workers speak a line protocol (heartbeats, item start/finish) and
//    the parent polls many pipes without blocking on any.
//
// Fork-safety contract for callers: fork() clones only the calling
// thread, so the child must not touch locks or threads it did not
// create.  Spawn workers only while the process's thread pools are
// quiescent, and do heavy lifting in the child with a 1-thread
// ThreadPool (which runs inline and spawns nothing).

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace mtcmos::util {

/// Handle for a forked worker: its pid plus the nonblocking read end of
/// the status pipe (owned by the handle's creator; close with close_fd).
struct ChildProcess {
  pid_t pid = -1;
  int pipe_fd = -1;
};

/// Fork a worker.  In the child, `body` runs with the pipe's write fd
/// and its return value becomes the child's exit code via _exit() --
/// static destructors and atexit handlers do NOT run in the child, so
/// the parent's stdio buffers and journals are never flushed twice.  If
/// `body` throws, the child exits with code 125.  In the parent, returns
/// the pid and the nonblocking, close-on-exec read end.
/// Throws std::runtime_error if pipe2/fork fail.
ChildProcess spawn_child(const std::function<int(int write_fd)>& body);

/// Normalized waitpid result.
struct ExitStatus {
  bool exited = false;   ///< child terminated (either way) and was reaped
  int exit_code = -1;    ///< valid when exited && !signaled
  bool signaled = false; ///< killed by a signal
  int term_signal = 0;   ///< valid when signaled
};

/// Non-blocking reap (waitpid WNOHANG).  Returns true and fills `out`
/// once the child has terminated; false while it is still running.
bool try_reap(pid_t pid, ExitStatus& out);

/// Blocking reap.  Retries EINTR.
ExitStatus reap(pid_t pid);

/// kill() wrapper; ESRCH (already gone) is not an error.
void send_signal(pid_t pid, int sig);

/// Retrying close() for fds handed out by spawn_child.
void close_fd(int fd);

/// Write one '\n'-terminated line to a pipe or socket fd, retrying EINTR
/// and short writes.  Returns false if the reader vanished (EPIPE /
/// ECONNRESET) -- workers treat that as "parent died, stop", the daemon
/// as "client hung up".  Callers must have SIGPIPE ignored.  Worker
/// heartbeat lines stay under PIPE_BUF so they are atomic on pipes;
/// longer lines (daemon result rows) are delivered by the retry loop.
///
/// `stall_timeout_ms` bounds how long a nonblocking fd may sit
/// unwritable (EAGAIN, peer not draining) before the write gives up and
/// returns false; any forward progress restarts the budget.  -1 (the
/// default, right for worker pipes whose parent always polls) waits
/// forever.  The daemon passes a finite grace so a client that stops
/// reading mid-stream is declared dead instead of pinning the executor.
bool write_line(int fd, const std::string& line, int stall_timeout_ms = -1);

/// The one fd writer, under write_line() and util::AppendFile: writes all
/// `size` bytes of `data` with the same EINTR, short-write, EPIPE and
/// stall-budget semantics (on a blocking file fd, a plain write loop).
/// The daemon sends whole frames of pre-terminated lines through it.
bool write_bytes(int fd, const char* data, std::size_t size, int stall_timeout_ms = -1);

/// Incremental line splitter over a nonblocking fd (worker status pipes,
/// daemon socket connections).  poll() drains whatever is currently
/// readable and appends complete lines; a trailing partial line is
/// buffered until its newline arrives -- byte-at-a-time delivery and
/// EINTR-interrupted reads reassemble losslessly.  Any read error other
/// than EAGAIN/EWOULDBLOCK (e.g. ECONNRESET on a socket) is EOF: the
/// peer is gone and will never deliver the missing newline.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Drain readable bytes; append complete lines (without the '\n') to
  /// `lines`.  Returns false once EOF has been observed (writer closed).
  bool poll(std::vector<std::string>& lines);

  bool eof() const { return eof_; }
  int fd() const { return fd_; }

 private:
  int fd_;
  bool eof_ = false;
  std::string partial_;
};

}  // namespace mtcmos::util
