#include "sizing/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "sizing/session.hpp"
#include "util/faultinject.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"

namespace mtcmos::sizing {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::nanoseconds to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(seconds));
}

/// Append the front half of a valid record to the journal file, so the
/// file ends mid-record exactly as a crash between write() and return
/// would leave it.  Replay must truncate it away.
void write_torn_tail(const std::string& journal_path) {
  const std::string record =
      util::format_journal_record("torn:injected", "partial-record-payload");
  const int fd = ::open(journal_path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return;
  const std::string half = record.substr(0, record.size() / 2);
  ssize_t ignored = ::write(fd, half.data(), half.size());
  (void)ignored;
  ::close(fd);
}

/// Worker body, run in the forked child.  Walks its (item, strikes)
/// assignment serially, skipping items its shard journal already holds,
/// announcing "S <idx>" before each and heartbeating "H" on the pipe
/// from a side thread.  With a `columnar_path`, item bodies also
/// get a shard store of `rows_per_block`-row blocks.  The
/// kWorker* fault sites are consulted between "S" and the item body,
/// under the item's scope and with the item's prior strike count as the
/// process generation, so tests can script "die on this item's first
/// two attempts" deterministically.
int worker_main(int wfd, const std::string& journal_path, const std::string& columnar_path,
                std::size_t rows_per_block, const std::vector<std::pair<std::size_t, int>>& items,
                const ItemFn& run_one, const KeyFn& key_of) {
  util::install_cancel_signal_handlers();
  util::CancelToken& cancel = util::CancelToken::global();

  Checkpoint ckpt;
  ckpt.open(journal_path);
  // Shard columnar store, append-reopened so blocks flushed by a prior
  // life of this slot survive the restart (a torn tail from a mid-write
  // SIGKILL is sheared off by open()).
  util::ColumnarWriter columnar;
  if (!columnar_path.empty()) {
    util::ColumnarOptions copts;
    copts.rows_per_block = rows_per_block;
    columnar.open(columnar_path, copts);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> stalled{false};
  std::atomic<bool> parent_gone{false};
  std::thread heartbeat([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!stalled.load(std::memory_order_relaxed) && !util::write_line(wfd, "H")) {
        parent_gone.store(true, std::memory_order_relaxed);
        break;
      }
      std::this_thread::sleep_for(to_duration(kHeartbeatIntervalS));
    }
  });
  const auto finish = [&](int code) {
    stop.store(true, std::memory_order_relaxed);
    heartbeat.join();
    return code;  // ckpt destructor flushes + closes the journal
  };

  for (const auto& [idx, strikes] : items) {
    if (cancel.requested() || parent_gone.load(std::memory_order_relaxed)) return finish(3);
    const Checkpoint::Key key = key_of(idx);
    if (ckpt.contains(key)) continue;  // replayed from a prior life
    if (!util::write_line(wfd, "S " + std::to_string(idx))) return finish(3);

    faultinject::set_generation(strikes);
    const faultinject::ScopedScope scope(static_cast<std::int64_t>(idx));
    if (faultinject::fired(faultinject::Site::kWorkerAbort)) std::abort();
    if (faultinject::fired(faultinject::Site::kWorkerKill)) ::raise(SIGKILL);
    if (faultinject::fired(faultinject::Site::kWorkerTornTail)) {
      ckpt.journal().flush();
      write_torn_tail(journal_path);
      ::raise(SIGKILL);
    }
    if (faultinject::fired(faultinject::Site::kWorkerStall)) {
      // Go silent: no heartbeats, no progress.  The parent's liveness
      // timeout must SIGKILL us; the self-exit below is a backstop so a
      // supervisor-less test leak cannot hang forever.
      stalled.store(true, std::memory_order_relaxed);
      const auto give_up = Clock::now() + to_duration(kLivenessTimeoutS * 4.0 + 1.0);
      while (Clock::now() < give_up && !cancel.requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return finish(2);
    }

    run_one(idx, ckpt, columnar.is_open() ? &columnar : nullptr);
    // An item that journaled nothing was drained mid-body by a
    // cancellation: report the drain instead of claiming completion.
    if (!ckpt.contains(key)) return finish(3);
  }
  return finish(cancel.requested() ? 3 : 0);
}

/// Parent-side view of one worker slot.
struct Slot {
  enum class State { Live, Backoff, Done };
  State state = State::Done;
  std::vector<std::size_t> assigned;  ///< current item assignment
  std::string journal_path;
  std::string columnar_path;  ///< empty = columnar shard store disabled
  pid_t pid = -1;
  int fd = -1;
  std::unique_ptr<util::LineReader> reader;
  Clock::time_point last_beat = {};
  Clock::time_point respawn_at = {};
  double backoff_s = 0.0;
  int restarts = 0;
  std::int64_t current = -1;  ///< the item last announced with "S"
};

/// The items of `idx` whose key `ckpt` lacks, in order.
std::vector<std::size_t> absent(const Checkpoint& ckpt, const std::vector<std::size_t>& idx,
                                const KeyFn& key_of) {
  std::vector<std::size_t> out;
  for (const std::size_t i : idx) {
    if (!ckpt.contains(key_of(i))) out.push_back(i);
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> plan_shards(std::size_t n_items, int shards) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (n_items == 0) return out;
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(1, shards)), n_items);
  const std::size_t base = n_items / k;
  const std::size_t extra = n_items % k;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

SupervisorStats supervise(const SupervisorOptions& options, std::size_t n_items,
                          const ItemFn& run_one, const KeyFn& key_of, Checkpoint& merged,
                          util::ColumnarWriter* columnar) {
  if (options.dir.empty()) {
    throw std::invalid_argument("supervisor: options.dir must name a journal directory");
  }
  if (!merged.armed()) {
    throw std::invalid_argument("supervisor: the merged checkpoint must be armed");
  }
  if (options.shards < 1) throw std::invalid_argument("supervisor: shards must be >= 1");
  if (columnar != nullptr && !columnar->is_open()) {
    throw std::invalid_argument("supervisor: the columnar merge destination must be open");
  }
  const std::size_t rows_per_block = columnar != nullptr ? columnar->rows_per_block() : 0;

  // Plan only the items the caller's checkpoint lacks.
  SupervisorStats stats;
  std::vector<std::size_t> all(n_items);
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<std::size_t> todo = absent(merged, all, key_of);
  if (todo.empty()) return stats;
  std::filesystem::create_directories(options.dir);
  util::CancelToken& cancel =
      options.cancel_token != nullptr ? *options.cancel_token : util::CancelToken::global();

  const auto ranges = plan_shards(todo.size(), options.shards);
  std::vector<Slot> slots(ranges.size());
  std::unordered_map<std::size_t, int> strikes;
  std::unordered_set<std::size_t> quarantined;
  const auto quarantine = [&](std::size_t idx) {
    if (quarantined.insert(idx).second) ++stats.quarantined;
  };

  const auto spawn = [&](std::size_t s) {
    Slot& slot = slots[s];
    std::vector<std::pair<std::size_t, int>> items;
    items.reserve(slot.assigned.size());
    for (const std::size_t idx : slot.assigned) {
      const auto it = strikes.find(idx);
      items.emplace_back(idx, it == strikes.end() ? 0 : it->second);
    }
    const util::ChildProcess child = util::spawn_child([&, s, items](int wfd) {
      return worker_main(wfd, slots[s].journal_path, slots[s].columnar_path, rows_per_block,
                         items, run_one, key_of);
    });
    slot.pid = child.pid;
    slot.fd = child.pipe_fd;
    slot.reader = std::make_unique<util::LineReader>(child.pipe_fd);
    slot.last_beat = Clock::now();
    slot.current = -1;
    slot.state = Slot::State::Live;
    ++stats.workers_spawned;
  };

  for (std::size_t s = 0; s < ranges.size(); ++s) {
    Slot& slot = slots[s];
    slot.journal_path = options.dir + "/shard" + std::to_string(s) + ".mtj";
    if (columnar != nullptr) {
      slot.columnar_path = options.dir + "/shard" + std::to_string(s) + ".mtc";
    }
    slot.assigned.assign(todo.begin() + static_cast<std::ptrdiff_t>(ranges[s].first),
                         todo.begin() + static_cast<std::ptrdiff_t>(ranges[s].second));
    spawn(s);
  }

  const auto process_lines = [&](Slot& slot) {
    std::vector<std::string> lines;
    slot.reader->poll(lines);
    for (const std::string& line : lines) {
      // Every line is a sign of life; an "S" line also names the item.
      slot.last_beat = Clock::now();
      if (!line.empty() && line[0] == 'S') slot.current = std::atoll(line.c_str() + 1);
    }
  };

  bool cancel_seen = false;
  bool drain_killed = false;
  Clock::time_point drain_deadline = {};

  const auto on_death = [&](std::size_t s, const util::ExitStatus& st) {
    Slot& slot = slots[s];
    process_lines(slot);  // drain the pipe's final lines
    util::close_fd(slot.fd);
    slot.fd = -1;
    slot.reader.reset();
    slot.pid = -1;

    // A clean exit (0) or a drain (3) ends the slot, as does any death
    // once the run is cancelled.
    const bool finished = st.exited && !st.signaled && (st.exit_code == 0 || st.exit_code == 3);
    if (finished || cancel_seen) {
      slot.state = Slot::State::Done;
      return;
    }

    // Crash (abort, SIGKILL, stall self-exit, body exception).  Blame
    // the last announced item unless its outcome reached the journal
    // (a death after journaling it, before the next "S").
    Checkpoint done_log;
    done_log.open(slot.journal_path);
    done_log.journal().close();
    if (slot.current >= 0) {
      const std::size_t idx = static_cast<std::size_t>(slot.current);
      if (!done_log.contains(key_of(idx))) {
        ++stats.strikes;
        if (++strikes[idx] >= kPoisonStrikes) quarantine(idx);
      }
    }
    std::vector<std::size_t> pending;
    for (const std::size_t idx : absent(done_log, slot.assigned, key_of)) {
      if (quarantined.count(idx) == 0) pending.push_back(idx);
    }
    if (pending.empty()) {
      slot.state = Slot::State::Done;
      return;
    }
    if (slot.restarts < kMaxRestarts) {
      slot.assigned = std::move(pending);
      ++slot.restarts;
      ++stats.restarts;
      slot.backoff_s = slot.backoff_s <= 0.0
                           ? kBackoffInitialS
                           : std::min(slot.backoff_s * 2.0, kBackoffMaxS);
      slot.respawn_at = Clock::now() + to_duration(slot.backoff_s);
      slot.state = Slot::State::Backoff;
      return;
    }
    // Restart budget exhausted: the shard's pending items go to the
    // caller's in-process pass -- except any that already drew blood,
    // which are quarantined, so the parent never runs a suspected killer.
    for (const std::size_t idx : pending) {
      if (strikes.count(idx) != 0) {
        quarantine(idx);
      } else {
        ++stats.abandoned;
      }
    }
    slot.state = Slot::State::Done;
  };

  while (true) {
    const auto now = Clock::now();

    // Cancellation: propagate once, then enforce the drain window.
    if (!cancel_seen && cancel.requested()) {
      cancel_seen = true;
      stats.cancelled = true;
      drain_deadline = now + to_duration(kDrainTimeoutS);
      for (Slot& slot : slots) {
        if (slot.state == Slot::State::Live) util::send_signal(slot.pid, SIGTERM);
        if (slot.state == Slot::State::Backoff) slot.state = Slot::State::Done;
      }
    }
    if (cancel_seen && !drain_killed && now >= drain_deadline) {
      drain_killed = true;
      for (Slot& slot : slots) {
        if (slot.state == Slot::State::Live) util::send_signal(slot.pid, SIGKILL);
      }
    }

    // Respawn slots whose backoff expired.
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].state == Slot::State::Backoff && now >= slots[s].respawn_at) spawn(s);
    }

    // Wait for pipe traffic (or just sleep while every slot backs off).
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_slots;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].state == Slot::State::Live) {
        fds.push_back({slots[s].fd, POLLIN, 0});
        fd_slots.push_back(s);
      }
    }
    if (::poll(fds.empty() ? nullptr : fds.data(), fds.size(), 10) < 0 && errno != EINTR) {
      break;  // poll failure: fall through to reaping, then exit
    }

    bool any_open = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (slot.state != Slot::State::Live) continue;
      process_lines(slot);
      util::ExitStatus st;
      if (util::try_reap(slot.pid, st)) {
        on_death(s, st);
        continue;
      }
      // Liveness: a worker silent past the timeout is hung -- kill it
      // and let the reap path restart it like any other death.
      if (Clock::now() - slot.last_beat > to_duration(kLivenessTimeoutS)) {
        ++stats.stall_kills;
        util::send_signal(slot.pid, SIGKILL);
        slot.last_beat = Clock::now();  // one kill per timeout window
      }
      any_open = true;
    }
    bool any_backoff = false;
    for (const Slot& slot : slots) any_backoff |= slot.state == Slot::State::Backoff;
    if (!any_open && !any_backoff) break;
  }

  // Merge the shard columnar stores first, by identity: first block per
  // tag wins (a tag re-flushed by a restarted worker holds bit-identical
  // rows).  They are on disk and synced before any shard journal record
  // says their rows exist, so a merge that throws, or a parent that dies
  // here, leaves a resume to re-run those items instead of trusting
  // records whose rows are missing.
  if (columnar != nullptr) {
    std::vector<std::uint64_t> seen_tags;
    for (const Slot& slot : slots) {
      if (slot.columnar_path.empty() || !std::filesystem::exists(slot.columnar_path)) continue;
      util::merge_columnar_file(*columnar, slot.columnar_path, &seen_tags);
    }
    columnar->sync();
  }
  // Then every shard journal's records into the caller's checkpoint, and
  // the quarantine stamps, so replay shows a classified failure instead
  // of re-running the killer.
  for (const Slot& slot : slots) {
    if (!std::filesystem::exists(slot.journal_path)) continue;
    util::merge_journal_file(merged.journal(), slot.journal_path);
  }
  Checkpoint::Stage quarantine_records;
  for (const std::size_t idx :
       absent(merged, std::vector<std::size_t>(quarantined.begin(), quarantined.end()), key_of)) {
    const Checkpoint::Key key = key_of(idx);
    FailureInfo info;
    info.code = FailureCode::kPoisonedItem;
    info.site = "sizing::supervisor";
    info.attempts = strikes[idx];
    info.context = "item " + std::to_string(idx) + " killed " +
                   std::to_string(info.attempts) + " worker(s); quarantined";
    merged.record_failure(key, info, quarantine_records);
  }
  merged.commit(quarantine_records);
  merged.journal().flush();
  // Every shard record is durable in `merged` now: the shard files (and
  // the directory, once empty) have served their purpose.
  for (const Slot& slot : slots) {
    std::filesystem::remove(slot.journal_path);
    if (!slot.columnar_path.empty()) std::filesystem::remove(slot.columnar_path);
  }
  std::error_code not_empty;
  std::filesystem::remove(options.dir, not_empty);
  return stats;
}

SupervisorStats sharded_rank_vectors(const EvalBackend& backend,
                                     const std::vector<VectorPair>& vectors, double wl,
                                     const SupervisorOptions& options, Checkpoint& merged) {
  // Registering the pass context in the merged journal up front also
  // covers items only a quarantine stamp ever records.
  const ItemKeys keys(merged.context(rank_prefix(backend, wl)), vectors);
  const auto key_of = [&keys](std::size_t i) { return Checkpoint::Key(keys[i]); };
  const auto run_one = [&backend, &vectors, wl](std::size_t i, Checkpoint& ckpt,
                                                util::ColumnarWriter*) {
    // One item per call, on an inline pool (a forked worker must not
    // spawn sweep threads), scalar path (a 1-item batch gains nothing).
    util::ThreadPool inline_pool(1);
    EvalSession session;
    session.pool = &inline_pool;
    session.checkpoint = &ckpt;
    session.batch = 1;
    rank_vectors(backend, {vectors[i]}, wl, session);
  };
  return supervise(options, vectors.size(), run_one, key_of, merged);
}

}  // namespace mtcmos::sizing
