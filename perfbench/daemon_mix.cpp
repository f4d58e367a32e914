// daemon_mix: a forked sizing::Daemon on a scratch state directory under a
// closed loop of two client connections sending `rank` requests on
// builtin:adder3.  Half of each client's requests name a W/L no request
// has used yet (every item is a store miss); the other half repeat one of
// the client's own earlier W/Ls (every item is a dedup hit), so the write
// path and the read path of the store are measured side by side.  The
// seed picks the W/Ls and the order of fresh and repeat requests.
//
// Latency is client-side: send -> ack -> first row -> done line.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "sizing/campaign.hpp"
#include "sizing/daemon.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace sz = mtcmos::sizing;
using mtcmos::util::LineChannel;

namespace {

constexpr int kClients = 2;

struct Timing {
  bool fresh = false;
  double total_ms = 0.0;
  double ack_ms = 0.0;
  double eval_ms = 0.0;
  double stream_ms = 0.0;
  std::size_t rows = 0;
  std::size_t row_bytes = 0;
  double hits = 0.0;
  double misses = 0.0;
  Clock::time_point t_send{}, t_ack{}, t_first{}, t_done{};
};

struct Slot {
  double wl = 0.0;
  bool fresh = false;
};

/// Per-client request schedules: slot 0 is fresh, `fresh_per_client` - 1
/// more fresh slots are placed at seeded positions, and every repeat
/// names a W/L the same client already completed (so it is a dedup hit by
/// the time the closed loop sends it).  Fresh W/Ls are distinct globally.
std::vector<std::vector<Slot>> make_plan(std::uint64_t seed, int fresh_per_client) {
  mtcmos::Rng rng(seed);
  std::set<double> used;
  std::vector<std::vector<Slot>> plan(kClients);
  for (auto& slots : plan) {
    const int n = 2 * fresh_per_client;
    std::vector<int> order(static_cast<std::size_t>(n - 1));
    for (int i = 0; i < n - 1; ++i) order[static_cast<std::size_t>(i)] = i + 1;
    std::shuffle(order.begin(), order.end(), rng.engine());
    std::vector<char> is_fresh(static_cast<std::size_t>(n), 0);
    is_fresh[0] = 1;
    for (int i = 0; i < fresh_per_client - 1; ++i) {
      is_fresh[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
    }
    std::vector<double> mine;
    for (int i = 0; i < n; ++i) {
      Slot s;
      s.fresh = is_fresh[static_cast<std::size_t>(i)] != 0;
      if (s.fresh) {
        do {
          s.wl = std::round(rng.uniform_real(2.0, 200.0) * 100.0) / 100.0;
        } while (!used.insert(s.wl).second);
        mine.push_back(s.wl);
      } else {
        s.wl = mine[static_cast<std::size_t>(rng.uniform_int(0, mine.size() - 1))];
      }
      slots.push_back(s);
    }
  }
  return plan;
}

std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= '\n';
  return h * 1099511628211ull;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One forked daemon.  A daemon still running when this goes out of scope
/// (a check threw mid-round) is killed and reaped, never left behind.
struct Daemon {
  Daemon() = default;
  ~Daemon() {
    if (child.pid > 0) {
      mtcmos::util::send_signal(child.pid, SIGKILL);
      int status = 0;
      while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  mtcmos::util::ChildProcess child;
  std::string socket_path;
  std::string state_dir;
};

class DaemonWorkload {
 public:
  DaemonWorkload(const RunConfig& cfg, RunResult& r)
      : cfg_(cfg), r_(r), circuit_(cfg.smoke ? "builtin:adder2" : "builtin:adder3"),
        fresh_per_client_(cfg.smoke ? 3 : 55) {}

  std::string state_dir(int index) const {
    return (fs::path(cfg_.work_dir) / ("daemon" + std::to_string(index))).string();
  }
  std::string socket_path(int index) const {
    return (fs::path(cfg_.work_dir) / ("d" + std::to_string(index) + ".sock")).string();
  }

  /// Fork a daemon and wait until it accepts a connection; returns the
  /// connected fd and records the set-up time.
  int start(Daemon& d, int index) {
    d.state_dir = state_dir(index);
    d.socket_path = socket_path(index);
    cleanup(index);
    sz::DaemonOptions opt;
    opt.socket_path = d.socket_path;
    opt.state_dir = d.state_dir;
    const Clock::time_point t0 = Clock::now();
    d.child = mtcmos::util::spawn_child([opt](int) -> int {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed harness
      return sz::Daemon::exit_code(sz::Daemon(opt).serve());
    });
    mtcmos::util::close_fd(d.child.pipe_fd);
    // Fine-grained retries: the start-up takes about a millisecond.
    for (int i = 0; i < 200000; ++i) {
      try {
        const int fd = mtcmos::util::unix_connect(d.socket_path);
        setup_s_.push_back(seconds_since(t0));
        return fd;
      } catch (const std::exception&) {
        ::usleep(50);
      }
    }
    return -1;
  }

  /// Drain the daemon through `ch` and reap it; returns its rusage.
  rusage stop(Daemon& d, LineChannel& ch) {
    ch.send("{\"op\":\"drain\"}");
    std::string line;
    while (ch.recv(line, 60000)) {
    }
    ch.close();
    rusage ru{};
    int status = 0;
    pid_t reaped = -1;
    do {
      reaped = ::wait4(d.child.pid, &status, 0, &ru);
    } while (reaped < 0 && errno == EINTR);
    if (reaped == d.child.pid) d.child.pid = -1;
    r_.check(reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
             "daemon_mix: daemon drained clean");
    return ru;
  }

  /// One closed-loop request: send, then read ack, rows and the done line.
  bool request(LineChannel& ch, double wl, Timing& t, std::uint64_t& digest) {
    const std::string req = "{\"op\":\"rank\",\"circuit\":\"" + circuit_ +
                            "\",\"wl\":" + mtcmos::util::json_double(wl) + "}";
    const Clock::time_point t_send = Clock::now();
    if (!ch.send(req)) return false;
    Clock::time_point t_ack = t_send, t_first = t_send;
    bool have_first = false;
    digest = 1469598103934665603ull;
    std::string line;
    while (ch.recv(line, 120000)) {
      if (line.rfind("{\"type\":\"row\"", 0) == 0) {
        if (!have_first) {
          t_first = Clock::now();
          have_first = true;
        }
        ++t.rows;
        t.row_bytes += line.size() + 1;
        digest = fnv(digest, line);
      } else if (line.rfind("{\"type\":\"ack\"", 0) == 0) {
        t_ack = Clock::now();
      } else if (line.rfind("{\"type\":\"done\"", 0) == 0) {
        const Clock::time_point t_done = Clock::now();
        if (!have_first) t_first = t_done;
        t.total_ms = ms_between(t_send, t_done);
        t.ack_ms = ms_between(t_send, t_ack);
        t.eval_ms = ms_between(t_ack, t_first);
        t.stream_ms = ms_between(t_first, t_done);
        t.t_send = t_send;
        t.t_ack = t_ack;
        t.t_first = t_first;
        t.t_done = t_done;
        const mtcmos::util::JsonPtr doc = mtcmos::util::parse_json(line);
        t.hits = doc->number_or("dedup_hits", -1.0);
        t.misses = doc->number_or("dedup_misses", -1.0);
        return doc->number_or("failed", -1) == 0.0 &&
               doc->number_or("rows", -1) == static_cast<double>(t.rows);
      } else {
        std::cerr << "daemon_mix: unexpected line " << line.substr(0, 200) << "\n";
        return false;
      }
    }
    return false;
  }

  void client(LineChannel& ch, const std::vector<Slot>& slots, std::vector<Timing>& out,
              std::size_t& failures) {
    std::map<double, std::uint64_t> first_answer;
    for (const Slot& s : slots) {
      Timing t;
      t.fresh = s.fresh;
      std::uint64_t digest = 0;
      bool ok = false;
      try {
        ok = request(ch, s.wl, t, digest);
      } catch (const std::exception& e) {  // a malformed done line
        std::cerr << "daemon_mix: " << e.what() << "\n";
      }
      if (s.fresh) {
        first_answer[s.wl] = digest;
        ok = ok && t.hits == 0.0;
      } else {
        ok = ok && first_answer.count(s.wl) == 1 && first_answer[s.wl] == digest && t.misses == 0.0;
      }
      if (!ok) ++failures;
      out.push_back(t);
    }
  }

  /// One daemon life: start, run both clients' schedules, stop.
  void round(int index, std::vector<Timing>& timings, double& wall_s) {
    Daemon d;
    const int fd0 = start(d, index);
    if (!r_.check(fd0 >= 0, "daemon_mix: daemon accepts connections")) return;
    std::vector<std::unique_ptr<LineChannel>> chans;
    chans.push_back(std::make_unique<LineChannel>(fd0));
    for (int c = 1; c < kClients; ++c) {
      chans.push_back(std::make_unique<LineChannel>(mtcmos::util::unix_connect(d.socket_path)));
    }
    const auto plan = make_plan(cfg_.seed, fresh_per_client_);
    std::vector<std::vector<Timing>> per(kClients);
    std::vector<std::size_t> failures(kClients, 0);
    const Clock::time_point t0 = Clock::now();
    {
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        threads.emplace_back([&, ci] { client(*chans[ci], plan[ci], per[ci], failures[ci]); });
      }
      for (std::thread& t : threads) t.join();
    }
    wall_s = seconds_since(t0);
    for (int c = 0; c < kClients; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      const std::size_t ops = plan[ci].size();
      r_.attempted += ops;
      r_.failed += failures[ci] + (ops - std::min(ops, per[ci].size()));
      timings.insert(timings.end(), per[ci].begin(), per[ci].end());
    }
    if (failures[0] + failures[1] > 0) {
      r_.note("daemon_mix: " + std::to_string(failures[0] + failures[1]) +
              " requests failed their checks");
    }
    rss_mb_.push_back(peak_rss_mb_of(d.child.pid));
    last_io_ = proc_io(d.child.pid);
    for (std::size_t c = 1; c < chans.size(); ++c) chans[c]->close();
    last_ru_ = stop(d, *chans[0]);
    last_store_ = (fs::path(d.state_dir) / "store.mtj").string();
  }

  /// Daemon start-up alone (fork to first accepted connection), then drain.
  void setup_only(int index) {
    Daemon d;
    const int fd = start(d, index);
    if (!r_.check(fd >= 0, "daemon_mix: daemon accepts connections")) return;
    LineChannel ch(fd);
    stop(d, ch);
    cleanup(index);
  }

  void cleanup(int index) const {
    std::error_code ec;
    fs::remove_all(state_dir(index), ec);
    fs::remove(socket_path(index), ec);
  }

  /// In-process kernel time for the same circuit and W/Ls: a fresh
  /// VbsBackend and rank_vectors_stream into a counting sink [ms].
  double kernel_ms() {
    const auto plan = make_plan(cfg_.seed, fresh_per_client_);
    mtcmos::util::ThreadPool pool(cfg_.threads);
    const sz::CornerCircuit cc = sz::build_campaign_circuit(circuit_, nullptr);
    const std::vector<sz::VectorPair> vectors =
        sz::all_vector_pairs(static_cast<int>(cc.nl.inputs().size()));
    std::vector<double> ms;
    for (const Slot& s : plan[0]) {
      if (!s.fresh || ms.size() >= 8) continue;
      const sz::VbsBackend backend(cc.nl, cc.outputs);
      CountingSink sink;
      sz::EvalSession session;
      session.pool = &pool;
      session.sink = &sink;
      const Clock::time_point t0 = Clock::now();
      sz::rank_vectors_stream(backend, vectors, s.wl, session);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    return median(ms);
  }

  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::vector<double>& rss_mb() const { return rss_mb_; }
  const ProcSample& last_io() const { return last_io_; }
  const rusage& last_ru() const { return last_ru_; }
  const std::string& last_store() const { return last_store_; }

 private:
  const RunConfig& cfg_;
  RunResult& r_;
  std::string circuit_;
  int fresh_per_client_;
  std::vector<double> setup_s_;
  std::vector<double> rss_mb_;
  ProcSample last_io_;
  rusage last_ru_{};
  std::string last_store_;
};

/// Per-request latencies and row rates, split by kind.
struct Summary {
  std::vector<double> fresh_ms, dedup_ms;
  std::vector<double> fresh_rate, dedup_rate;
  double requests = 0.0, wall_s = 0.0;

  void add(const std::vector<Timing>& ts, double wall) {
    for (const Timing& t : ts) {
      (t.fresh ? fresh_ms : dedup_ms).push_back(t.total_ms);
      (t.fresh ? fresh_rate : dedup_rate).push_back(static_cast<double>(t.rows) / t.total_ms * 1e3);
    }
    requests += static_cast<double>(ts.size());
    wall_s += wall;
  }
};

double part_median(const std::vector<Timing>& ts, bool fresh, double Timing::*field) {
  std::vector<double> v;
  for (const Timing& t : ts) {
    if (t.fresh == fresh) v.push_back(t.*field);
  }
  return median(v);
}

}  // namespace

void run_daemon_mix(const RunConfig& cfg, RunResult& r) {
  DaemonWorkload w(cfg, r);
  for (int i = 0; i < kSetupSamples; ++i) w.setup_only(100 + i);

  if (!cfg.traced) {
    Summary sum;
    UnitBudget budget(cfg.seconds);
    int index = 0;
    while (budget.another()) {
      std::vector<Timing> ts;
      double wall = 0.0;
      w.round(index, ts, wall);
      w.cleanup(index);
      ++index;
      sum.add(ts, wall);
    }
    LegSamples legs;
    legs.setup_s = w.setup_s();
    legs.fresh_ms = sum.fresh_ms;
    legs.replay_ms = sum.dedup_ms;
    legs.fresh_rate = sum.fresh_rate;
    legs.replay_rate = sum.dedup_rate;
    set_end_to_end(r, legs, median(w.rss_mb()));
    r.note("rank_fresh_p50_ms = " + std::to_string(percentile(sum.fresh_ms, 50)) +
           ", rank_fresh_p90_ms = " + std::to_string(percentile(sum.fresh_ms, 90)) + " (n = " +
           std::to_string(sum.fresh_ms.size()) + ")");
    r.note("rank_dedup_p50_ms = " + std::to_string(percentile(sum.dedup_ms, 50)) +
           ", rank_dedup_p90_ms = " + std::to_string(percentile(sum.dedup_ms, 90)) + " (n = " +
           std::to_string(sum.dedup_ms.size()) + ")");
    r.note("daemon_requests_per_s = " + std::to_string(sum.requests / sum.wall_s) + " (" +
           std::to_string(budget.units()) + " daemon rounds, " + std::to_string(kClients) +
           " closed-loop clients)");
    return;
  }

  // Traced: one plain round for the overhead baseline, one round whose
  // timestamps feed the attribution, then the direct legs.
  std::vector<Timing> plain_ts, ts;
  double plain_wall = 0.0, wall = 0.0;
  w.round(0, plain_ts, plain_wall);
  w.cleanup(0);
  w.round(1, ts, wall);
  Summary plain, traced;
  plain.add(plain_ts, plain_wall);
  traced.add(ts, wall);

  const double fresh_p50 = percentile(traced.fresh_ms, 50);
  r.set("sizing.daemon.fresh_p90_ms", percentile(traced.fresh_ms, 90), "ms");
  r.set("sizing.daemon.dedup_p90_ms", percentile(traced.dedup_ms, 90), "ms");
  r.note("rank_fresh_p90_ms over " + std::to_string(traced.fresh_ms.size()) +
         " requests, rank_dedup_p90_ms over " + std::to_string(traced.dedup_ms.size()));
  r.set("sizing.daemon.ack_ms", part_median(ts, true, &Timing::ack_ms), "ms");
  r.set("sizing.daemon.eval_ms", part_median(ts, true, &Timing::eval_ms), "ms");
  r.set("sizing.daemon.stream_ms", part_median(ts, true, &Timing::stream_ms), "ms");
  r.set("sizing.daemon.dedup_ack_ms", part_median(ts, false, &Timing::ack_ms), "ms");
  r.set("sizing.daemon.dedup_eval_ms", part_median(ts, false, &Timing::eval_ms), "ms");
  r.set("sizing.daemon.dedup_stream_ms", part_median(ts, false, &Timing::stream_ms), "ms");
  const double parts = r.metrics["sizing.daemon.ack_ms"].value +
                       r.metrics["sizing.daemon.eval_ms"].value +
                       r.metrics["sizing.daemon.stream_ms"].value;
  r.set("sizing.daemon.parts_over_p50", parts / fresh_p50, "ratio");
  r.note("rank_fresh_p50_ms " + std::to_string(fresh_p50) + " = ack + eval + stream medians " +
         std::to_string(parts) + " (" + std::to_string(parts / fresh_p50 * 100.0) + " %)");

  double rows = 0.0, row_bytes = 0.0, hits = 0.0, misses = 0.0;
  for (const Timing& t : ts) {
    rows += static_cast<double>(t.rows);
    row_bytes += static_cast<double>(t.row_bytes);
    hits += t.hits;
    misses += t.misses;
  }
  r.set("util.socket.bytes_per_row", rows > 0 ? row_bytes / rows : 0.0, "B");
  r.set("sizing.daemon.dedup_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
        "ratio");
  r.set("sizing.daemon.requests_per_s", traced.requests / traced.wall_s, "1/s");

  // Daemon child process counters (last round).
  ProcSample zero;
  ProcSample child = w.last_io();
  const rusage& ru = w.last_ru();
  child.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
  child.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
  child.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  set_proc_metrics(r, zero, child);

  probe_checkpoint(r, w.last_store(), (fs::path(cfg.work_dir) / "probe.mtj").string(),
                   cfg.smoke ? 256 : 65536);
  w.cleanup(1);

  const double kernel = w.kernel_ms();
  r.set("sizing.daemon.kernel_share", kernel / fresh_p50, "ratio");
  r.note("kernel_share = in-process rank " + std::to_string(kernel) + " ms / rank_fresh_p50 " +
         std::to_string(fresh_p50) + " ms");
  r.set("trace.fresh_overhead_pct",
        (percentile(traced.fresh_ms, 50) / percentile(plain.fresh_ms, 50) - 1.0) * 100.0, "%");
  r.set("trace.replay_overhead_pct",
        (percentile(traced.dedup_ms, 50) / percentile(plain.dedup_ms, 50) - 1.0) * 100.0, "%");

  // The daemon's layers are timed client-side; keep them as spans too.
  Tracer tracer;
  for (const Timing& t : ts) {
    const int req =
        tracer.add(t.fresh ? "daemon.rank.fresh" : "daemon.rank.dedup", -1, t.t_send, t.t_done);
    tracer.add("sizing.daemon.ack", req, t.t_send, t.t_ack);
    tracer.add("sizing.daemon.eval", req, t.t_ack, t.t_first);
    tracer.add("sizing.daemon.stream", req, t.t_first, t.t_done);
  }
  write_trace(cfg, tracer, "daemon_mix", r);
}

}  // namespace perfbench
