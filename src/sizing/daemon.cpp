#include "sizing/daemon.hpp"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <list>
#include <map>
#include <set>
#include <sstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "netlist/io.hpp"
#include "sizing/backend.hpp"
#include "sizing/campaign.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/result_sink.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "sizing/supervisor.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"

namespace mtcmos::sizing {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Longest deadline or sleep [s] the daemon accepts: half the clock's
/// range, so now() plus it cannot overflow.
constexpr double kMaxWaitS = std::chrono::duration<double>(Clock::duration::max()).count() / 2;

/// Keys per range read of the replay lane's presence check: a sweep chunk.
constexpr std::size_t kPresenceChunk = 256;

/// `seconds`, checked against kMaxWaitS.
double wait_seconds(double seconds, const std::string& what) {
  if (seconds > kMaxWaitS) {
    throw std::invalid_argument(what + " must be <= " + util::json_double(kMaxWaitS) + " s");
  }
  return seconds;
}

/// `{"type":"<type>","req":"<req>","index":<index>` -- the shared head of
/// row and value lines.
void append_line_head(std::string& out, const char* type, const std::string& req,
                      std::size_t index) {
  out += "{\"type\":\"";
  out += type;
  out += "\",\"req\":\"";
  out += req;
  out += "\",\"index\":";
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), index);
  out.append(buf, r.ptr);
}

/// Compact, deterministic re-serialization of a parsed JSON value:
/// objects keep insertion order, numbers print via json_double.  Used to
/// canonicalize the inline campaign spec so the same client bytes always
/// hash to the same request key and the journaled form re-parses.
std::string dump_json(const util::JsonPtr& v) {
  using Kind = util::JsonValue::Kind;
  if (v == nullptr) return "null";
  switch (v->kind()) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return v->as_bool() ? "true" : "false";
    case Kind::kNumber:
      return util::json_double(v->as_number());
    case Kind::kString:
      return util::json_string(v->as_string());
    case Kind::kArray: {
      std::string out = "[";
      const auto& items = v->as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out += ",";
        out += dump_json(items[i]);
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const std::string& key : v->object_keys()) {
        if (!first) out += ",";
        first = false;
        out += util::json_string(key) + ":" + dump_json(v->get(key));
      }
      return out + "}";
    }
  }
  return "null";
}

/// One parsed protocol request.  `canonical()` is the identity: it is
/// what gets hashed into the request key and what the request journal
/// stores, so a restart re-parses exactly the admitted work.  The
/// deadline is deliberately *not* part of the identity -- two clients
/// asking for the same sweep under different deadlines are asking for
/// the same work, and a headless restart-resume runs without one.
struct Request {
  std::string op;
  std::string circuit;
  std::string backend = "vbs";
  double wl = 10.0;          // rank
  double target_pct = 5.0;   // size / verify
  int vectors = 200;         // sampled-mode transition count
  std::uint64_t seed = 1;
  double seconds = 0.0;      // sleep
  std::string spec;          // campaign: canonicalized spec document
  double deadline_s = 0.0;   // not hashed

  std::string canonical() const {
    std::string out = "{\"op\":" + util::json_string(op);
    if (op == "sleep") {
      out += ",\"seconds\":" + util::json_double(seconds);
    } else if (op == "campaign") {
      out += ",\"spec\":" + spec;
    } else {
      out += ",\"circuit\":" + util::json_string(circuit) +
             ",\"backend\":" + util::json_string(backend);
      if (op == "rank") out += ",\"wl\":" + util::json_double(wl);
      if (op == "size" || op == "verify") {
        out += ",\"target_pct\":" + util::json_double(target_pct);
      }
      out += ",\"vectors\":" + std::to_string(vectors) + ",\"seed\":" + std::to_string(seed);
    }
    return out + "}";
  }

  std::string key() const {
    const std::string c = canonical();
    return util::hex16(util::fnv1a64(c.data(), c.size()));
  }
};

Request parse_request(const util::JsonValue& doc) {
  Request req;
  req.op = doc.require("op")->as_string();
  if (req.op != "rank" && req.op != "size" && req.op != "verify" && req.op != "campaign" &&
      req.op != "sleep") {
    throw std::invalid_argument("unknown op '" + req.op +
                                "' (expected rank|size|verify|campaign|sleep|status|drain)");
  }
  req.deadline_s = wait_seconds(doc.number_or("deadline_s", 0.0), "deadline_s");
  if (req.op == "sleep") {
    req.seconds = wait_seconds(doc.number_or("seconds", 0.0), "seconds");
    if (req.seconds < 0.0) throw std::invalid_argument("sleep: seconds must be >= 0");
    return req;
  }
  if (req.op == "campaign") {
    const util::JsonPtr spec = doc.require("spec");
    req.spec = dump_json(spec);
    CampaignSpec::parse(req.spec);  // validate at admission, not mid-queue
    return req;
  }
  req.circuit = doc.require("circuit")->as_string();
  req.backend = doc.string_or("backend", "vbs");
  if (req.backend != "vbs" && req.backend != "spice") {
    throw std::invalid_argument("unknown backend '" + req.backend + "' (expected vbs or spice)");
  }
  req.wl = doc.number_or("wl", 10.0);
  if (!(req.wl > 0.0)) throw std::invalid_argument("wl must be > 0");
  req.target_pct = doc.number_or("target_pct", 5.0);
  req.vectors = doc.integer_or("vectors", 200);
  if (req.vectors < 1) throw std::invalid_argument("vectors must be >= 1");
  req.seed = doc.integer_or<std::uint64_t>("seed", 1);
  // Fail unknown circuits at admission so the client's bad-request
  // arrives before the ack, not as a failed execution later.
  campaign_nominal_tech(req.circuit);
  return req;
}

/// One accepted client connection.  Lines are written under a mutex so
/// poll-loop acks and executor row streams never interleave mid-line
/// (whole-line interleaving is fine: every line carries its request
/// key).  A client that hung up -- or kept the connection open but
/// stopped reading for longer than the write-stall grace -- flips
/// `alive`; senders keep going headless, because the work itself must
/// finish into the checkpoint store regardless.  The bounded stall is
/// what keeps a wedged client from pinning the executor (and the write
/// mutex) past deadlines, drain, and SIGTERM.
struct Connection {
  static constexpr int kWriteStallMs = 5000;  ///< the write-stall grace [ms]

  explicit Connection(int fd_in) : fd(fd_in), reader(fd_in) {}
  ~Connection() { util::close_fd(fd); }

  void send(const std::string& line) { send_frame(line + '\n'); }

  /// Send a frame of whole, '\n'-terminated lines with one write.
  void send_frame(const std::string& frame) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    write_locked(frame);
  }

  /// Send an admitted request's terminal (done or error) line.  It
  /// leaves `in_flight` under the write lock, so the request is out of
  /// flight before the client can see its end, and nothing the
  /// connection sends next can overtake the line.
  void send_terminal(const std::string& line) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    in_flight.fetch_sub(1);
    write_locked(line + '\n');
  }

  int fd;
  util::LineReader reader;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
  /// Admitted requests whose terminal line is not sent yet.  Only a
  /// connection with none may use the replay lane, so one connection's
  /// answers never overtake each other.
  std::atomic<int> in_flight{0};

 private:
  void write_locked(const std::string& bytes) {
    if (!alive.load(std::memory_order_relaxed)) return;
    if (!util::write_bytes(fd, bytes.data(), bytes.size(), kWriteStallMs)) {
      alive.store(false, std::memory_order_relaxed);
    }
  }
};

using ConnPtr = std::shared_ptr<Connection>;

/// An executing request's cancellation surface, shared between the
/// thread running it (which plumbs the token into the sweep session) and
/// the poll loop (which raises it on deadline expiry or drain).
struct ActiveState {
  util::CancelToken token;
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<bool> deadline_fired{false};
};

struct Pending {
  std::string key;
  std::string canonical;
  Request req;
  ConnPtr conn;  ///< nullptr for headless restart-resumed requests
};

/// ResultSink streaming rows to the client as JSON lines.  The entry
/// points emit in input order, on the request's thread, while the sweep
/// still computes, so the row sequence -- indices, bits, round-trip-exact
/// doubles -- is deterministic and byte-identical between a fresh run and
/// a checkpoint-replayed one.
///
/// Framing: rows are encoded straight into a per-request frame buffer,
/// which goes out with one write once it holds kFrameBytes, and again at
/// flush() -- the entry points flush at the end of every sweep pass, and
/// the executor flushes before any terminal line, so a request's rows
/// always precede its done or error line.  kDaemonWrite fires *before*
/// row k is encoded with the row index as scope and flushes rows 0..k-1
/// before the SIGKILL, so tests can kill the daemon at exactly row k.
/// Nothing is encoded for a headless request or a dead connection.
class SocketRowSink final : public ResultSink {
 public:
  static constexpr std::size_t kFrameBytes = 64 * 1024;

  SocketRowSink(const ConnPtr& conn, const std::string& req_key)
      : conn_(conn), req_key_(req_key) {
    if (conn_ != nullptr) frame_.reserve(kFrameBytes + 1024);
  }

  void on_delay(const std::string& /*key*/, const VectorDelay& row) override {
    begin_row();
    if (streaming()) append_row_line(frame_, req_key_, index_, row);
    end_row();
  }

  void on_value(const std::string& /*key*/, double value) override {
    begin_row();
    if (streaming()) append_value_line(frame_, req_key_, index_, value);
    end_row();
  }

  void flush() override {
    if (frame_.empty()) return;
    conn_->send_frame(frame_);
    frame_.clear();
  }

  std::size_t rows() const { return index_; }

 private:
  bool streaming() const {
    return conn_ != nullptr && conn_->alive.load(std::memory_order_relaxed);
  }

  void begin_row() {
    const faultinject::ScopedScope scope(static_cast<std::int64_t>(index_));
    if (faultinject::fired(faultinject::Site::kDaemonWrite)) {
      flush();
      ::raise(SIGKILL);
    }
  }

  void end_row() {
    ++index_;
    if (frame_.size() >= kFrameBytes) flush();
  }

  ConnPtr conn_;
  std::string req_key_;
  std::string frame_;
  std::size_t index_ = 0;
};

std::string bool_json(bool v) { return v ? "true" : "false"; }

/// What a rank/size/verify request evaluates against, apart from its W/L
/// and its sampled vectors: an Evaluator and the circuit's exhaustive
/// vector set.  Kept warm across requests, the backend's memos carry
/// over -- above all the baseline (R = 0) delays, which do not depend on
/// W/L -- so a fresh W/L on a known circuit simulates only the sized
/// circuit.  Immutable once built; the backend is thread-safe.
struct EvalContext {
  EvalContext(CornerCircuit cc, const std::string& backend_kind)
      : eval(std::move(cc), backend_kind) {
    const int n_in = static_cast<int>(eval.circuit().nl.inputs().size());
    if (n_in <= kMaxExhaustiveInputs) exhaustive = all_vector_pairs(n_in);
  }

  Evaluator eval;
  std::vector<VectorPair> exhaustive;  ///< all transitions; empty above kMaxExhaustiveInputs
};

using ContextPtr = std::shared_ptr<const EvalContext>;

/// The daemon's warm evaluation contexts, shared by the executor and the
/// replay lane; a request holds its ContextPtr, so eviction never frees a
/// context in use.  Keyed by backend kind plus circuit identity: a
/// builtin's name, or a .mtn file's bytes, read on every request, so an
/// edited file is a different key and never reuses a stale netlist.
/// LRU-bounded at kMaxContexts.
class ContextCache {
 public:
  static constexpr std::size_t kMaxContexts = 4;

  ContextPtr get(const std::string& circuit, const std::string& backend_kind) {
    const bool builtin = circuit.rfind("builtin:", 0) == 0;
    const std::string bytes = builtin ? std::string() : file_bytes(circuit);
    std::string key = backend_kind + '\n' + circuit + '\n' + bytes;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (ContextPtr hit = touch_locked(key)) return hit;
    }
    // Build outside the lock: the lane keeps answering meanwhile.  A file
    // is parsed from the bytes that form the key, not re-read.
    auto built = std::make_shared<const EvalContext>(
        builtin ? build_campaign_circuit(circuit, nullptr) : parse_file(circuit, bytes),
        backend_kind);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ContextPtr raced = touch_locked(key)) return raced;  // the other thread built it too
    lru_.emplace_front(std::move(key), built);
    if (lru_.size() > kMaxContexts) lru_.pop_back();
    return built;
  }

 private:
  static std::string file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    require(in.good(), "read_netlist_file: cannot open " + path);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  static CornerCircuit parse_file(const std::string& path, const std::string& bytes) {
    std::istringstream in(bytes);
    return campaign_circuit_from(path, netlist::read_netlist(in), nullptr);
  }

  /// The context under `key`, moved to the front; null when absent.
  ContextPtr touch_locked(const std::string& key) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first != key) continue;
      lru_.splice(lru_.begin(), lru_, it);
      return lru_.front().second;
    }
    return nullptr;
  }

  std::mutex mutex_;
  std::list<std::pair<std::string, ContextPtr>> lru_;  ///< most recently used first
};

class DaemonImpl {
 public:
  explicit DaemonImpl(const DaemonOptions& options) : options_(options) {}

  DaemonStats serve() {
    if (options_.socket_path.empty() || options_.state_dir.empty()) {
      throw std::runtime_error("daemon: socket_path and state_dir are required");
    }
    if (options_.max_queue < 0) throw std::runtime_error("daemon: max_queue must be >= 0");
    if (options_.default_deadline_s > kMaxWaitS) {
      throw std::runtime_error("daemon: default_deadline_s must be <= " +
                               util::json_double(kMaxWaitS) + " s");
    }
    ::signal(SIGPIPE, SIG_IGN);
    if (options_.cancel_token == nullptr) util::install_cancel_signal_handlers();

    fs::create_directories(options_.state_dir);
    requests_.open((fs::path(options_.state_dir) / "requests.mtj").string());
    store_.open((fs::path(options_.state_dir) / "store.mtj").string());

    // Boot counter: the process generation for kDaemon* faultinject
    // plans.  A plan pinned to generation 0 kills only the first daemon
    // life, so a deterministic kill test's *restarted* daemon (same
    // inherited plan table) does not die again at the same site.
    int prior_boots = 0;
    if (const auto b = requests_.find("boot")) prior_boots = std::atoi(b->c_str());
    faultinject::set_generation(prior_boots);
    requests_.append("boot", std::to_string(prior_boots + 1));

    resume_unfinished();

    listener_.open(options_.socket_path);
    std::thread executor([this] { executor_loop(); });
    std::thread lane([this] { lane_loop(); });
    // A poll-loop throw must not unwind past the joinable executor and
    // lane threads (whose destructors would std::terminate with no
    // journal flush): capture it, shut both down like a drain, flush,
    // and only then rethrow.
    std::exception_ptr poll_error;
    try {
      poll_loop();
    } catch (...) {
      poll_error = std::current_exception();
      begin_cancel_drain();  // cancel in-flight work so join() is prompt
    }
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    executor.join();
    lane.join();
    listener_.close();
    requests_.flush();
    store_.journal().flush();
    if (poll_error != nullptr) std::rethrow_exception(poll_error);

    DaemonStats out;
    out.accepted = accepted_.load();
    out.rejected = rejected_.load();
    out.completed = completed_.load();
    out.failed = failed_.load();
    out.resumed = resumed_.load();
    out.dedup_hits = dedup_hits_.load();
    out.dedup_misses = dedup_misses_.load();
    out.interrupted = interrupted_.load();
    return out;
  }

 private:
  util::CancelToken& drain_token() {
    return options_.cancel_token != nullptr ? *options_.cancel_token
                                            : util::CancelToken::global();
  }

  /// Replay the request journal: every acked (`req:`) record without a
  /// matching `done:` re-enters the queue headless, in sorted-key order
  /// so resumes are deterministic.
  void resume_unfinished() {
    // Snapshot first: for_each_text holds the journal mutex, so find()
    // calls from inside the callback would self-deadlock.
    std::vector<std::pair<std::string, std::string>> requests;
    std::set<std::string> done;
    requests_.for_each_text([&](const std::string& key, const std::string& value) {
      if (key.rfind("req:", 0) == 0) requests.emplace_back(key.substr(4), value);
      if (key.rfind("done:", 0) == 0) done.insert(key.substr(5));
    });
    std::vector<std::pair<std::string, std::string>> unfinished;
    for (auto& [id, canonical] : requests) {
      if (done.count(id) == 0) unfinished.emplace_back(id, canonical);
    }
    std::sort(unfinished.begin(), unfinished.end());
    for (auto& [id, canonical] : unfinished) {
      Pending p;
      p.key = id;
      p.canonical = canonical;
      try {
        p.req = parse_request(*util::parse_json(canonical));
      } catch (const std::exception&) {
        // A journal written by an incompatible run: mark it done so it
        // does not wedge every future boot, and keep serving.
        requests_.append("done:" + id, "{\"type\":\"error\",\"code\":\"bad-request\"}");
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        queue_.push_back(std::move(p));
      }
      resumed_.fetch_add(1);
    }
    queue_cv_.notify_all();
  }

  // ---------------------------------------------------------------- poll

  void poll_loop() {
    std::map<int, ConnPtr> conns;
    while (true) {
      if (drain_token().requested() && !cancel_drain_.load()) begin_cancel_drain();
      check_deadline();
      if (draining_.load() && all_idle()) break;

      wait_activity(conns);
      accept_new(conns);
      read_clients(conns);
    }
    // Drain complete: close client connections (EOF tells clients the
    // daemon is gone).
    conns.clear();
  }

  /// Nothing queued, executing, or on the replay lane.
  bool all_idle() {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.empty() && !executor_busy_.load() && !lane_busy_;
  }

  void begin_cancel_drain() {
    cancel_drain_.store(true);
    draining_.store(true);
    {
      const std::lock_guard<std::mutex> lock(active_mutex_);
      for (const auto& active : {active_, lane_active_}) {
        if (active != nullptr) active->token.request();
      }
    }
    queue_cv_.notify_all();
  }

  void check_deadline() {
    const std::lock_guard<std::mutex> lock(active_mutex_);
    for (const auto& active : {active_, lane_active_}) {
      if (active == nullptr) continue;
      if (Clock::now() >= active->deadline && !active->deadline_fired.load()) {
        active->deadline_fired.store(true);
        active->token.request();
      }
    }
  }

  void wait_activity(const std::map<int, ConnPtr>& conns) {
    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const auto& [fd, conn] : conns) fds.push_back({fd, POLLIN, 0});
    ::poll(fds.data(), fds.size(), options_.poll_interval_ms);  // EINTR = a normal tick
  }

  void accept_new(std::map<int, ConnPtr>& conns) {
    while (true) {
      const int fd = listener_.accept_client();
      if (fd < 0) break;
      const faultinject::ScopedScope scope(static_cast<std::int64_t>(conn_seq_++));
      if (faultinject::fired(faultinject::Site::kDaemonAccept)) ::raise(SIGKILL);
      conns.emplace(fd, std::make_shared<Connection>(fd));
    }
  }

  void read_clients(std::map<int, ConnPtr>& conns) {
    std::vector<int> closed;
    for (auto& [fd, conn] : conns) {
      std::vector<std::string> lines;
      conn->reader.poll(lines);
      for (const std::string& line : lines) {
        if (!line.empty()) handle_line(conn, line);
      }
      if (conn->reader.eof()) {
        conn->alive.store(false, std::memory_order_relaxed);
        closed.push_back(fd);
      }
    }
    for (const int fd : closed) conns.erase(fd);
  }

  void handle_line(const ConnPtr& conn, const std::string& line) {
    Request req;
    try {
      const util::JsonPtr doc = util::parse_json(line);
      const std::string op = doc->require("op")->as_string();
      if (op == "status") {
        conn->send(status_line());
        return;
      }
      if (op == "drain") {
        draining_.store(true);
        queue_cv_.notify_all();
        conn->send("{\"type\":\"ack\",\"op\":\"drain\"}");
        return;
      }
      req = parse_request(*doc);
    } catch (const std::exception& e) {
      rejected_.fetch_add(1);
      conn->send("{\"type\":\"error\",\"code\":\"bad-request\",\"message\":" +
                 util::json_string(e.what()) + "}");
      return;
    }

    if (draining_.load()) {
      rejected_.fetch_add(1);
      conn->send("{\"type\":\"error\",\"code\":\"draining\",\"message\":\"daemon is draining; "
                 "not admitting new requests\"}");
      return;
    }
    {
      // An idle daemon (nothing executing, nothing queued) always admits;
      // the bound is on requests *waiting behind* the executing one.
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      const bool idle = !executor_busy_.load() && queue_.empty();
      if (!idle && queue_.size() >= static_cast<std::size_t>(options_.max_queue)) {
        rejected_.fetch_add(1);
        conn->send("{\"type\":\"error\",\"code\":\"overloaded\",\"message\":\"admission queue "
                   "is full (" +
                   std::to_string(options_.max_queue) + "); retry later\"}");
        return;
      }
    }

    Pending p;
    p.canonical = req.canonical();
    // The 64-bit content hash is only a journal index, not the identity:
    // the journal stores the canonical bytes as the req: value, so on a
    // hash collision (craftable against FNV-1a) probe suffixed keys
    // until the slot is free or holds *these* bytes -- a colliding
    // request must never silently inherit another request's done state.
    // The probe is deterministic over the journal contents, so a re-sent
    // identical request lands on the same key.
    const std::string base_key = req.key();
    p.key = base_key;
    for (int alt = 1;; ++alt) {
      const auto existing = requests_.find("req:" + p.key);
      if (!existing || *existing == p.canonical) break;
      p.key = base_key + "-" + std::to_string(alt);
    }
    p.req = std::move(req);
    p.conn = conn;

    const faultinject::ScopedScope scope(static_cast<std::int64_t>(request_seq_++));
    if (faultinject::fired(faultinject::Site::kDaemonRead)) ::raise(SIGKILL);

    // Journal strictly before the ack: once the client has seen the ack,
    // the request survives any crash.  (A crash between journal and ack
    // -- kDaemonAckLost -- resumes headless AND lets the client safely
    // re-send: same canonical bytes, same key, answered from the store.)
    if (!requests_.contains("req:" + p.key)) {
      requests_.append("req:" + p.key, p.canonical);
    }
    if (faultinject::fired(faultinject::Site::kDaemonAckLost)) ::raise(SIGKILL);
    conn->send("{\"type\":\"ack\",\"req\":\"" + p.key + "\",\"op\":\"" + p.req.op + "\"}");
    accepted_.fetch_add(1);
    // A repeat of a rank request that already completed is answered
    // from the store alone, so it may take the replay lane instead of
    // queueing behind computing work -- when the lane is free and this
    // connection has nothing else in flight.  A sharded daemon has no
    // lane: the executor forks shard workers, and a fork while the lane
    // holds a backend lock (WlCache builds simulators under its mutex)
    // would leave the child that lock held forever.
    const std::optional<std::string> done = requests_.find("done:" + p.key);
    const bool repeat = options_.shards <= 1 && p.req.op == "rank" &&
                        conn->in_flight.load() == 0 && done && *done == "ok";
    conn->in_flight.fetch_add(1);
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (repeat && !lane_busy_) {
        lane_busy_ = true;
        lane_next_ = std::move(p);
      } else {
        queue_.push_back(std::move(p));
      }
    }
    queue_cv_.notify_all();
  }

  std::string status_line() {
    std::size_t depth;
    int active;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      depth = queue_.size();
      active = (executor_busy_.load() ? 1 : 0) + (lane_busy_ ? 1 : 0);
    }
    return "{\"type\":\"status\",\"queue\":" + std::to_string(depth) +
           ",\"active\":" + std::to_string(active) +
           ",\"accepted\":" + std::to_string(accepted_.load()) +
           ",\"rejected\":" + std::to_string(rejected_.load()) +
           ",\"completed\":" + std::to_string(completed_.load()) +
           ",\"failed\":" + std::to_string(failed_.load()) +
           ",\"resumed\":" + std::to_string(resumed_.load()) +
           ",\"dedup_hits\":" + std::to_string(dedup_hits_.load()) +
           ",\"dedup_misses\":" + std::to_string(dedup_misses_.load()) +
           ",\"max_queue\":" + std::to_string(options_.max_queue) +
           ",\"shards\":" + std::to_string(options_.shards) +
           ",\"draining\":" + bool_json(draining_.load()) + "}";
  }

  // ------------------------------------------------------------ executor

  void executor_loop() {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (stop_) return;
          continue;
        }
        p = std::move(queue_.front());
        queue_.pop_front();
        executor_busy_.store(true);
      }
      if (cancel_drain_.load()) {
        // Admitted but never started: stays journaled (req: without
        // done:), resumes on the next boot.
        cancel_unstarted(p);
      } else {
        run_request(p, active_, nullptr);
      }
      executor_busy_.store(false);
    }
  }

  /// The replay lane: one thread answering repeat rank requests from the
  /// store while the executor computes, so a repeat never waits behind a
  /// fresh request's simulation.  Its sweeps run on a private one-thread
  /// pool and never write the store; a request whose items turn out not
  /// to be all in the store (the store was replaced under a kept request
  /// journal) is handed to the executor queue untouched.
  void lane_loop() {
    while (true) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock, [this] { return stop_ || lane_next_.has_value(); });
        if (!lane_next_) return;
        p = std::move(*lane_next_);
        lane_next_.reset();
      }
      bool done = true;
      if (cancel_drain_.load()) {
        cancel_unstarted(p);
      } else {
        done = run_request(p, lane_active_, &lane_pool_);
      }
      {
        const std::lock_guard<std::mutex> lock(queue_mutex_);
        if (!done) queue_.push_back(std::move(p));
        lane_busy_ = false;
      }
      if (!done) queue_cv_.notify_all();
    }
  }

  void cancel_unstarted(const Pending& p) {
    interrupted_.store(true);
    send_error(p, "cancelled", "daemon is shutting down; request journaled for restart");
  }

  void send_error(const Pending& p, const std::string& code, const std::string& message) {
    if (p.conn != nullptr) {
      p.conn->send_terminal("{\"type\":\"error\",\"req\":\"" + p.key + "\",\"code\":\"" +
                            code + "\",\"message\":" + util::json_string(message) + "}");
    }
  }

  /// Run `p` on the calling thread, publishing its cancellation state
  /// in `slot`.  With a `replay_pool` (the replay lane) the request is
  /// answered only if every item is already in the store: otherwise
  /// nothing is sent or counted and this returns false.
  bool run_request(const Pending& p, std::shared_ptr<ActiveState>& slot,
                   util::ThreadPool* replay_pool) {
    auto active = std::make_shared<ActiveState>();
    // A headless resume has no client waiting: it runs to completion.
    const double deadline_s = p.conn == nullptr      ? 0.0
                              : p.req.deadline_s > 0.0 ? p.req.deadline_s
                                                       : options_.default_deadline_s;
    if (deadline_s > 0.0) {
      active->deadline =
          Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(deadline_s * 1e6));
    }
    if (faultinject::fired(faultinject::Site::kDaemonDrainWindow)) {
      // Test hook: land a SIGTERM drain inside the window below -- after
      // the executor's pre-run drain check, before active_ is published --
      // and park until the poll loop has begun the cancel drain.
      ::raise(SIGTERM);
      while (!cancel_drain_.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
      // A drain that began after the executor's pre-run check found no
      // active_ to cancel; cancel_drain_ is stored before begin_cancel_drain
      // takes this mutex, so re-checking it here closes that window.
      const std::lock_guard<std::mutex> lock(active_mutex_);
      slot = active;
      if (cancel_drain_.load()) active->token.request();
    }
    const std::size_t store_before = store_.journal().item_count();
    std::string done_fields;
    std::string fail_message;
    SweepReport report;
    SocketRowSink sink(p.conn, p.key);
    std::size_t hits = 0;
    std::size_t misses = 0;
    bool answerable = true;
    try {
      if (p.req.op == "sleep") {
        run_sleep(p.req, active->token);
      } else if (p.req.op == "campaign") {
        done_fields = run_campaign(p, report, active->token, hits, misses);
      } else {
        done_fields = run_sweep(p, report, sink, active->token, replay_pool, answerable);
      }
    } catch (const NumericalError& e) {
      if (e.info().code != FailureCode::kCancelled) fail_message = e.what();
    } catch (const std::exception& e) {
      fail_message = e.what();
    }
    sink.flush();  // every row precedes the terminal done/error line
    {
      const std::lock_guard<std::mutex> lock(active_mutex_);
      slot = nullptr;
    }
    if (!answerable) return false;

    if (replay_pool != nullptr) {
      // A replay-lane request found every item in the store and wrote
      // none; the store delta would also count the executor's records.
      hits = report.total;
    } else if (p.req.op != "campaign") {
      // Sweep dedup is item-granular against the shared store: items the
      // run journaled are misses, the rest of the report replayed.  A
      // campaign writes to its per-campaign journal instead, so its
      // hit/miss split is the chunk-granular one run_campaign filled in
      // -- the store delta would count every campaign item as a hit.
      misses = store_.journal().item_count() - store_before;
      hits = report.total > misses ? report.total - misses : 0;
    }
    dedup_hits_.fetch_add(hits);
    dedup_misses_.fetch_add(misses);

    if (active->token.requested()) {
      // Interrupted (deadline or drain): completed items are in the
      // store, the request stays journaled, and the next boot finishes
      // it headless.  Checked before any failure, because a sweep cut
      // short reduces over the items that beat the token, so its failure
      // (or result) is not a verdict on the request.
      if (active->deadline_fired.load()) {
        send_error(p, "deadline",
                   "deadline of " + util::json_double(deadline_s) +
                       "s expired; partial work is checkpointed and will finish after the next "
                       "daemon start, or re-send the request");
      } else {
        interrupted_.store(true);
        send_error(p, "cancelled", "daemon is shutting down; request journaled for restart");
      }
      return true;
    }
    if (!fail_message.empty()) {
      // A terminal failure of an uninterrupted run is an *answer*: journal
      // it done so the daemon does not re-run a deterministic failure on
      // every boot.  Re-sending the request re-runs it on demand.
      failed_.fetch_add(1);
      requests_.append("done:" + p.key, "error");
      send_error(p, "failed", fail_message);
      return true;
    }

    completed_.fetch_add(1);
    // A repeat whose latest record already says ok journals nothing: the
    // record would change no lookup, only grow what every boot replays.
    const std::string done_key = "done:" + p.key;
    if (requests_.find(done_key) != "ok") requests_.append(done_key, "ok");
    if (p.conn != nullptr) {
      std::string line = "{\"type\":\"done\",\"req\":\"" + p.key + "\",\"op\":\"" + p.req.op +
                         "\",\"rows\":" + std::to_string(sink.rows()) +
                         ",\"total\":" + std::to_string(report.total) +
                         ",\"failed\":" + std::to_string(report.failed) +
                         ",\"dedup_hits\":" + std::to_string(hits) +
                         ",\"dedup_misses\":" + std::to_string(misses) + done_fields + "}";
      p.conn->send_terminal(line);
    }
    return true;
  }

  void run_sleep(const Request& req, util::CancelToken& token) {
    const auto end =
        Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(req.seconds * 1e6));
    while (Clock::now() < end) {
      if (token.requested()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// rank / size / verify bodies.  Returns extra done-line fields.  With
  /// a `replay_pool` the sweep runs on it, and a rank whose items are not
  /// all in the store clears `answerable` and returns without running.
  std::string run_sweep(const Pending& p, SweepReport& report, SocketRowSink& sink,
                        util::CancelToken& token, util::ThreadPool* replay_pool,
                        bool& answerable) {
    const Request& req = p.req;
    const ContextPtr ctx = contexts_.get(req.circuit, req.backend);
    const CornerCircuit& cc = ctx->eval.circuit();
    const EvalBackend& backend = ctx->eval.backend();

    // Sampled sets can be large, so they stay per request.
    const int n_in = static_cast<int>(cc.nl.inputs().size());
    std::vector<VectorPair> sampled;
    if (n_in > kMaxExhaustiveInputs) {
      Rng rng(req.seed);
      sampled = sampled_vector_pairs(n_in, req.vectors, rng);
    }
    const std::vector<VectorPair>& vectors =
        n_in > kMaxExhaustiveInputs ? sampled : ctx->exhaustive;

    EvalSession session;
    session.report = &report;
    session.checkpoint = &store_;
    session.cancel_token = &token;
    session.sink = &sink;
    session.pool = replay_pool;

    if (req.op == "rank") {
      if (replay_pool != nullptr && !all_keys_present(backend, vectors, req.wl)) {
        answerable = false;
        return "";
      }
      if (options_.shards > 1) {
        // Fan the missing items across supervised worker processes; their
        // shard journals merge into the shared store, which the streaming
        // pass below replays and finishes.
        SupervisorOptions sopt;
        sopt.shards = options_.shards;
        sopt.dir = (fs::path(options_.state_dir) / "shards" / p.key).string();
        sopt.cancel_token = &token;
        sharded_rank_vectors(backend, vectors, req.wl, sopt, store_);
      }
      rank_vectors_stream(backend, vectors, req.wl, session);
      return "";
    }
    if (req.op == "size") {
      const SizingResult sized = size_for_degradation(backend, vectors, req.target_pct, {}, session);
      std::string out = ",\"wl\":" + util::json_double(sized.wl) + ",\"degradation_pct\":" +
                        util::json_double(sized.degradation_pct) + ",\"v0\":\"";
      append_bits(out, sized.binding_vector.v0);
      out += "\",\"v1\":\"";
      append_bits(out, sized.binding_vector.v1);
      return out + "\"";
    }
    // verify: size on the fast backend, re-measure on the reference.
    const SizingResult sized = size_for_degradation(backend, vectors, req.target_pct, {}, session);
    const SpiceBackend reference(cc.nl, cc.outputs);
    const VerifyResult vr = verify_sizing(backend, reference, sized, req.target_pct, session);
    if (!vr.ok) throw NumericalError(FailureInfo(vr.failure));
    return ",\"wl\":" + util::json_double(vr.wl) +
           ",\"fast_degradation_pct\":" + util::json_double(vr.fast_degradation_pct) +
           ",\"reference_degradation_pct\":" + util::json_double(vr.reference_degradation_pct) +
           ",\"delta_pct\":" + util::json_double(vr.delta_pct) +
           ",\"meets_target\":" + bool_json(vr.reference_meets_target);
  }

  bool all_keys_present(const EvalBackend& backend, const std::vector<VectorPair>& vectors,
                        double wl) {
    std::uint64_t context = 0;
    if (!store_.journal().find_context(rank_prefix(backend, wl), context)) {
      return false;  // never ranked
    }
    const ItemKeys keys(context, vectors);
    for (std::size_t begin = 0; begin < vectors.size(); begin += kPresenceChunk) {
      const std::size_t end = std::min(vectors.size(), begin + kPresenceChunk);
      const std::vector<char> held = store_.lookup<VectorDelay>(keys, begin, end, nullptr);
      if (std::find(held.begin(), held.end(), 0) != held.end()) return false;
    }
    return true;
  }

  /// Fills `hits`/`misses` with the chunk-granular dedup split (chunks
  /// replayed from the campaign checkpoint vs freshly run) -- campaigns
  /// bypass the shared store, so the caller's store-delta accounting
  /// does not apply to them.
  std::string run_campaign(const Pending& p, SweepReport& report, util::CancelToken& token,
                           std::size_t& hits, std::size_t& misses) {
    const CampaignSpec spec = CampaignSpec::parse(p.req.spec);
    const std::string dir = (fs::path(options_.state_dir) / "campaigns" / p.key).string();
    const bool resume = fs::exists(fs::path(dir) / "campaign.mtj");
    CampaignDriver driver(spec, dir, resume);
    const CampaignStats stats = driver.run(options_.shards, &report, &token);
    hits = stats.chunks_replayed;
    misses = stats.chunks_run;
    if (!stats.complete) {
      if (stats.cancelled || token.requested()) return "";  // classified by the caller
      throw std::runtime_error("campaign incomplete: " + std::to_string(driver.chunks_done()) +
                               "/" + std::to_string(driver.n_chunks()) + " chunks journaled");
    }
    const std::string table_path = (fs::path(dir) / "table.json").string();
    std::ofstream os(table_path, std::ios::binary);
    if (!os) throw std::runtime_error("cannot open " + table_path + " for writing");
    driver.write_table(os);
    os.close();
    if (!os) throw std::runtime_error("cannot write the table to " + table_path);
    return ",\"table_path\":" + util::json_string(table_path) +
           ",\"chunks_total\":" + std::to_string(stats.chunks_total) +
           ",\"chunks_replayed\":" + std::to_string(stats.chunks_replayed) +
           ",\"chunks_run\":" + std::to_string(stats.chunks_run) +
           ",\"rows_spilled\":" + std::to_string(stats.rows_emitted);
  }

  // --------------------------------------------------------------- state

  const DaemonOptions& options_;
  util::UnixListener listener_;
  util::Journal requests_;
  Checkpoint store_;
  ContextCache contexts_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;

  bool lane_busy_ = false;  ///< a request is on the replay lane (queue_mutex_)
  std::optional<Pending> lane_next_;
  util::ThreadPool lane_pool_{1};

  std::mutex active_mutex_;
  std::shared_ptr<ActiveState> active_;
  std::shared_ptr<ActiveState> lane_active_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> cancel_drain_{false};
  std::atomic<bool> executor_busy_{false};
  std::atomic<bool> interrupted_{false};

  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> failed_{0};
  std::atomic<std::size_t> resumed_{0};
  std::atomic<std::size_t> dedup_hits_{0};
  std::atomic<std::size_t> dedup_misses_{0};

  std::size_t conn_seq_ = 0;
  std::size_t request_seq_ = 0;
};

}  // namespace

void append_row_line(std::string& out, const std::string& req, std::size_t index,
                     const VectorDelay& row) {
  append_line_head(out, "row", req, index);
  out += ",\"v0\":\"";
  append_bits(out, row.pair.v0);
  out += "\",\"v1\":\"";
  append_bits(out, row.pair.v1);
  out += "\",\"delay_cmos\":";
  util::append_json_double(out, row.delay_cmos);
  out += ",\"delay_mtcmos\":";
  util::append_json_double(out, row.delay_mtcmos);
  out += ",\"degradation_pct\":";
  util::append_json_double(out, row.degradation_pct);
  out += "}\n";
}

void append_value_line(std::string& out, const std::string& req, std::size_t index,
                       double value) {
  append_line_head(out, "value", req, index);
  out += ",\"value\":";
  util::append_json_double(out, value);
  out += "}\n";
}

DaemonStats Daemon::serve() {
  DaemonImpl impl(options_);
  return impl.serve();
}

}  // namespace mtcmos::sizing
