// sweep_ckpt: what `mtcmos_sizer builtin:adder3 --checkpoint DIR` and then
// `--resume` do, in process.  A fresh leg ranks every transition at W/L 10
// and sizes to 5 % with an armed, empty Checkpoint (one journal record per
// item); the replay leg opens the completed journal and runs the same
// calls again, answering every item from it.  adder3 rather than adder4:
// one adder4 fresh/replay pair takes about 15 s and a single pair per run
// spread 13-20 % between runs on a shared 4-core host, while adder3 pairs
// (the same ~15-probe bisection, 16x fewer transitions) let a run report
// the median of about twenty.  The seed picks the subsample the
// scalar-path check re-measures.  Each run ends with the SPICE sign-off of
// the worst transitions (spice_verify.cpp), untimed.

#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>

#include "sizing/campaign.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "util/json.hpp"
#include "util/subprocess.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace sz = mtcmos::sizing;

namespace {

constexpr double kRankWl = 10.0;
constexpr double kTargetPct = 5.0;

/// The backend keeps a reference to the netlist, so the circuit lives on
/// the heap where moving a Setup cannot invalidate it.
struct Setup {
  std::unique_ptr<sz::CornerCircuit> cc;
  std::unique_ptr<sz::VbsBackend> backend;
};

/// One leg's outcome.  Untraced runs execute each leg in its own forked
/// process (as `mtcmos_sizer --checkpoint` and `--resume` are separate
/// invocations), so the fields travel back over a pipe as one line.
struct LegResult {
  double seconds = 0.0;
  double setup_s = 0.0;
  std::size_t items = 0;
  std::size_t failed = 0;
  std::size_t rows = 0;
  std::uint64_t digest = 0;
  sz::SizingResult sized;
  bool scalar_ok = true;  ///< fresh leg: the scalar-path subsample matched
  double rss_mb = 0.0;    ///< peak RSS of the process that ran the leg

  std::string encode() const {
    std::ostringstream os;
    os << std::bit_cast<std::uint64_t>(seconds) << ' ' << std::bit_cast<std::uint64_t>(setup_s)
       << ' ' << items << ' ' << failed << ' ' << rows << ' ' << digest << ' '
       << std::bit_cast<std::uint64_t>(sized.wl) << ' '
       << std::bit_cast<std::uint64_t>(sized.degradation_pct) << ' ' << bits(sized.binding_vector.v0)
       << ' ' << bits(sized.binding_vector.v1) << ' ' << (scalar_ok ? 1 : 0);
    return os.str();
  }
  static bool decode(const std::string& line, LegResult& out) {
    std::istringstream is(line);
    std::uint64_t sec = 0, setup = 0, wl = 0, deg = 0;
    std::string v0, v1;
    int scalar = 0;
    if (!(is >> sec >> setup >> out.items >> out.failed >> out.rows >> out.digest >> wl >> deg >>
          v0 >> v1 >> scalar)) {
      return false;
    }
    out.seconds = std::bit_cast<double>(sec);
    out.setup_s = std::bit_cast<double>(setup);
    out.sized.wl = std::bit_cast<double>(wl);
    out.sized.degradation_pct = std::bit_cast<double>(deg);
    out.sized.binding_vector.v0 = unbits(v0);
    out.sized.binding_vector.v1 = unbits(v1);
    out.scalar_ok = scalar != 0;
    return true;
  }

 private:
  static std::string bits(const std::vector<bool>& v) {
    std::string s = "b";  // never empty, so the stream round-trips
    for (const bool b : v) s += b ? '1' : '0';
    return s;
  }
  static std::vector<bool> unbits(const std::string& s) {
    std::vector<bool> v;
    for (std::size_t i = 1; i < s.size(); ++i) v.push_back(s[i] == '1');
    return v;
  }
};

struct SweepUnit {
  double fresh_s = 0.0;
  double replay_s = 0.0;
  std::size_t fresh_items = 0;
  std::size_t replay_items = 0;
  std::vector<double> setup_s;
  double rss_mb = 0.0;
};

class SweepWorkload {
 public:
  SweepWorkload(const RunConfig& cfg, RunResult& r)
      : cfg_(cfg), r_(r), circuit_(cfg.smoke ? "builtin:adder2" : "builtin:adder3"),
        journal_((fs::path(cfg.work_dir) / "sweep.mtj").string()) {
    const sz::CornerCircuit cc = sz::build_campaign_circuit(circuit_, nullptr);
    vectors_ = sz::all_vector_pairs(static_cast<int>(cc.nl.inputs().size()));
    mtcmos::Rng rng(cfg.seed);
    // The scalar-path subsample: fixed by the seed, sorted for the sink.
    const std::size_t n_sub = std::min<std::size_t>(cfg.smoke ? 16 : 256, vectors_.size());
    std::vector<std::size_t> all(vectors_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    std::shuffle(all.begin(), all.end(), rng.engine());
    subsample_.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n_sub));
    std::sort(subsample_.begin(), subsample_.end());
  }

  /// Circuit + backend construction, as every CLI invocation pays it.
  Setup setup(std::vector<double>& samples) const {
    const Clock::time_point t0 = Clock::now();
    Setup s;
    s.cc = std::make_unique<sz::CornerCircuit>(sz::build_campaign_circuit(circuit_, nullptr));
    s.backend = std::make_unique<sz::VbsBackend>(s.cc->nl, s.cc->outputs);
    samples.push_back(seconds_since(t0));
    return s;
  }

  /// Fresh leg: empty journal, armed; then the scalar-path subsample check.
  LegResult fresh_leg(mtcmos::util::ThreadPool& pool, Tracer* tracer) {
    LegResult out;
    DigestSink digest(subsample_);
    mtcmos::SweepReport report;
    {
      std::vector<double> setup_s;
      Setup s = setup(setup_s);
      const Clock::time_point t_open = Clock::now();
      sz::Checkpoint ckpt;
      ckpt.open(journal_);
      bind(ckpt);
      out.setup_s = setup_s.back() + seconds_since(t_open);

      const LegTargets leg(*s.backend, &digest, tracer, "core");
      sz::EvalSession session = base_session(pool, &report, leg.sink());
      session.checkpoint = &ckpt;

      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(tracer, "sizing.session.rank_vectors_stream");
        sz::rank_vectors_stream(leg.backend(), vectors_, kRankWl, session);
        if (tracer != nullptr) fresh_calls_.push_back(span.id());
      }
      {
        ScopedSpan span(tracer, "sizing.session.size_for_degradation");
        out.sized = sz::size_for_degradation(leg.backend(), vectors_, kTargetPct, {}, session);
        if (tracer != nullptr) fresh_calls_.push_back(span.id());
      }
      out.seconds = seconds_since(t0);
      if (tracer != nullptr) set_cache_metrics(r_, s.backend->cache_stats());
    }
    out.items = report.total;
    out.failed = report.failed;
    out.rows = digest.rows();
    out.digest = digest.digest();
    out.scalar_ok = scalar_matches(pool, digest.kept());
    return out;
  }

  /// Replay leg: a new process's view -- new backend, journal reopened
  /// (its replay is part of the leg).
  LegResult replay_leg(mtcmos::util::ThreadPool& pool, Tracer* tracer) {
    LegResult out;
    DigestSink digest;
    mtcmos::SweepReport report;
    std::vector<double> setup_s;
    Setup s = setup(setup_s);
    out.setup_s = setup_s.back();
    const LegTargets leg(*s.backend, &digest, tracer, "core");
    sz::EvalSession session = base_session(pool, &report, leg.sink());

    const Clock::time_point t0 = Clock::now();
    sz::Checkpoint ckpt;
    ckpt.open(journal_);
    bind(ckpt);
    session.checkpoint = &ckpt;
    {
      ScopedSpan span(tracer, "sizing.session.replay");
      sz::rank_vectors_stream(leg.backend(), vectors_, kRankWl, session);
      out.sized = sz::size_for_degradation(leg.backend(), vectors_, kTargetPct, {}, session);
      if (tracer != nullptr) replay_calls_.push_back(span.id());
    }
    out.seconds = seconds_since(t0);
    out.items = report.total;
    out.failed = report.failed;
    out.rows = digest.rows();
    out.digest = digest.digest();
    return out;
  }

  /// Run one leg in a forked child with its own pool; the parent stays
  /// single-threaded, so forking it is safe.
  LegResult leg_in_child(bool fresh) {
    const mtcmos::util::ChildProcess child = mtcmos::util::spawn_child([&](int fd) -> int {
      mtcmos::util::ThreadPool pool(cfg_.threads);
      const LegResult lr = fresh ? fresh_leg(pool, nullptr) : replay_leg(pool, nullptr);
      return mtcmos::util::write_line(fd, lr.encode()) ? 0 : 1;
    });
    rusage ru{};
    int status = 0;
    pid_t reaped = -1;
    do {
      reaped = ::wait4(child.pid, &status, 0, &ru);
    } while (reaped < 0 && errno == EINTR);
    std::vector<std::string> lines;
    mtcmos::util::LineReader reader(child.pipe_fd);
    while (!reader.eof() && reader.poll(lines)) {
    }
    mtcmos::util::close_fd(child.pipe_fd);
    LegResult out;
    const bool ok = reaped == child.pid && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                    !lines.empty() && LegResult::decode(lines.front(), out);
    r_.check(ok, std::string("sweep_ckpt: ") + (fresh ? "fresh" : "replay") +
                     " leg process reported back");
    out.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return out;
  }

  /// One fresh/replay pair with its output checks.  `pool` null: each leg
  /// runs in its own process; otherwise in process on `pool`.
  SweepUnit unit(mtcmos::util::ThreadPool* pool, Tracer* tracer) {
    std::error_code ec;
    fs::remove(journal_, ec);
    const LegResult f = pool != nullptr ? fresh_leg(*pool, tracer) : leg_in_child(true);
    const LegResult p = pool != nullptr ? replay_leg(*pool, tracer) : leg_in_child(false);
    r_.check(f.failed == 0, "sweep_ckpt: fresh leg has no failed items");
    r_.check(f.scalar_ok, "sweep_ckpt: scalar batch=1 subsample equals the batched rows");
    r_.check(p.digest == f.digest && p.rows == f.rows,
             "sweep_ckpt: resumed row digest equals the fresh one");
    r_.check(same_sizing(f.sized, p.sized),
             "sweep_ckpt: resumed SizingResult equals the fresh one bit-for-bit");
    r_.check(p.items == f.items && p.failed == 0, "sweep_ckpt: resumed report matches the fresh one");
    last_fresh_digest_ = f.digest;
    SweepUnit u;
    u.fresh_s = f.seconds;
    u.replay_s = p.seconds;
    u.fresh_items = f.items;
    u.replay_items = p.items;
    u.setup_s = {f.setup_s, p.setup_s};
    u.rss_mb = std::max(f.rss_mb, p.rss_mb);
    return u;
  }

  /// The fresh leg's calls without a checkpoint [s]; its rows must equal
  /// the journaled run's.
  double unjournaled_fresh_s(mtcmos::util::ThreadPool& pool) {
    std::vector<double> ignored;
    const Setup s = setup(ignored);
    DigestSink digest;
    mtcmos::SweepReport report;
    const sz::EvalSession session = base_session(pool, &report, &digest);
    const Clock::time_point t0 = Clock::now();
    sz::rank_vectors_stream(*s.backend, vectors_, kRankWl, session);
    sz::size_for_degradation(*s.backend, vectors_, kTargetPct, {}, session);
    const double seconds = seconds_since(t0);
    r_.check(digest.digest() == last_fresh_digest_,
             "sweep_ckpt: unjournaled rows equal the journaled ones");
    return seconds;
  }

  const std::string& journal() const { return journal_; }
  const std::vector<int>& fresh_calls() const { return fresh_calls_; }
  const std::vector<int>& replay_calls() const { return replay_calls_; }
  /// Set-up alone: circuit, backend, and an empty armed checkpoint.
  std::vector<double> setup_samples(int n) const {
    std::vector<double> samples;
    for (int i = 0; i < n; ++i) {
      std::error_code ec;
      fs::remove(journal_, ec);
      const Setup s = setup(samples);
      const Clock::time_point t0 = Clock::now();
      sz::Checkpoint ckpt;
      ckpt.open(journal_);
      bind(ckpt);
      samples.back() += seconds_since(t0);
    }
    std::error_code ec;
    fs::remove(journal_, ec);
    return samples;
  }

 private:
  /// The fixed subsample through the scalar EvalSession::batch = 1 path
  /// equals the batched fresh rows bit-for-bit.
  bool scalar_matches(mtcmos::util::ThreadPool& pool, const std::vector<sz::VectorDelay>& batched) {
    if (batched.size() != subsample_.size()) return false;
    std::vector<double> ignored;
    const Setup s = setup(ignored);
    std::vector<sz::VectorPair> sub;
    for (const std::size_t i : subsample_) sub.push_back(vectors_[i]);
    sz::MemorySink mem;
    mtcmos::SweepReport report;
    sz::EvalSession session = base_session(pool, &report, &mem);
    session.batch = 1;
    sz::rank_vectors_stream(*s.backend, sub, kRankWl, session);
    bool same = mem.delays.size() == batched.size();
    for (std::size_t i = 0; same && i < batched.size(); ++i) {
      same = same_row(mem.delays[i].row, batched[i]);
    }
    return same;
  }

  sz::EvalSession base_session(mtcmos::util::ThreadPool& pool, mtcmos::SweepReport* report,
                               sz::ResultSink* sink) {
    sz::EvalSession session;
    session.pool = &pool;
    session.report = report;
    session.sink = sink;
    session.cancel_token = &cancel_;
    return session;
  }

  void bind(sz::Checkpoint& ckpt) const {
    ckpt.bind_meta("circuit", circuit_);
    ckpt.bind_meta("target", mtcmos::util::json_double(kTargetPct));
    ckpt.bind_meta("seed", std::to_string(cfg_.seed));
  }

  static bool same_sizing(const sz::SizingResult& a, const sz::SizingResult& b) {
    return std::bit_cast<std::uint64_t>(a.wl) == std::bit_cast<std::uint64_t>(b.wl) &&
           std::bit_cast<std::uint64_t>(a.degradation_pct) ==
               std::bit_cast<std::uint64_t>(b.degradation_pct) &&
           a.binding_vector.v0 == b.binding_vector.v0 && a.binding_vector.v1 == b.binding_vector.v1;
  }

  const RunConfig& cfg_;
  RunResult& r_;
  std::string circuit_;
  mtcmos::util::CancelToken cancel_;
  std::string journal_;
  std::vector<sz::VectorPair> vectors_;
  std::vector<std::size_t> subsample_;
  std::vector<int> fresh_calls_;
  std::vector<int> replay_calls_;
  std::uint64_t last_fresh_digest_ = 0;
};

}  // namespace

void run_sweep_ckpt(const RunConfig& cfg, RunResult& r) {
  SweepWorkload w(cfg, r);
  LegSamples legs;
  legs.setup_s = w.setup_samples(kSetupSamples);

  if (!cfg.traced) {
    std::vector<double> rss_mb;
    UnitBudget budget(cfg.seconds);
    while (budget.another()) {
      const SweepUnit u = w.unit(nullptr, nullptr);
      legs.setup_s.insert(legs.setup_s.end(), u.setup_s.begin(), u.setup_s.end());
      legs.fresh_rate.push_back(static_cast<double>(u.fresh_items) / u.fresh_s);
      legs.replay_rate.push_back(static_cast<double>(u.replay_items) / u.replay_s);
      legs.fresh_ms.push_back(u.fresh_s * 1e3);
      legs.replay_ms.push_back(u.replay_s * 1e3);
      rss_mb.push_back(u.rss_mb);
    }
    set_end_to_end(r, legs, median(rss_mb));
    verify_on_spice(cfg, r, nullptr);
    r.note("sweep_items_per_s = " + std::to_string(median(legs.fresh_rate)) +
           " items/s, resume_items_per_s = " + std::to_string(median(legs.replay_rate)) +
           " items/s (medians of " + std::to_string(budget.units()) +
           " fresh/resume pairs, each leg its own process)");
    return;
  }

  // Traced: one plain unit, one wrapped unit, then the direct legs, all
  // in this process so the tracer sees them.
  mtcmos::util::ThreadPool pool(cfg.threads);
  const ProcSample before = proc_self();
  const SweepUnit plain = w.unit(&pool, nullptr);
  Tracer tracer;
  const SweepUnit traced = w.unit(&pool, &tracer);
  set_proc_metrics(r, before, proc_self());
  set_trace_metrics(r, tracer, w.fresh_calls());
  r.set("sizing.session.rank_vectors_stream_s", tracer.duration_s(w.fresh_calls().at(0)), "s");
  r.set("sizing.session.size_for_degradation_s", tracer.duration_s(w.fresh_calls().at(1)), "s");
  r.set("sizing.session.replay_s", tracer.duration_s(w.replay_calls().at(0)), "s");
  r.set("sizing.session.replay_self_s", tracer.self_seconds(w.replay_calls().at(0)), "s");
  r.set("trace.fresh_overhead_pct", (traced.fresh_s / plain.fresh_s - 1.0) * 100.0, "%");
  r.set("trace.replay_overhead_pct", (traced.replay_s / plain.replay_s - 1.0) * 100.0, "%");
  r.note("traced minus untraced: fresh " + std::to_string((traced.fresh_s - plain.fresh_s) * 1e3) +
         " ms, replay " + std::to_string((traced.replay_s - plain.replay_s) * 1e3) + " ms");

  // Checkpoint layer on the journal the traced unit left behind.
  probe_checkpoint(r, w.journal(), (fs::path(cfg.work_dir) / "probe.mtj").string(),
                   cfg.smoke ? 256 : 65536);
  // ROADMAP item 2's checkpoint overhead: the same fresh leg unjournaled.
  const double unjournaled_s = w.unjournaled_fresh_s(pool);
  r.set("sizing.checkpoint.overhead_pct", (plain.fresh_s / unjournaled_s - 1.0) * 100.0, "%");
  r.note("checkpoint overhead: fresh leg " + std::to_string(plain.fresh_s) +
         " s journaled vs " + std::to_string(unjournaled_s) + " s unjournaled");
  verify_on_spice(cfg, r, &tracer);
  write_trace(cfg, tracer, "sweep_ckpt", r);
}

}  // namespace perfbench
