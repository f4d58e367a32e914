#pragma once
// Shared pieces of the benchmark harness: the per-run result record, the
// in-memory tracer, and the forwarding wrappers that time calls into the
// library's public layers from outside (no tracing code lives in src/).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sizing/backend.hpp"
#include "sizing/result_sink.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line settings every workload receives.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget; at least one unit always runs
  bool traced = false;
  bool smoke = false;  ///< minimum-size inputs, for the metric/check smoke test
  std::string work_dir;  ///< scratch directory inside the checkout, removed after the run
  std::string trace_dir;  ///< where a traced run writes its spans
  int threads = 1;        ///< min(4, nproc)
};

/// Set-up is short next to the measured legs, so each run takes this many
/// set-up samples and reports their median.
constexpr int kSetupSamples = 15;

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: output-check tallies, metrics, and free-form
/// report lines printed before the final JSON line.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  /// One output check (or one operation): a false `ok` counts as a failed op.
  bool check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// Decides whether another measurement unit fits the run budget: always
/// runs the first unit, then another only when the slowest unit so far
/// would still end inside `budget_s`.
class UnitBudget {
 public:
  explicit UnitBudget(double budget_s) : budget_s_(budget_s), start_(Clock::now()) {}
  bool another() {
    const double now = seconds_since(start_);
    if (units_ > 0) slowest_ = std::max(slowest_, now - last_);
    last_ = now;
    if (units_ > 0 && now + slowest_ > budget_s_) return false;
    ++units_;
    return true;
  }
  int units() const { return units_; }

 private:
  double budget_s_;
  Clock::time_point start_;
  double last_ = 0.0;
  double slowest_ = 0.0;
  int units_ = 0;
};

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// Samples behind the end-to-end metrics.  Every workload has a fresh leg
/// (work computed) and a replay leg (work answered from what the fresh leg
/// left behind); each unit or request contributes one latency and one rate.
struct LegSamples {
  std::vector<double> setup_s;
  std::vector<double> fresh_rate, replay_rate;  ///< items/s
  std::vector<double> fresh_ms, replay_ms;
};
/// Medians of the samples, plus the peak RSS of the process doing the work.
void set_end_to_end(RunResult& r, const LegSamples& legs, double peak_rss_mb);

// ------------------------------------------------------------------ tracer

/// In-memory span and counter store.  Spans carry name, start, end and the
/// id of the span that caused them; they are written to a JSON file once
/// the run ends.  Thread-safe: backend batch calls record from pool workers.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;  ///< relative to the tracer's epoch
    double end_us = 0.0;
  };

  Tracer() : epoch_(Clock::now()) {}

  int add(const std::string& name, int parent, Clock::time_point t0, Clock::time_point t1);
  /// Set the end time of an open span.
  void close(int id, Clock::time_point t1);
  void count(const std::string& name, double delta);
  double counter(const std::string& name) const;
  std::vector<Span> spans() const;

  /// Parent id the wrappers attach their spans to (the session call in flight).
  void set_parent(int id) { parent_.store(id, std::memory_order_relaxed); }
  int parent() const { return parent_.load(std::memory_order_relaxed); }

  /// Wall time of span `id` not covered by the union of its children's
  /// intervals (children run concurrently on pool workers).
  double self_seconds(int id) const;
  double duration_s(int id) const;

  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  double rel_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
  std::atomic<int> parent_{-1};
};

/// A top-level span around one call into a layer; sets the tracer parent
/// for the wrappers while it is open.  No-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), name_(std::move(name)), t0_(Clock::now()) {
    if (tracer_ != nullptr) {
      prev_parent_ = tracer_->parent();
      id_ = tracer_->add(name_, prev_parent_, t0_, t0_);
      tracer_->set_parent(id_);
    }
  }
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  Clock::time_point t0_;
  int id_ = -1;
  int prev_parent_ = -1;
};

// ---------------------------------------------------------------- wrappers

/// Forwarding EvalBackend: every call goes to `inner` unchanged (name,
/// netlist and outputs too, so checkpoint keys are those of the inner
/// backend); batch and scalar delay calls are counted and timed under the
/// counter prefix `layer` ("core" for VBS, "spice" for SPICE).
class TracedBackend final : public mtcmos::sizing::EvalBackend {
 public:
  TracedBackend(const mtcmos::sizing::EvalBackend& inner, Tracer& tracer, std::string layer)
      : inner_(inner), tracer_(tracer), layer_(std::move(layer)) {}

  const char* name() const override { return inner_.name(); }
  const mtcmos::sizing::Netlist& netlist() const override { return inner_.netlist(); }
  const std::vector<std::string>& outputs() const override { return inner_.outputs(); }
  double delay_baseline(const mtcmos::sizing::VectorPair& vp) const override;
  double delay_at_wl(const mtcmos::sizing::VectorPair& vp, double wl) const override;
  void prepare_wl(double wl) const override { inner_.prepare_wl(wl); }
  mtcmos::sizing::CacheStats cache_stats() const override { return inner_.cache_stats(); }
  bool supports_batch() const override { return inner_.supports_batch(); }
  void delay_at_wl_batch(const mtcmos::sizing::VectorPair* const* vps, std::size_t n, double wl,
                         mtcmos::Outcome<double>* out) const override;
  void delay_baseline_batch(const mtcmos::sizing::VectorPair* const* vps, std::size_t n,
                            mtcmos::Outcome<double>* out) const override;

 private:
  void record(const char* what, Clock::time_point t0, std::size_t vectors, bool batch) const;

  const mtcmos::sizing::EvalBackend& inner_;
  Tracer& tracer_;
  std::string layer_;
};

/// Forwarding ResultSink: counts and times every emission.  Emissions come
/// back-to-back from the session's serial reduction, so consecutive emits
/// closer than a microsecond are coalesced into one span.
class TracedSink final : public mtcmos::sizing::ResultSink {
 public:
  TracedSink(mtcmos::sizing::ResultSink& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}
  ~TracedSink() override { close_span(); }
  TracedSink(const TracedSink&) = delete;
  TracedSink& operator=(const TracedSink&) = delete;

  bool wants_keys() const override { return inner_.wants_keys(); }
  void on_delay(const std::string& key, const mtcmos::sizing::VectorDelay& row) override;
  void on_value(const std::string& key, double value) override;
  void flush() override;

 private:
  void timed(Clock::time_point t0);
  void close_span();

  mtcmos::sizing::ResultSink& inner_;
  Tracer& tracer_;
  bool open_ = false;
  int open_parent_ = -1;
  Clock::time_point open_start_{};
  Clock::time_point open_end_{};
  double busy_s_ = 0.0;
  std::size_t calls_ = 0;
};

/// The backend and sink a leg calls: the library objects themselves or,
/// when a tracer is given, forwarding wrappers around them.
class LegTargets {
 public:
  LegTargets(const mtcmos::sizing::EvalBackend& backend, mtcmos::sizing::ResultSink* sink,
             Tracer* tracer, const char* layer) {
    if (tracer == nullptr) {
      backend_ = &backend;
      sink_ = sink;
      return;
    }
    backend_ = &traced_backend_.emplace(backend, *tracer, layer);
    if (sink != nullptr) sink_ = &traced_sink_.emplace(*sink, *tracer);
  }
  LegTargets(const LegTargets&) = delete;
  LegTargets& operator=(const LegTargets&) = delete;

  const mtcmos::sizing::EvalBackend& backend() const { return *backend_; }
  mtcmos::sizing::ResultSink* sink() const { return sink_; }

 private:
  std::optional<TracedBackend> traced_backend_;
  std::optional<TracedSink> traced_sink_;
  const mtcmos::sizing::EvalBackend* backend_ = nullptr;
  mtcmos::sizing::ResultSink* sink_ = nullptr;
};

/// Order-sensitive FNV-1a digest of every emitted row (transition bits and
/// the exact bit patterns of the doubles); rank rows at the requested
/// input indices are also kept for the scalar-path comparison.
class DigestSink final : public mtcmos::sizing::ResultSink {
 public:
  explicit DigestSink(std::vector<std::size_t> keep_rank_indices = {})
      : keep_(std::move(keep_rank_indices)) {}

  void on_delay(const std::string& key, const mtcmos::sizing::VectorDelay& row) override;
  void on_value(const std::string& key, double value) override;

  std::uint64_t digest() const { return hash_; }
  std::size_t rows() const { return rows_; }
  const std::vector<mtcmos::sizing::VectorDelay>& kept() const { return kept_rows_; }

 private:
  void mix(const void* data, std::size_t n);

  std::uint64_t hash_ = 1469598103934665603ull;
  std::size_t rows_ = 0;
  std::size_t delay_index_ = 0;
  std::vector<std::size_t> keep_;  ///< sorted ascending
  std::size_t keep_pos_ = 0;
  std::vector<mtcmos::sizing::VectorDelay> kept_rows_;
};

/// Counts emissions and nothing else (kernel-only timing legs).
class CountingSink final : public mtcmos::sizing::ResultSink {
 public:
  void on_delay(const std::string&, const mtcmos::sizing::VectorDelay&) override { ++rows; }
  void on_value(const std::string&, double) override { ++rows; }
  std::size_t rows = 0;
};

bool same_row(const mtcmos::sizing::VectorDelay& a, const mtcmos::sizing::VectorDelay& b);

// ------------------------------------------------------------ process stats

/// getrusage + /proc/<pid>/io snapshot of one process.
struct ProcSample {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;
  double write_syscalls = 0.0;
  double write_bytes = 0.0;
};
ProcSample proc_self();
/// /proc/<pid>/io write counters of another (live) process; rusage fields stay 0.
ProcSample proc_io(int pid);
/// Peak resident set (VmHWM) of a live process [MB].
double peak_rss_mb_of(int pid);
/// Peak resident set of this process [MB].
double peak_rss_mb_self();
void set_proc_metrics(RunResult& r, const ProcSample& before, const ProcSample& after);

std::size_t file_size(const std::string& path);

/// sizing.backend.* hit ratios (with their lookup counts as the base).
void set_cache_metrics(RunResult& r, const mtcmos::sizing::CacheStats& cs);

/// Write the tracer's spans and counters under cfg.trace_dir.
void write_trace(const RunConfig& cfg, const Tracer& tracer, const std::string& workload,
                 RunResult& r);

/// Layer metrics read from a wrapped run: core.*, sink and session self time.
void set_trace_metrics(RunResult& r, const Tracer& tracer, const std::vector<int>& call_spans);

/// Checkpoint layer probed directly on a completed journal: open (full
/// replay) time, per-key lookup time, per-key record time into a fresh
/// checkpoint under `scratch_path`, and journal bytes per record.  Keys are
/// sampled with a fixed stride to at most `max_keys`.
void probe_checkpoint(RunResult& r, const std::string& journal_path,
                      const std::string& scratch_path, std::size_t max_keys);

}  // namespace perfbench
