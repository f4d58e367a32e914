#include "common.hpp"

#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sizing/checkpoint.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using mtcmos::Outcome;
using mtcmos::sizing::VectorDelay;

bool RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("CHECK FAILED: " + what);
  }
  return ok;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void set_end_to_end(RunResult& r, const LegSamples& legs, double peak_rss_mb) {
  r.set("setup_s", median(legs.setup_s), "s");
  r.set("peak_rss_mb", peak_rss_mb, "MB");
  r.set("fresh_items_per_s", median(legs.fresh_rate), "items/s");
  r.set("replay_items_per_s", median(legs.replay_rate), "items/s");
  r.set("fresh_p50_ms", median(legs.fresh_ms), "ms");
  r.set("replay_p50_ms", median(legs.replay_ms), "ms");
  const auto range = [](const char* name, const std::vector<double>& v) {
    if (v.empty()) return std::string(name) + ": no samples";
    return std::string(name) + ": n = " + std::to_string(v.size()) + ", min " +
           std::to_string(*std::min_element(v.begin(), v.end())) + ", median " +
           std::to_string(median(v)) + ", max " +
           std::to_string(*std::max_element(v.begin(), v.end()));
  };
  r.note(range("fresh ms", legs.fresh_ms));
  r.note(range("replay ms", legs.replay_ms));
}

// ------------------------------------------------------------------ tracer

int Tracer::add(const std::string& name, int parent, Clock::time_point t0, Clock::time_point t1) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, rel_us(t0), rel_us(t1)});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id, Clock::time_point t1) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_us = rel_us(t1);
}

void Tracer::count(const std::string& name, double delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

double Tracer::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::duration_s(int id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return (s.end_us - s.start_us) * 1e-6;
}

double Tracer::self_seconds(int id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Span& call = spans_.at(static_cast<std::size_t>(id));
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans_) {
    if (s.parent != id) continue;
    const double a = std::max(s.start_us, call.start_us);
    const double b = std::min(s.end_us, call.end_us);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double cur_a = 0.0, cur_b = -1.0;
  for (const auto& [a, b] : kids) {
    if (a > cur_b) {
      if (cur_b > cur_a) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) covered += cur_b - cur_a;
  return std::max(0.0, (call.end_us - call.start_us - covered) * 1e-6);
}

bool Tracer::write_json(const std::string& path, const std::string& workload) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"workload\":" << mtcmos::util::json_string(workload) << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i != 0 ? ",\n" : "\n") << "{\"id\":" << i
       << ",\"name\":" << mtcmos::util::json_string(s.name) << ",\"parent\":" << s.parent
       << ",\"start_us\":" << mtcmos::util::json_double(s.start_us)
       << ",\"end_us\":" << mtcmos::util::json_double(s.end_us) << "}";
  }
  os << "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "" : ",") << mtcmos::util::json_string(name) << ":"
       << mtcmos::util::json_double(value);
    first = false;
  }
  os << "}}\n";
  return static_cast<bool>(os);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->set_parent(prev_parent_);
  tracer_->close(id_, Clock::now());
}

// ---------------------------------------------------------------- wrappers

void TracedBackend::record(const char* what, Clock::time_point t0, std::size_t vectors,
                           bool batch) const {
  const Clock::time_point t1 = Clock::now();
  tracer_.add(layer_ + "." + what, tracer_.parent(), t0, t1);
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  if (batch) {
    tracer_.count(layer_ + ".batch_calls", 1.0);
    tracer_.count(layer_ + ".batch_ns", ns);
    tracer_.count(layer_ + ".batch_vectors", static_cast<double>(vectors));
  } else {
    tracer_.count(layer_ + ".scalar_calls", 1.0);
    tracer_.count(layer_ + ".scalar_ns", ns);
  }
}

double TracedBackend::delay_baseline(const mtcmos::sizing::VectorPair& vp) const {
  const Clock::time_point t0 = Clock::now();
  const double d = inner_.delay_baseline(vp);
  record("delay_baseline", t0, 1, false);
  return d;
}

double TracedBackend::delay_at_wl(const mtcmos::sizing::VectorPair& vp, double wl) const {
  const Clock::time_point t0 = Clock::now();
  const double d = inner_.delay_at_wl(vp, wl);
  record("delay_at_wl", t0, 1, false);
  return d;
}

void TracedBackend::delay_at_wl_batch(const mtcmos::sizing::VectorPair* const* vps, std::size_t n,
                                      double wl, Outcome<double>* out) const {
  const Clock::time_point t0 = Clock::now();
  inner_.delay_at_wl_batch(vps, n, wl, out);
  record("delay_at_wl_batch", t0, n, true);
}

void TracedBackend::delay_baseline_batch(const mtcmos::sizing::VectorPair* const* vps,
                                         std::size_t n, Outcome<double>* out) const {
  const Clock::time_point t0 = Clock::now();
  inner_.delay_baseline_batch(vps, n, out);
  record("delay_baseline_batch", t0, n, true);
}

void TracedSink::timed(Clock::time_point t0) {
  const Clock::time_point t1 = Clock::now();
  busy_s_ += std::chrono::duration<double>(t1 - t0).count();
  ++calls_;
  const int parent = tracer_.parent();
  if (open_ && parent == open_parent_ && t0 - open_end_ < std::chrono::microseconds(1)) {
    open_end_ = t1;
    return;
  }
  close_span();
  open_ = true;
  open_parent_ = parent;
  open_start_ = t0;
  open_end_ = t1;
}

void TracedSink::close_span() {
  if (open_) tracer_.add("sizing.result_sink.emit", open_parent_, open_start_, open_end_);
  open_ = false;
  if (calls_ > 0) {
    tracer_.count("sizing.result_sink.emit_calls", static_cast<double>(calls_));
    tracer_.count("sizing.result_sink.busy_s", busy_s_);
    calls_ = 0;
    busy_s_ = 0.0;
  }
}

void TracedSink::on_delay(const std::string& key, const VectorDelay& row) {
  const Clock::time_point t0 = Clock::now();
  inner_.on_delay(key, row);
  timed(t0);
}

void TracedSink::on_value(const std::string& key, double value) {
  const Clock::time_point t0 = Clock::now();
  inner_.on_value(key, value);
  timed(t0);
}

void TracedSink::flush() {
  const Clock::time_point t0 = Clock::now();
  inner_.flush();
  timed(t0);
  close_span();
}

void DigestSink::mix(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

void DigestSink::on_delay(const std::string&, const VectorDelay& row) {
  for (const bool b : row.pair.v0) mix(b ? "1" : "0", 1);
  for (const bool b : row.pair.v1) mix(b ? "1" : "0", 1);
  const std::uint64_t bits[3] = {std::bit_cast<std::uint64_t>(row.delay_cmos),
                                 std::bit_cast<std::uint64_t>(row.delay_mtcmos),
                                 std::bit_cast<std::uint64_t>(row.degradation_pct)};
  mix(bits, sizeof(bits));
  ++rows_;
  if (keep_pos_ < keep_.size() && keep_[keep_pos_] == delay_index_) {
    kept_rows_.push_back(row);
    ++keep_pos_;
  }
  ++delay_index_;
}

void DigestSink::on_value(const std::string&, double value) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  mix(&bits, sizeof(bits));
  ++rows_;
}

bool same_row(const VectorDelay& a, const VectorDelay& b) {
  return a.pair.v0 == b.pair.v0 && a.pair.v1 == b.pair.v1 &&
         std::bit_cast<std::uint64_t>(a.delay_cmos) == std::bit_cast<std::uint64_t>(b.delay_cmos) &&
         std::bit_cast<std::uint64_t>(a.delay_mtcmos) ==
             std::bit_cast<std::uint64_t>(b.delay_mtcmos) &&
         std::bit_cast<std::uint64_t>(a.degradation_pct) ==
             std::bit_cast<std::uint64_t>(b.degradation_pct);
}

// ------------------------------------------------------------ process stats

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// "<field>: <number>" lines of a /proc file; missing fields read 0.
double proc_field(const std::string& path, const std::string& field) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream ss(line.substr(field.size() + 1));
      double v = 0.0;
      ss >> v;
      return v;
    }
  }
  return 0.0;
}

}  // namespace

ProcSample proc_self() {
  ProcSample s;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  s.user_s = tv_s(ru.ru_utime);
  s.sys_s = tv_s(ru.ru_stime);
  s.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.write_syscalls = proc_field("/proc/self/io", "syscw");
  s.write_bytes = proc_field("/proc/self/io", "wchar");
  return s;
}

ProcSample proc_io(int pid) {
  ProcSample s;
  const std::string path = "/proc/" + std::to_string(pid) + "/io";
  s.write_syscalls = proc_field(path, "syscw");
  s.write_bytes = proc_field(path, "wchar");
  return s;
}

double peak_rss_mb_of(int pid) {
  return proc_field("/proc/" + std::to_string(pid) + "/status", "VmHWM") / 1024.0;
}

double peak_rss_mb_self() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void set_proc_metrics(RunResult& r, const ProcSample& before, const ProcSample& after) {
  r.set("proc.user_s", after.user_s - before.user_s, "s");
  r.set("proc.sys_s", after.sys_s - before.sys_s, "s");
  r.set("proc.ctx_switches", after.ctx_switches - before.ctx_switches, "count");
  r.set("proc.write_syscalls", after.write_syscalls - before.write_syscalls, "count");
  r.set("proc.write_bytes", after.write_bytes - before.write_bytes, "B");
}

std::size_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(n);
}

void set_trace_metrics(RunResult& r, const Tracer& tracer, const std::vector<int>& call_spans) {
  const double batch_calls = tracer.counter("core.batch_calls");
  const double batch_ns = tracer.counter("core.batch_ns");
  const double batch_vectors = tracer.counter("core.batch_vectors");
  r.set("core.batch_calls", batch_calls, "count");
  r.set("core.batch_busy_s", batch_ns * 1e-9, "s");
  r.set("core.ns_per_vector", batch_vectors > 0 ? batch_ns / batch_vectors : 0.0, "ns");
  r.set("core.scalar_calls", tracer.counter("core.scalar_calls"), "count");
  r.set("sizing.result_sink.emit_calls", tracer.counter("sizing.result_sink.emit_calls"), "count");
  r.set("sizing.result_sink.busy_s", tracer.counter("sizing.result_sink.busy_s"), "s");
  double self_s = 0.0;
  for (const int id : call_spans) self_s += tracer.self_seconds(id);
  r.set("sizing.session.self_s", self_s, "s");
}

void set_cache_metrics(RunResult& r, const mtcmos::sizing::CacheStats& cs) {
  const double sim = static_cast<double>(cs.sim_hits + cs.sim_misses);
  const double base = static_cast<double>(cs.baseline_hits + cs.baseline_misses);
  r.set("sizing.backend.sim_hit_ratio", sim > 0 ? static_cast<double>(cs.sim_hits) / sim : 0.0,
        "ratio");
  r.set("sizing.backend.sim_lookups", sim, "count");
  r.set("sizing.backend.baseline_hit_ratio",
        base > 0 ? static_cast<double>(cs.baseline_hits) / base : 0.0, "ratio");
  r.set("sizing.backend.baseline_lookups", base, "count");
}

void write_trace(const RunConfig& cfg, const Tracer& tracer, const std::string& workload,
                 RunResult& r) {
  std::error_code ec;
  fs::create_directories(cfg.trace_dir, ec);
  const std::string path =
      (fs::path(cfg.trace_dir) / (workload + "-seed" + std::to_string(cfg.seed) +
                                               ".json"))
          .string();
  if (tracer.write_json(path, workload)) {
    r.note("trace: " + std::to_string(tracer.spans().size()) + " spans written to " + path);
  } else {
    r.note("trace: could not write " + path);
  }
}

void probe_checkpoint(RunResult& r, const std::string& journal_path,
                      const std::string& scratch_path, std::size_t max_keys) {
  using mtcmos::sizing::Checkpoint;
  const Clock::time_point t_open = Clock::now();
  Checkpoint done;
  done.open(journal_path);
  const double open_s = seconds_since(t_open);

  std::vector<std::string> keys;
  done.journal().for_each([&](const std::string& key, const std::string&) {
    if (key.rfind("rank:", 0) == 0 || key.rfind("probe:", 0) == 0 ||
        key.rfind("chunk:", 0) == 0) {
      keys.push_back(key);
    }
  });
  std::sort(keys.begin(), keys.end());
  const std::size_t records = done.journal().size();
  if (keys.size() > max_keys) {
    const std::size_t stride = (keys.size() + max_keys - 1) / max_keys;
    std::vector<std::string> sampled;
    for (std::size_t i = 0; i < keys.size(); i += stride) sampled.push_back(keys[i]);
    keys.swap(sampled);
  }

  // The timed lookups decode each record; the record loop re-journals them.
  std::vector<Outcome<double>> values(keys.size());
  std::vector<Outcome<VectorDelay>> delays(keys.size());
  std::vector<char> is_delay(keys.size(), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    is_delay[i] = keys[i].rfind("rank:", 0) == 0 ? 1 : 0;
  }

  const Clock::time_point t_lookup = Clock::now();
  std::size_t found = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    found += is_delay[i] != 0 ? done.lookup(keys[i], delays[i]) : done.lookup(keys[i], values[i]);
  }
  const double lookup_s = seconds_since(t_lookup);
  r.check(found == keys.size(), "checkpoint probe: every journaled key looks up");

  std::error_code ec;
  fs::remove(scratch_path, ec);
  double record_s = 0.0;
  {
    Checkpoint fresh;
    fresh.open(scratch_path);
    const Clock::time_point t_record = Clock::now();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (is_delay[i] != 0) {
        fresh.record(keys[i], delays[i]);
      } else {
        fresh.record(keys[i], values[i]);
      }
    }
    record_s = seconds_since(t_record);
  }
  fs::remove(scratch_path, ec);

  const double n = keys.empty() ? 1.0 : static_cast<double>(keys.size());
  r.set("sizing.checkpoint.open_s", open_s, "s");
  r.set("sizing.checkpoint.lookup_us", lookup_s * 1e6 / n, "us");
  r.set("sizing.checkpoint.record_us", record_s * 1e6 / n, "us");
  r.set("util.journal.bytes_per_item",
        records > 0 ? static_cast<double>(file_size(journal_path)) / static_cast<double>(records)
                    : 0.0,
        "B");
}

}  // namespace perfbench
