#include "sizing/backend.hpp"

#include <algorithm>

#include "core/vbs_batch.hpp"
#include "models/sleep_transistor.hpp"
#include "util/error.hpp"

namespace mtcmos::sizing {

namespace {

core::VbsOptions with_resistance(core::VbsOptions opt, double r) {
  opt.sleep_resistance = r;
  return opt;
}

// Per-thread simulator scratch: pool workers reuse their buffers across
// every run of a sweep instead of reallocating per delay call.
core::VbsWorkspace& local_workspace() {
  thread_local core::VbsWorkspace ws;
  return ws;
}

core::VbsBatchWorkspace& local_batch_workspace() {
  thread_local core::VbsBatchWorkspace ws;
  return ws;
}

// Run the batch VBS kernel over `vps` and convert lane results to the
// Outcome shape the batch interface promises.
void run_vbs_batch(const core::VbsSimulator& sim, const std::vector<std::string>& outputs,
                   const VectorPair* const* vps, std::size_t n, Outcome<double>* out) {
  std::vector<core::VbsBatchItem> items(n);
  for (std::size_t i = 0; i < n; ++i) items[i] = {&vps[i]->v0, &vps[i]->v1};
  std::vector<core::VbsLaneResult> lanes(n);
  const core::VbsBatchSimulator batch(sim);
  batch.critical_delays(items.data(), n, outputs, local_batch_workspace(), lanes.data());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lanes[i].ok ? Outcome<double>::success(lanes[i].delay)
                         : Outcome<double>::fail(lanes[i].failure);
  }
}

}  // namespace

// --- EvalBackend batch defaults ---

void EvalBackend::delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                                    Outcome<double>* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    try {
      out[i] = Outcome<double>::success(delay_at_wl(*vps[i], wl));
    } catch (const NumericalError& e) {
      out[i] = Outcome<double>::fail(e.info());
    }
  }
}

void EvalBackend::delay_baseline_batch(const VectorPair* const* vps, std::size_t n,
                                       Outcome<double>* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    try {
      out[i] = Outcome<double>::success(delay_baseline(*vps[i]));
    } catch (const NumericalError& e) {
      out[i] = Outcome<double>::fail(e.info());
    }
  }
}

// --- VbsBackend ---

VbsBackend::VbsBackend(const Netlist& nl, std::vector<std::string> outputs,
                       core::VbsOptions base, EvalCacheLimits limits)
    : nl_(nl),
      outputs_(std::move(outputs)),
      base_(base),
      limits_(limits),
      baseline_sim_(nl, with_resistance(base, 0.0)) {
  require(!outputs_.empty(), "VbsBackend: need at least one output net");
  require(limits_.max_simulators >= 1 && limits_.max_baseline_delays >= 1,
          "VbsBackend: cache limits must be >= 1");
  for (const std::string& name : outputs_) {
    require(nl_.find_net(name).has_value(), "VbsBackend: unknown net " + name);
  }
}

double VbsBackend::delay_baseline(const VectorPair& vp) const {
  {
    const std::lock_guard<std::mutex> lock(baseline_mutex_);
    const auto it = baseline_cache_.find({vp.v0, vp.v1});
    if (it != baseline_cache_.end()) {
      ++baseline_hits_;
      return it->second;
    }
    ++baseline_misses_;
  }
  // Compute outside the lock; a concurrent duplicate computes the same
  // deterministic value, so whichever insert wins is equivalent.
  const double d = baseline_sim_.critical_delay(vp.v0, vp.v1, outputs_, local_workspace());
  const std::lock_guard<std::mutex> lock(baseline_mutex_);
  if (baseline_cache_.size() >= limits_.max_baseline_delays &&
      baseline_cache_.find({vp.v0, vp.v1}) == baseline_cache_.end()) {
    baseline_cache_.erase(baseline_cache_.begin());
    ++baseline_evictions_;
  }
  baseline_cache_.try_emplace({vp.v0, vp.v1}, d);
  return d;
}

std::shared_ptr<const core::VbsSimulator> VbsBackend::simulator_at_wl(double wl) const {
  const std::lock_guard<std::mutex> lock(sim_mutex_);
  auto it = sim_cache_.find(wl);
  if (it != sim_cache_.end()) {
    ++sim_hits_;
    it->second.last_use = ++sim_clock_;
    return it->second.sim;
  }
  ++sim_misses_;
  if (sim_cache_.size() >= limits_.max_simulators) {
    auto victim = sim_cache_.begin();
    for (auto cand = sim_cache_.begin(); cand != sim_cache_.end(); ++cand) {
      if (cand->second.last_use < victim->second.last_use) victim = cand;
    }
    sim_cache_.erase(victim);
    ++sim_evictions_;
  }
  const double r = SleepTransistor(nl_.tech(), wl).reff();
  SimEntry entry{std::make_shared<const core::VbsSimulator>(nl_, with_resistance(base_, r)),
                 ++sim_clock_};
  return sim_cache_.emplace(wl, std::move(entry)).first->second.sim;
}

double VbsBackend::delay_at_wl(const VectorPair& vp, double wl) const {
  // Hold the shared_ptr for the duration of the run: a concurrent
  // eviction only drops the cache's reference, never the running one.
  const auto sim = simulator_at_wl(wl);
  return sim->critical_delay(vp.v0, vp.v1, outputs_, local_workspace());
}

void VbsBackend::delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                                   Outcome<double>* out) const {
  const auto sim = simulator_at_wl(wl);
  run_vbs_batch(*sim, outputs_, vps, n, out);
}

void VbsBackend::delay_baseline_batch(const VectorPair* const* vps, std::size_t n,
                                      Outcome<double>* out) const {
  // Resolve memo hits under the lock, then run the kernel over the
  // misses only -- on the second and later probes of a bisection the
  // whole batch typically hits.
  std::vector<std::size_t> miss;
  {
    const std::lock_guard<std::mutex> lock(baseline_mutex_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = baseline_cache_.find({vps[i]->v0, vps[i]->v1});
      if (it != baseline_cache_.end()) {
        ++baseline_hits_;
        out[i] = Outcome<double>::success(it->second);
      } else {
        ++baseline_misses_;
        miss.push_back(i);
      }
    }
  }
  if (miss.empty()) return;
  std::vector<const VectorPair*> miss_vps(miss.size());
  std::vector<Outcome<double>> miss_out(miss.size());
  for (std::size_t k = 0; k < miss.size(); ++k) miss_vps[k] = vps[miss[k]];
  run_vbs_batch(baseline_sim_, outputs_, miss_vps.data(), miss.size(), miss_out.data());
  const std::lock_guard<std::mutex> lock(baseline_mutex_);
  for (std::size_t k = 0; k < miss.size(); ++k) {
    // Failures are reported, never cached -- exactly like the scalar
    // call, which throws before touching the memo.
    if (miss_out[k].ok()) {
      const std::pair<std::vector<bool>, std::vector<bool>> key{vps[miss[k]]->v0,
                                                                vps[miss[k]]->v1};
      if (baseline_cache_.size() >= limits_.max_baseline_delays &&
          baseline_cache_.find(key) == baseline_cache_.end()) {
        baseline_cache_.erase(baseline_cache_.begin());
        ++baseline_evictions_;
      }
      baseline_cache_.try_emplace(key, *miss_out[k].value);
    }
    out[miss[k]] = std::move(miss_out[k]);
  }
}

CacheStats VbsBackend::cache_stats() const {
  CacheStats s;
  {
    const std::lock_guard<std::mutex> lock(sim_mutex_);
    s.sim_entries = sim_cache_.size();
    s.sim_capacity = limits_.max_simulators;
    s.sim_hits = sim_hits_;
    s.sim_misses = sim_misses_;
    s.sim_evictions = sim_evictions_;
  }
  const std::lock_guard<std::mutex> lock(baseline_mutex_);
  s.baseline_entries = baseline_cache_.size();
  s.baseline_capacity = limits_.max_baseline_delays;
  s.baseline_hits = baseline_hits_;
  s.baseline_misses = baseline_misses_;
  s.baseline_evictions = baseline_evictions_;
  return s;
}

// --- SpiceBackend ---

SpiceBackend::SpiceBackend(const Netlist& nl, std::vector<std::string> outputs,
                           SpiceBackendOptions options)
    : nl_(nl), outputs_(std::move(outputs)), options_(options) {
  require(!outputs_.empty(), "SpiceBackend: need at least one output net");
  require(options_.max_engines >= 1 && options_.max_baseline_delays >= 1,
          "SpiceBackend: cache limits must be >= 1");
  require(options_.bypass_tol >= 0.0, "SpiceBackend: bypass_tol must be non-negative");
  for (const std::string& name : outputs_) {
    require(nl_.find_net(name).has_value(), "SpiceBackend: unknown net " + name);
  }
  SpiceRefOptions ropt = ref_options_for_wl(/*wl=*/0.0);
  ropt.expand = options_.expand;
  ropt.expand.ground = netlist::ExpandOptions::Ground::kIdeal;
  auto entry = std::make_shared<Entry>();
  entry->ropt = ropt;
  baseline_ = std::move(entry);
}

SpiceRefOptions SpiceBackend::ref_options_for_wl(double wl) const {
  SpiceRefOptions ropt;
  ropt.expand = options_.expand;
  if (ropt.expand.ground == netlist::ExpandOptions::Ground::kIdeal) {
    ropt.expand.ground = netlist::ExpandOptions::Ground::kSleepFet;
  }
  ropt.expand.sleep_wl = wl;
  ropt.tstop = options_.tstop;
  ropt.dt = options_.dt;
  ropt.recovery = options_.recovery;
  ropt.bypass_tol = options_.bypass_tol;
  ropt.jacobian_reuse = options_.jacobian_reuse;
  return ropt;
}

std::shared_ptr<SpiceBackend::Entry> SpiceBackend::entry_at_wl(double wl) const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = engines_.find(wl);
  if (it != engines_.end()) {
    ++sim_hits_;
    it->second->last_use = ++clock_;
    return it->second;
  }
  ++sim_misses_;
  if (engines_.size() >= options_.max_engines) {
    auto victim = engines_.begin();
    for (auto cand = engines_.begin(); cand != engines_.end(); ++cand) {
      if (cand->second->last_use < victim->second->last_use) victim = cand;
    }
    // In-flight measurements keep the evicted entry (and its pool) alive
    // through their shared_ptr; only the cache's reference drops here.
    engines_.erase(victim);
    ++sim_evictions_;
  }
  // An entry is just the build recipe plus an empty pool, so creating it
  // is cheap; the expensive expansion happens in acquire(), per instance,
  // outside any lock.
  auto entry = std::make_shared<Entry>();
  entry->ropt = ref_options_for_wl(wl);
  entry->last_use = ++clock_;
  return engines_.emplace(wl, std::move(entry)).first->second;
}

SpiceBackend::Lease SpiceBackend::acquire(const std::shared_ptr<Entry>& entry) const {
  {
    const std::lock_guard<std::mutex> lock(entry->pool_mutex);
    if (!entry->idle.empty()) {
      SpiceRef* ref = entry->idle.back();
      entry->idle.pop_back();
      return Lease(entry, ref);
    }
  }
  // Pool exhausted: build a fresh instance outside the lock (expansion +
  // pattern analysis is expensive) and register it.  The pool grows to at
  // most one instance per concurrent caller and never shrinks until the
  // entry is evicted and the last lease returns.
  auto built = std::make_unique<SpiceRef>(nl_, outputs_, entry->ropt);
  SpiceRef* ref = built.get();
  const std::lock_guard<std::mutex> lock(entry->pool_mutex);
  entry->refs.push_back(std::move(built));
  return Lease(entry, ref);
}

SpiceRefResult SpiceBackend::measure_at_wl(const VectorPair& vp, double wl) const {
  const Lease lease = acquire(entry_at_wl(wl));
  return lease.ref().measure(vp);
}

double SpiceBackend::delay_at_wl(const VectorPair& vp, double wl) const {
  const SpiceRefResult r = measure_at_wl(vp, wl);
  if (!r.ok()) throw NumericalError(r.failure);
  return r.delay;
}

double SpiceBackend::delay_baseline(const VectorPair& vp) const {
  {
    const std::lock_guard<std::mutex> lock(baseline_mutex_);
    const auto it = baseline_cache_.find({vp.v0, vp.v1});
    if (it != baseline_cache_.end()) {
      ++baseline_hits_;
      return it->second;
    }
    ++baseline_misses_;
  }
  SpiceRefResult r;
  {
    const Lease lease = acquire(baseline_);
    r = lease.ref().measure(vp);
  }
  if (!r.ok()) throw NumericalError(r.failure);
  const std::lock_guard<std::mutex> lock(baseline_mutex_);
  if (baseline_cache_.size() >= options_.max_baseline_delays &&
      baseline_cache_.find({vp.v0, vp.v1}) == baseline_cache_.end()) {
    baseline_cache_.erase(baseline_cache_.begin());
    ++baseline_evictions_;
  }
  baseline_cache_.try_emplace({vp.v0, vp.v1}, r.delay);
  return r.delay;
}

spice::EngineStats SpiceBackend::engine_stats() const {
  spice::EngineStats total;
  const auto add_pool = [&total](Entry& entry) {
    const std::lock_guard<std::mutex> lock(entry.pool_mutex);
    // Only idle instances are read: a leased engine's counters are being
    // mutated by its worker, and skipping it keeps this accessor safe to
    // call at any time (the numbers are complete once the pool drains).
    for (SpiceRef* ref : entry.idle) {
      const spice::EngineStats& s = ref->engine_stats();
      total.device_evals += s.device_evals;
      total.bypass_hits += s.bypass_hits;
      total.factorizations += s.factorizations;
      total.solves += s.solves;
      total.newton_iters += s.newton_iters;
      total.full_newton_fallbacks += s.full_newton_fallbacks;
      total.workspace_bytes += s.workspace_bytes;
    }
  };
  std::vector<std::shared_ptr<Entry>> entries;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    entries.reserve(engines_.size());
    for (const auto& [wl, entry] : engines_) entries.push_back(entry);
  }
  for (const auto& entry : entries) add_pool(*entry);
  add_pool(*baseline_);
  return total;
}

CacheStats SpiceBackend::cache_stats() const {
  CacheStats s;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    s.sim_entries = engines_.size();
    s.sim_capacity = options_.max_engines;
    s.sim_hits = sim_hits_;
    s.sim_misses = sim_misses_;
    s.sim_evictions = sim_evictions_;
  }
  const std::lock_guard<std::mutex> lock(baseline_mutex_);
  s.baseline_entries = baseline_cache_.size();
  s.baseline_capacity = options_.max_baseline_delays;
  s.baseline_hits = baseline_hits_;
  s.baseline_misses = baseline_misses_;
  s.baseline_evictions = baseline_evictions_;
  return s;
}

}  // namespace mtcmos::sizing
