#include "sizing/backend.hpp"

#include <algorithm>

#include "core/vbs_batch.hpp"
#include "models/sleep_transistor.hpp"
#include "util/error.hpp"
#include "util/journal.hpp"

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

void pack_transition(const VectorPair& vp, std::uint64_t* words) {
  const std::size_t bits = vp.v0.size();
  const std::size_t half = util::item_words(static_cast<std::uint32_t>(bits));
  for (std::size_t b = 0; b < bits; ++b) {
    words[b / 64] |= std::uint64_t{vp.v0[b]} << (b % 64);
    words[half + b / 64] |= std::uint64_t{vp.v1[b]} << (b % 64);
  }
}

// --- BaselineMemo ---

std::size_t BaselineMemo::KeyHash::operator()(const Key& key) const {
  return util::fnv1a64(key.data(), key.size() * sizeof(std::uint64_t));
}

const BaselineMemo::Key* BaselineMemo::pack(const VectorPair& vp) const {
  if (vp.v0.size() != width_ || vp.v1.size() != width_) return nullptr;
  thread_local Key key;
  key.assign(2 * util::item_words(static_cast<std::uint32_t>(width_)), 0);
  pack_transition(vp, key.data());
  return &key;
}

std::vector<std::size_t> BaselineMemo::find(const VectorPair* const* vps, std::size_t n,
                                            Outcome<double>* out) const {
  std::vector<std::size_t> miss;
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (std::size_t i = 0; i < n; ++i) {
    const Key* key = pack(*vps[i]);
    const auto it = key != nullptr ? delays_.find(*key) : delays_.end();
    if (it == delays_.end()) {
      miss.push_back(i);
    } else {
      out[i] = Outcome<double>::success(it->second);
    }
  }
  hits_.fetch_add(n - miss.size(), std::memory_order_relaxed);
  misses_.fetch_add(miss.size(), std::memory_order_relaxed);
  return miss;
}

void BaselineMemo::insert(const VectorPair& vp, double delay) {
  const Key* key = pack(vp);
  if (key == nullptr) return;
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  const auto [it, inserted] = delays_.try_emplace(*key, delay);
  if (!inserted) return;
  order_.push_back(&it->first);
  if (delays_.size() > capacity_) {
    delays_.erase(delays_.find(*order_.front()));
    order_.pop_front();
    ++evictions_;
  }
}

CacheStats BaselineMemo::stats() const {
  CacheStats s;
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  s.baseline_entries = delays_.size();
  s.baseline_capacity = capacity_;
  s.baseline_hits = hits_.load(std::memory_order_relaxed);
  s.baseline_misses = misses_.load(std::memory_order_relaxed);
  s.baseline_evictions = evictions_;
  return s;
}

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
      baseline_sim_(nl, with_resistance(base, 0.0)),
      sims_(limits.max_simulators),
      baselines_(nl.inputs().size(), limits.max_baseline_delays) {
  require(!outputs_.empty(), "VbsBackend: need at least one output net");
  require(limits.max_simulators >= 1 && limits.max_baseline_delays >= 1,
          "VbsBackend: cache limits must be >= 1");
  for (const std::string& name : outputs_) {
    require(nl_.find_net(name).has_value(), "VbsBackend: unknown net " + name);
  }
}

double VbsBackend::delay_baseline(const VectorPair& vp) const {
  return baselines_.get(
      vp, [&] { return baseline_sim_.critical_delay(vp.v0, vp.v1, outputs_, local_workspace()); });
}

std::shared_ptr<const core::VbsSimulator> VbsBackend::simulator_at_wl(double wl) const {
  return sims_.get(wl, [&] {
    const double r = SleepTransistor(nl_.tech(), wl).reff();
    return std::make_shared<const core::VbsSimulator>(nl_, with_resistance(base_, r));
  });
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
  // The kernel runs over the memo misses only: on the second and later
  // probes of a bisection the whole batch typically hits.
  const std::vector<std::size_t> miss = baselines_.find(vps, n, out);
  if (miss.empty()) return;
  std::vector<const VectorPair*> miss_vps(miss.size());
  std::vector<Outcome<double>> miss_out(miss.size());
  for (std::size_t k = 0; k < miss.size(); ++k) miss_vps[k] = vps[miss[k]];
  run_vbs_batch(baseline_sim_, outputs_, miss_vps.data(), miss.size(), miss_out.data());
  for (std::size_t k = 0; k < miss.size(); ++k) {
    // Failures are reported, never cached -- exactly like the scalar
    // call, which throws before touching the memo.
    if (miss_out[k].ok()) baselines_.insert(*miss_vps[k], *miss_out[k].value);
    out[miss[k]] = std::move(miss_out[k]);
  }
}

CacheStats VbsBackend::cache_stats() const {
  CacheStats s = baselines_.stats();
  sims_.stats(s);
  return s;
}

// --- SpiceBackend ---

SpiceBackend::SpiceBackend(const Netlist& nl, std::vector<std::string> outputs,
                           SpiceBackendOptions options)
    : nl_(nl),
      outputs_(std::move(outputs)),
      options_(options),
      engines_(options.max_engines),
      baselines_(nl.inputs().size(), options.max_baseline_delays) {
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
  // An entry is just the build recipe plus an empty pool, so creating it
  // is cheap; the expensive expansion happens in acquire(), per instance,
  // outside any lock.  In-flight measurements keep an evicted entry (and
  // its pool) alive through their shared_ptr.
  return engines_.get(wl, [&] {
    auto entry = std::make_shared<Entry>();
    entry->ropt = ref_options_for_wl(wl);
    return entry;
  });
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
  return baselines_.get(vp, [&] {
    const SpiceRefResult r = acquire(baseline_).ref().measure(vp);
    if (!r.ok()) throw NumericalError(r.failure);
    return r.delay;
  });
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
  for (const auto& entry : engines_.entries()) add_pool(*entry);
  add_pool(*baseline_);
  return total;
}

CacheStats SpiceBackend::cache_stats() const {
  CacheStats s = baselines_.stats();
  engines_.stats(s);
  return s;
}

}  // namespace mtcmos::sizing
