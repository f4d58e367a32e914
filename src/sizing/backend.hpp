#pragma once
// Backend-agnostic evaluation layer.
//
// The paper's central move is asking one question -- "what is the delay
// of this vector transition at this sleep W/L?" -- at two fidelities: the
// variable-breakpoint switch-level simulator for the sweep (fast, Section
// 5) and SPICE for sign-off (accurate, Section 6).  EvalBackend is that
// question as an interface.  Every sweep entry point (sizing/session.hpp)
// is written against it, so the same ranking / bisection / search code
// runs on either engine, and verify_sizing() can size with the fast
// backend and re-measure the result on the accurate one -- exactly the
// methodology of Figures 13/14 and Section 6.2.
//
// Contract for implementations:
//   * delay_baseline(vp): circuit delay with an ideal sleep path (the
//     CMOS reference the degradation percentage is relative to).
//     Negative when the outputs never switch for this transition.
//   * delay_at_wl(vp, wl): circuit delay with the sleep device at W/L =
//     wl.  Negative when the outputs never switch.
//   * Both throw util::NumericalError (never anything rawer) on numerical
//     failure, so the session layer's fault isolation can classify it.
//   * All entry points are const and safe to call from many threads at
//     once; backends serialize internally where their engine demands it.
//   * prepare_wl(wl) is a batch hook: sweeps call it once before fanning
//     a W/L probe out over a thread pool, so per-W/L state (a reduced
//     simulator, an expanded circuit) is built exactly once instead of
//     racing to be built under the first delay call.
//   * cache_stats() exposes cache occupancy/hit counters so long design-
//     space sweeps can watch their memory footprint.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/vbs.hpp"
#include "netlist/netlist.hpp"
#include "sizing/eval_types.hpp"
#include "sizing/spice_ref.hpp"
#include "util/failure.hpp"

namespace mtcmos::sizing {

using netlist::Netlist;

/// Occupancy and traffic counters for a backend's internal caches.
/// "sim" rows cover the per-W/L engine cache (one reduced simulator or
/// expanded circuit per distinct sleep W/L); "baseline" rows cover the
/// per-vector baseline-delay memo (invariant in W/L, so a sizing
/// bisection probes each vector's baseline exactly once).
struct CacheStats {
  std::size_t sim_entries = 0;
  std::size_t sim_capacity = 0;
  std::size_t sim_hits = 0;
  std::size_t sim_misses = 0;
  std::size_t sim_evictions = 0;
  std::size_t baseline_entries = 0;
  std::size_t baseline_capacity = 0;
  std::size_t baseline_hits = 0;
  std::size_t baseline_misses = 0;
  std::size_t baseline_evictions = 0;
};

/// Size caps for a backend's caches.  Million-vector design-space sweeps
/// revisit W/L values and vectors unevenly; without caps the per-W/L
/// engine cache and the per-vector baseline memo grow without bound.
/// Exceeding a cap evicts (least-recently-used engines, smallest-key
/// baseline entries); evicted entries are recomputed identically on the
/// next request, so capping never changes results, only speed.
struct EvalCacheLimits {
  std::size_t max_simulators = 64;             ///< distinct W/L engines kept
  std::size_t max_baseline_delays = 1u << 20;  ///< per-vector baseline memos kept
};

/// Abstract "delay of (VectorPair, W/L)" evaluator.  See the header
/// comment for the implementation contract.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  EvalBackend(const EvalBackend&) = delete;
  EvalBackend& operator=(const EvalBackend&) = delete;

  virtual const char* name() const = 0;
  virtual const Netlist& netlist() const = 0;
  virtual const std::vector<std::string>& outputs() const = 0;

  /// Delay with an ideal sleep path (R = 0 / ideal ground); negative if
  /// the outputs never switch.
  virtual double delay_baseline(const VectorPair& vp) const = 0;
  /// Delay at sleep W/L = wl; negative if the outputs never switch.
  virtual double delay_at_wl(const VectorPair& vp, double wl) const = 0;

  /// Batch hook: build/warm the per-W/L state before a parallel fan-out.
  virtual void prepare_wl(double wl) const { (void)wl; }
  virtual CacheStats cache_stats() const { return {}; }

  /// True when the delay_*_batch overrides are faster than a loop of
  /// scalar calls; the session sweeps only take the batch path then.
  virtual bool supports_batch() const { return false; }
  /// Batched delay_at_wl over `n` pairs: out[i] receives the value
  /// delay_at_wl(*vps[i], wl) would return, or the failure it would
  /// throw, bit-identically.  Per-item failures never abort the batch.
  /// The default is the scalar loop; backends with a real batch kernel
  /// override it.  Thread-safe like the scalar entry points.
  virtual void delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                                 Outcome<double>* out) const;
  /// Batched delay_baseline with the same contract (and the same
  /// per-vector memoization as the scalar call, where the backend has
  /// one).
  virtual void delay_baseline_batch(const VectorPair* const* vps, std::size_t n,
                                    Outcome<double>* out) const;

  /// % degradation at `wl` relative to the backend's own baseline
  /// (negative if the outputs never switch for this pair).
  double degradation_pct(const VectorPair& vp, double wl) const {
    const double d0 = delay_baseline(vp);
    if (d0 <= 0.0) return -1.0;
    const double d1 = delay_at_wl(vp, wl);
    if (d1 <= 0.0) return -1.0;
    return (d1 - d0) / d0 * 100.0;
  }

 protected:
  EvalBackend() = default;
};

/// Switch-level backend: the variable-breakpoint simulator of Section 5.
///
/// Caches aggressively, because it is the engine behind every sweep:
///   * one immutable VbsSimulator per distinct sleep W/L (equivalent-
///     inverter reduction and topological order are derived once, not per
///     delay call), LRU-bounded by EvalCacheLimits::max_simulators, plus
///     a dedicated never-evicted R = 0 baseline simulator;
///   * the baseline (CMOS) delay per vector pair, bounded by
///     EvalCacheLimits::max_baseline_delays.
/// All entry points are thread-safe: simulators are immutable after
/// construction, caches are mutex-guarded, and per-run scratch lives in
/// thread-local workspaces, so one backend can serve a whole thread pool
/// concurrently.
class VbsBackend : public EvalBackend {
 public:
  /// `outputs` are net names whose latest crossing defines the delay.
  /// `base` carries stimulus timing and model extensions; its
  /// sleep_resistance field is overridden per call.
  VbsBackend(const Netlist& nl, std::vector<std::string> outputs, core::VbsOptions base = {},
             EvalCacheLimits limits = {});

  const char* name() const override { return "vbs"; }
  const Netlist& netlist() const override { return nl_; }
  const std::vector<std::string>& outputs() const override { return outputs_; }

  double delay_baseline(const VectorPair& vp) const override;
  double delay_at_wl(const VectorPair& vp, double wl) const override;
  void prepare_wl(double wl) const override { (void)simulator_at_wl(wl); }
  CacheStats cache_stats() const override;

  /// Batch fast path: the SoA batch kernel (core/vbs_batch.hpp),
  /// bit-identical to the scalar calls.  The baseline variant resolves
  /// memo hits first and runs the kernel over the misses only, inserting
  /// results through the same eviction path as the scalar call.
  bool supports_batch() const override { return true; }
  void delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                         Outcome<double>* out) const override;
  void delay_baseline_batch(const VectorPair* const* vps, std::size_t n,
                            Outcome<double>* out) const override;

  /// Shared simulator for a sleep W/L, constructed on first use and
  /// reused (including across threads) thereafter.  The shared_ptr pins
  /// the simulator against LRU eviction while a caller runs it.
  std::shared_ptr<const core::VbsSimulator> simulator_at_wl(double wl) const;
  const core::VbsSimulator& baseline_simulator() const { return baseline_sim_; }

 private:
  struct SimEntry {
    std::shared_ptr<const core::VbsSimulator> sim;
    std::uint64_t last_use = 0;
  };

  const Netlist& nl_;
  std::vector<std::string> outputs_;
  core::VbsOptions base_;
  EvalCacheLimits limits_;
  core::VbsSimulator baseline_sim_;  ///< R = 0 (ideal ground) reference
  mutable std::mutex sim_mutex_;
  mutable std::map<double, SimEntry> sim_cache_;
  mutable std::uint64_t sim_clock_ = 0;
  mutable std::size_t sim_hits_ = 0, sim_misses_ = 0, sim_evictions_ = 0;
  mutable std::mutex baseline_mutex_;
  mutable std::map<std::pair<std::vector<bool>, std::vector<bool>>, double> baseline_cache_;
  mutable std::size_t baseline_hits_ = 0, baseline_misses_ = 0, baseline_evictions_ = 0;
};

struct SpiceBackendOptions {
  /// Expansion template; sleep_wl is overridden per delay_at_wl call and
  /// ground is forced to kIdeal for the baseline circuit.
  netlist::ExpandOptions expand;
  double tstop = 12e-9;  ///< transient window [s]
  double dt = 2e-12;     ///< nominal step [s]
  /// Escalation ladder for each measurement (see spice/recovery.hpp).
  spice::RecoveryPolicy recovery = {};
  /// Cache caps: expanded circuits are ~1000x more expensive than a
  /// VbsSimulator, so the per-W/L cap defaults much lower.
  std::size_t max_engines = 8;
  std::size_t max_baseline_delays = 1u << 16;
  /// Hot-path accelerations forwarded into every engine this backend
  /// builds (see spice/engine.hpp).  The reference backend enables both:
  /// the bypass tolerance is an order of magnitude below the engine's own
  /// voltage tolerances, and recovery rungs strip the accelerations
  /// anyway.  Set bypass_tol = 0 / jacobian_reuse = false to reproduce
  /// the plain engine bit-for-bit.
  double bypass_tol = 5e-5;
  bool jacobian_reuse = true;
};

/// Transistor-level backend: the MNA engine behind the same interface.
///
/// Each distinct sleep W/L owns a *pool* of SpiceRef instances (expanded
/// circuit + engine), grown on demand up to one per concurrent caller: a
/// SpiceRef is not thread-safe (it rewires shared source waveforms), so a
/// caller leases an idle instance from the pool, runs on it exclusively,
/// and returns it.  Concurrent measurements therefore run fully in
/// parallel at the same W/L as well as across W/L values -- the pool
/// replaces the per-entry mutex that used to serialize same-W/L callers.
/// Results are unchanged by pooling: every instance of a pool is built
/// from identical options and measure() is deterministic, so an N-thread
/// sweep is bit-identical to a serial one.  Entries are LRU-bounded;
/// eviction drops only the cache's reference, in-flight leases keep their
/// pool alive.  The baseline uses a dedicated ideal-ground pool with a
/// per-vector delay memo.  Persistent divergence (through the whole
/// recovery ladder) surfaces as util::NumericalError carrying the
/// FailureInfo, so session sweeps isolate it per item.
class SpiceBackend : public EvalBackend {
 public:
  SpiceBackend(const Netlist& nl, std::vector<std::string> outputs,
               SpiceBackendOptions options = {});

  const char* name() const override { return "spice"; }
  const Netlist& netlist() const override { return nl_; }
  const std::vector<std::string>& outputs() const override { return outputs_; }

  double delay_baseline(const VectorPair& vp) const override;
  double delay_at_wl(const VectorPair& vp, double wl) const override;
  void prepare_wl(double wl) const override { (void)entry_at_wl(wl); }
  CacheStats cache_stats() const override;

  /// Full reference measurement (bounce, peak current, energy) at `wl` on
  /// a leased pool instance.  Numerical failure is reported in the
  /// result, not thrown.
  SpiceRefResult measure_at_wl(const VectorPair& vp, double wl) const;

  /// Aggregate hot-path counters over every *idle* engine in every pool
  /// (in-flight instances are skipped rather than read racily); includes
  /// the baseline pool.  Meaningful when the backend is quiescent.
  spice::EngineStats engine_stats() const;

 private:
  /// One sleep W/L: the recipe for building instances plus the pool.
  struct Entry {
    SpiceRefOptions ropt;  ///< immutable after construction
    std::mutex pool_mutex;
    std::vector<std::unique_ptr<SpiceRef>> refs;  ///< owners, grow-only
    std::vector<SpiceRef*> idle;                  ///< currently leasable
    std::uint64_t last_use = 0;
  };
  /// RAII lease of one pool instance; returns it on destruction.
  class Lease {
   public:
    Lease(std::shared_ptr<Entry> entry, SpiceRef* ref)
        : entry_(std::move(entry)), ref_(ref) {}
    ~Lease() {
      const std::lock_guard<std::mutex> lock(entry_->pool_mutex);
      entry_->idle.push_back(ref_);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    SpiceRef& ref() const { return *ref_; }

   private:
    std::shared_ptr<Entry> entry_;
    SpiceRef* ref_;
  };

  std::shared_ptr<Entry> entry_at_wl(double wl) const;
  /// Pop an idle instance or build a fresh one (outside the pool lock).
  Lease acquire(const std::shared_ptr<Entry>& entry) const;
  SpiceRefOptions ref_options_for_wl(double wl) const;

  const Netlist& nl_;
  std::vector<std::string> outputs_;
  SpiceBackendOptions options_;
  mutable std::mutex cache_mutex_;
  mutable std::map<double, std::shared_ptr<Entry>> engines_;
  mutable std::uint64_t clock_ = 0;
  mutable std::size_t sim_hits_ = 0, sim_misses_ = 0, sim_evictions_ = 0;
  std::shared_ptr<Entry> baseline_;  ///< ideal-ground reference pool
  mutable std::mutex baseline_mutex_;
  mutable std::map<std::pair<std::vector<bool>, std::vector<bool>>, double> baseline_cache_;
  mutable std::size_t baseline_hits_ = 0, baseline_misses_ = 0, baseline_evictions_ = 0;
};

}  // namespace mtcmos::sizing
