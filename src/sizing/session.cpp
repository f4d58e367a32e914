#include "sizing/session.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sizing/checkpoint.hpp"
#include "sizing/result_sink.hpp"
#include "sizing/sizing.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mtcmos::sizing {

namespace {

// Everything an entry-point call resolves once from its EvalSession and
// run_item reads per item: the pool, the report (the session's, or a
// scratch one when per-item outcomes are discarded), the cancel token,
// and the checkpoint (armed or null, so the hot path tests one pointer).
// Never copied: `report` may refer to `scratch`.
struct RunContext {
  explicit RunContext(const EvalSession& s)
      : pool(s.pool_ref()),
        report(s.report != nullptr ? *s.report : scratch),
        cancel(s.cancel_ref()),
        checkpoint(s.checkpoint != nullptr && s.checkpoint->armed() ? s.checkpoint : nullptr) {}
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Item keys have a consumer: the checkpoint, or a key-carrying sink.
  bool needs_keys(const ResultSink* sink) const {
    return checkpoint != nullptr || (sink != nullptr && sink->wants_keys());
  }

  /// Add item i's outcome to the report; true when it carries a value.
  template <typename T>
  bool keep(std::size_t i, const Outcome<T>& o) const {
    report.add(i, o);
    return o.ok();
  }

  util::ThreadPool& pool;
  SweepReport scratch;
  SweepReport& report;
  util::CancelToken& cancel;
  Checkpoint* const checkpoint;
};

// Run one sweep item under the kItemAttempts retry budget, stamping the item
// index as the fault-injection scope so tests can address "item 37" by
// name.  Only NumericalError is retried/recorded; precondition errors
// (std::invalid_argument and friends) propagate -- they indicate caller
// bugs, not numerical bad luck.
//
// The caller replays a journaled item instead (its outcome skips the work
// entirely), so run_item makes no journal read.  Ordering per attempt:
// cancellation (kCancelled, never journaled), then the body.  Completed
// outcomes (successes and persistable failures) are staged into `stage`
// before being returned; the caller commits the stage, so a crash can
// lose at most the items still in flight and each worker's uncommitted
// group.
template <typename T, typename Fn>
Outcome<T> run_item(const RunContext& ctx, std::size_t index, const ItemKeys& keys,
                    std::size_t k, Checkpoint::Stage& stage, Fn&& body) {
  const faultinject::ScopedScope scope(static_cast<std::int64_t>(index));
  FailureInfo last;
  for (int attempt = 1; attempt <= kItemAttempts; ++attempt) {
    if (ctx.cancel.requested()) {
      last.code = FailureCode::kCancelled;
      last.site = "sizing::sweep_item";
      last.context = "cancelled before item " + std::to_string(index);
      last.attempts = attempt;
      return Outcome<T>::fail(last);  // interruption artifact: never journaled
    }
    std::optional<T> value;
    try {
      faultinject::check(faultinject::Site::kSweepItem, "sizing::sweep_item");
      value = body();
    } catch (const NumericalError& e) {
      last = e.info();
      last.attempts = attempt;
      continue;
    }
    Outcome<T> out = Outcome<T>::success(std::move(*value), attempt);
    // Outside the catch deliberately: a journal append failure is a crash
    // of the checkpoint machinery, not numerical bad luck on this item --
    // it must tear down the sweep (like running out of disk would), not
    // burn the item's retry budget.
    if (ctx.checkpoint != nullptr) ctx.checkpoint->record(keys[k], out, stage);
    return out;
  }
  Outcome<T> out = Outcome<T>::fail(last);
  // record() filters interruption artifacts itself; terminal numerical
  // failures replay on resume exactly like successes.
  if (ctx.checkpoint != nullptr) ctx.checkpoint->record(keys[k], out, stage);
  return out;
}

// run_item for the serial call sites: a one-key lookup, then the item,
// whose record commits at once.
template <typename T, typename Fn>
Outcome<T> run_item_committed(const RunContext& ctx, std::size_t index, const ItemKeys& key,
                              Fn&& body) {
  Outcome<T> out;
  if (ctx.checkpoint != nullptr && ctx.checkpoint->lookup(key[0], out)) return out;
  Checkpoint::Stage stage;
  out = run_item<T>(ctx, index, key, 0, stage, std::forward<Fn>(body));
  if (ctx.checkpoint != nullptr) ctx.checkpoint->commit(stage);
  return out;
}

// --- Batch fast path (EvalSession::batch) ---

constexpr std::size_t kDefaultBatch = 256;

// Chunk size for this entry-point call, or 0 when the batch kernel must
// stand down: the backend has no batch kernel, the caller forced scalar
// (batch == 1), or a fault-injection plan targets a VBS site (such plans
// address per-item scopes, which a batch-wide kernel run cannot honor).
std::size_t batch_chunk(const EvalSession& session, const EvalBackend& backend) {
  if (session.batch == 1 || !backend.supports_batch()) return 0;
  if (faultinject::armed(faultinject::Site::kVbsRun) ||
      faultinject::armed(faultinject::Site::kVbsBreakpoint)) {
    return 0;
  }
  return session.batch == 0 ? kDefaultBatch : session.batch;
}

// Items per checkpoint commit group: one journal write() each.
constexpr std::size_t kMaxCommitGroup = 64;

// The sweep scheduler: an ordered list of passes, pass k of sizes[k]
// items, run as one pool job of one task per `chunk` items of a pass (per
// item when the kernel stands down, chunk 0).  Tasks are claimed in
// (pass, chunk) order, so pass k + 1's tasks start while pass k's last
// ones finish.  open(k) builds pass k's state -- its `keys`, and whatever
// its memo, body and emit read -- once, when the pass's first task
// starts; the state is freed once the pass is emitted.  A task's Outcome
// slots live from its run to its emission, so memory holds the tasks in
// flight, not the list.  A task reads its chunk's journaled items in one
// range (Checkpoint::lookup, straight into its slots), builds its memo
// (batch kernel) from the presence mask, then runs each other item
// through run_item, committing after every kMaxCommitGroup items and at
// its end, also when cancellation cut its items short, so an entry point
// returns with every completed item journaled.  A task that throws (a
// journal fault, a precondition bug) drops its uncommitted group, as a
// crash would, and propagates once the pool drains; emission stops at
// the last whole chunk before it.
//
// emit(state, i, outcome) is the caller's per-item reduction (report,
// sink, running maximum), called for every item in input order, pass
// after pass, while later items still compute: after each task the
// *calling* thread runs, it emits the finished prefix of tasks; workers
// only mark their task done, and the rest is emitted once the pool
// drains.  Sinks are therefore called from one thread, in the same
// sequence for any thread count.  close(k, state) runs on the calling
// thread right after pass k's last item is emitted and says whether to
// go on.  An exception from emit or close, or a close that returns false,
// stops emission there: the stopped pass's tasks still run, so the same
// items are journaled, later passes' tasks not yet started are skipped,
// and the exception is rethrown at the end.
template <typename T, typename Open, typename MakeMemo, typename Body, typename Emit,
          typename Close>
void run_passes(const RunContext& run, std::size_t chunk, const std::vector<std::size_t>& sizes,
                const Open& open, const MakeMemo& make_memo, const Body& body, const Emit& emit,
                const Close& close) {
  const std::size_t span = std::max<std::size_t>(chunk, 1);
  const std::size_t group = std::min(span, kMaxCommitGroup);
  const std::size_t n_passes = sizes.size();
  std::vector<std::size_t> first(n_passes + 1, 0);  // each pass's first task
  for (std::size_t k = 0; k < n_passes; ++k) first[k + 1] = first[k] + (sizes[k] + span - 1) / span;
  std::vector<std::atomic<bool>> done(first.back());
  std::vector<std::vector<Outcome<T>>> outs(first.back());
  std::vector<std::invoke_result_t<const Open&, std::size_t>> states(n_passes);
  std::vector<std::once_flag> opened(n_passes);
  const auto state = [&](std::size_t k) -> auto& {
    std::call_once(opened[k], [&] { states[k] = open(k); });
    return *states[k];
  };
  std::atomic<std::size_t> live{n_passes};  // passes from `live` on are stopped
  const std::thread::id caller = std::this_thread::get_id();
  // The emission cursor: the calling thread's alone.
  std::size_t pass = 0;     // the pass being emitted
  std::size_t emitted = 0;  // tasks emitted
  std::exception_ptr emit_error;
  const auto emit_ready = [&] {
    while (!emit_error && pass < live.load(std::memory_order_relaxed)) {
      if (emitted == first[pass + 1]) {
        bool go = false;
        try {
          go = close(pass, state(pass));
        } catch (...) {
          emit_error = std::current_exception();
        }
        states[pass].reset();
        if (!go) live.store(pass + 1, std::memory_order_relaxed);
        ++pass;
        continue;
      }
      if (!done[emitted].load(std::memory_order_acquire)) return;
      auto& s = *states[pass];
      std::vector<Outcome<T>> out = std::move(outs[emitted]);
      const std::size_t begin = (emitted - first[pass]) * span;
      try {
        for (std::size_t j = 0; j < out.size(); ++j) emit(s, begin + j, out[j]);
      } catch (...) {
        emit_error = std::current_exception();
        live.store(pass + 1, std::memory_order_relaxed);
      }
      ++emitted;
    }
  };
  run.pool.parallel_for(first.back(), [&](std::size_t t) {
    const std::size_t k =
        static_cast<std::size_t>(std::upper_bound(first.begin(), first.end(), t) - first.begin()) -
        1;
    if (k < live.load(std::memory_order_relaxed)) {
      auto& s = state(k);
      const std::size_t begin = (t - first[k]) * span;
      const std::size_t end = std::min(sizes[k], begin + span);
      std::vector<Outcome<T>>& out = outs[t];
      out.resize(end - begin);
      const std::vector<char> replayed =
          run.checkpoint != nullptr ? run.checkpoint->lookup(s.keys, begin, end, out.data())
                                    : std::vector<char>();
      auto memo = make_memo(s, begin, end, replayed);
      Checkpoint::Stage stage;
      for (std::size_t i = begin; i < end; ++i) {
        if (replayed.empty() || replayed[i - begin] == 0) {
          out[i - begin] = run_item<T>(run, i, s.keys, i, stage, [&] { return body(s, memo, i); });
        }
        if (run.checkpoint != nullptr && ((i + 1 - begin) % group == 0 || i + 1 == end)) {
          run.checkpoint->commit(stage);
        }
      }
    }
    done[t].store(true, std::memory_order_release);
    if (std::this_thread::get_id() == caller) emit_ready();
  });
  emit_ready();
  if (emit_error) std::rethrow_exception(emit_error);
}

// run_passes over one pass of `n` items keyed by `keys`; emit(i, outcome).
template <typename T, typename MakeMemo, typename Body, typename Emit>
void run_chunks(const RunContext& run, const ItemKeys& keys, std::size_t chunk, std::size_t n,
                const MakeMemo& make_memo, const Body& body, const Emit& emit) {
  struct Pass {
    const ItemKeys& keys;
  };
  run_passes<T>(
      run, chunk, {n}, [&](std::size_t) { return std::make_unique<Pass>(Pass{keys}); },
      [&](Pass&, std::size_t begin, std::size_t end, const std::vector<char>& replayed) {
        return make_memo(begin, end, replayed);
      },
      [&](Pass&, auto& memo, std::size_t i) { return body(memo, i); },
      [&](Pass&, std::size_t i, Outcome<T>& o) { emit(i, o); },
      [](std::size_t, Pass&) { return true; });
}

// The items of [begin, end) for the chunk's batch kernel: those the
// chunk's range read did not replay (`replayed`, empty when no checkpoint
// is armed), so a resumed run batches only the rest; none when the kernel
// stands down (chunk 0) or the run is cancelled (run_item classifies
// those items itself).
std::vector<std::size_t> chunk_todo(const RunContext& run, const std::vector<char>& replayed,
                                    std::size_t chunk, std::size_t begin, std::size_t end) {
  std::vector<std::size_t> todo;
  if (chunk == 0 || run.cancel.requested()) return todo;
  for (std::size_t i = begin; i < end; ++i) {
    if (replayed.empty() || replayed[i - begin] == 0) todo.push_back(i);
  }
  return todo;
}

// Batch-kernel delays of a chunk's items `idx` (ascending), each consumed
// once by a run_item body in place of the scalar call.  A failure is
// rethrown as the NumericalError the scalar call would throw; a retry
// finds the slot consumed and calls the live backend, which repeats the
// outcome -- so attempts, failures and records match the scalar path.
class ChunkMemo {
 public:
  template <typename Kernel>
  ChunkMemo(std::vector<std::size_t> idx, const VectorPair* vectors, const Kernel& kernel)
      : idx_(std::move(idx)), slots_(idx_.size()) {
    if (idx_.empty()) return;
    std::vector<const VectorPair*> vps(idx_.size());
    for (std::size_t k = 0; k < idx_.size(); ++k) vps[k] = &vectors[idx_[k]];
    kernel(vps.data(), vps.size(), slots_.data());
  }
  // Indices whose delay is positive (the outputs toggled).
  std::vector<std::size_t> positive() const {
    std::vector<std::size_t> out;
    for (std::size_t k = 0; k < idx_.size(); ++k) {
      if (slots_[k].ok() && *slots_[k].value > 0.0) out.push_back(idx_[k]);
    }
    return out;
  }
  // Bodies run in ascending index order, so a cursor finds each slot.
  template <typename Fn>
  double take(std::size_t i, Fn&& fallback) {
    while (next_ < idx_.size() && idx_[next_] < i) ++next_;
    if (next_ < idx_.size() && idx_[next_] == i) {
      const Outcome<double> o = std::move(slots_[next_++]);
      if (!o.ok()) throw NumericalError(o.failure);
      return *o.value;
    }
    return fallback();
  }

 private:
  std::vector<std::size_t> idx_;
  std::vector<Outcome<double>> slots_;
  std::size_t next_ = 0;
};

// Typed checkpoint keys of one pass over `vectors` in the context
// `prefix`, registering it; empty (and unused) when no checkpoint is armed.
ItemKeys pass_keys(Checkpoint* ckpt, const std::string& prefix, const VectorPair* vectors,
                   std::size_t n) {
  return ckpt != nullptr ? ItemKeys(ckpt->context(prefix), vectors, n) : ItemKeys();
}

// Row keys for a key-carrying sink (the columnar spill), formatted one at
// a time as rows are emitted; empty for every other sink.
class SinkKeys {
 public:
  SinkKeys(const ResultSink* sink, const std::string& prefix)
      : prefix_(sink != nullptr && sink->wants_keys() ? &prefix : nullptr) {}

  const std::string& operator()(const VectorPair& vp) {
    if (prefix_ != nullptr) key_ = checkpoint_item_key(*prefix_, vp);
    return key_;
  }

 private:
  const std::string* prefix_;
  std::string key_;
};

// One chunk of a degradation sweep (rank_vectors, size_for_degradation
// probes): baseline delays of the `todo` items (memo hits after a
// bisection's first probe), then sized delays only where the baseline
// toggled the outputs, as measure() -- the item body -- returns early.
struct DegradationMemo {
  DegradationMemo(const EvalBackend& backend, const VectorPair* vectors, double wl,
                  std::vector<std::size_t> todo)
      : base(std::move(todo), vectors,
             [&](auto vps, auto n, auto out) { backend.delay_baseline_batch(vps, n, out); }),
        sized(base.positive(), vectors,
              [&](auto vps, auto n, auto out) { backend.delay_at_wl_batch(vps, n, wl, out); }) {}

  ChunkMemo base, sized;

  // EvalBackend::degradation_pct's arithmetic, keeping both delays.
  VectorDelay measure(std::size_t i, const EvalBackend& backend, const VectorPair& vp,
                      double wl) {
    VectorDelay vd;
    vd.delay_cmos = base.take(i, [&] { return backend.delay_baseline(vp); });
    if (vd.delay_cmos <= 0.0) return vd;
    vd.delay_mtcmos = sized.take(i, [&] { return backend.delay_at_wl(vp, wl); });
    if (vd.delay_mtcmos <= 0.0) return vd;
    vd.degradation_pct = (vd.delay_mtcmos - vd.delay_cmos) / vd.delay_cmos * 100.0;
    return vd;
  }
};

// One rank pass while it is in flight: its keys and the row-key
// formatter of its sink.  The pass prefix is formatted when
// anyone consumes it -- the checkpoint registers it as the pass context,
// a key-carrying sink (columnar spill) builds row keys from it; the plain
// in-RAM path skips the fingerprint entirely.
struct RankState {
  RankState(const RunContext& run, const RankPass& p, std::size_t n)
      : pass(p),
        report(p.report != nullptr ? *p.report : run.report),
        prefix(run.needs_keys(p.sink) ? rank_prefix(*p.backend, p.wl) : std::string()),
        keys(pass_keys(run.checkpoint, prefix, p.vectors, n)),
        sink_key(p.sink, prefix) {
    if (!run.cancel.requested()) p.backend->prepare_wl(p.wl);
  }

  const RankPass pass;
  SweepReport& report;
  const std::string prefix;
  const ItemKeys keys;
  SinkKeys sink_key;
  std::size_t rows = 0;
};

}  // namespace

std::size_t rank_vectors_passes(const std::vector<std::size_t>& sizes, RankPasses& passes,
                                const EvalSession& session) {
  if (sizes.empty()) return 0;
  const RunContext run(session);
  const auto open = [&](std::size_t k) {
    const RankPass p = passes.open(k);
    if (p.sink == nullptr) {
      throw std::invalid_argument("rank_vectors_passes: every pass needs a sink");
    }
    return std::make_unique<RankState>(run, p, sizes[k]);
  };
  // Pass 0 opens before the job: its backend picks the chunk size.
  std::unique_ptr<RankState> first = open(0);
  const std::size_t chunk = batch_chunk(session, *first->pass.backend);
  std::size_t rows = 0;
  // Each pass evaluates into per-item Outcome slots, emitted in input
  // order: its sink sees the exact sequence the serial loop produced, so
  // the emission stream is bit-identical for any thread count, and a
  // failed item only removes itself from the stream.
  run_passes<VectorDelay>(
      run, chunk, sizes, [&](std::size_t k) { return k == 0 ? std::move(first) : open(k); },
      [&](RankState& s, std::size_t begin, std::size_t end, const std::vector<char>& replayed) {
        return DegradationMemo(*s.pass.backend, s.pass.vectors, s.pass.wl,
                               chunk_todo(run, replayed, chunk, begin, end));
      },
      [&](RankState& s, DegradationMemo& memo, std::size_t i) {
        return memo.measure(i, *s.pass.backend, s.pass.vectors[i], s.pass.wl);
      },
      [&](RankState& s, std::size_t i, Outcome<VectorDelay>& o) {
        s.report.add(i, o);
        if (!o.ok()) return;
        // The transition itself lives in the checkpoint key, not the
        // record; re-attach it for computed and replayed outcomes alike.
        o.value->pair = s.pass.vectors[i];
        s.pass.sink->on_delay(s.sink_key(s.pass.vectors[i]), *o.value);
        ++s.rows;
      },
      [&](std::size_t k, RankState& s) {
        s.pass.sink->flush();
        rows += s.rows;
        return passes.close(k, s.rows);
      });
  return rows;
}

namespace {

// Streaming core shared by the materializing and streaming rank_vectors
// fronts: the one-pass case of rank_vectors_passes.
std::size_t rank_vectors_into(const EvalBackend& backend,
                              const std::vector<VectorPair>& vectors, double wl,
                              const EvalSession& session, ResultSink& sink) {
  struct OnePass final : RankPasses {
    RankPass pass;
    RankPass open(std::size_t) override { return pass; }
    bool close(std::size_t, std::size_t) override { return true; }
  } one;
  one.pass = {&backend, vectors.data(), wl, &sink, nullptr};
  return rank_vectors_passes({vectors.size()}, one, session);
}

}  // namespace

std::vector<VectorDelay> rank_vectors(const EvalBackend& backend,
                                      const std::vector<VectorPair>& vectors, double wl,
                                      const EvalSession& session) {
  // Materializing front: collect the emission stream in RAM, then drop
  // non-switching rows and sort worst-first.  The filter and sort see the
  // exact row sequence the streaming front emits.
  MemorySink mem;
  if (session.sink != nullptr) {
    TeeSink tee(mem, *session.sink);
    rank_vectors_into(backend, vectors, wl, session, tee);
  } else {
    rank_vectors_into(backend, vectors, wl, session, mem);
  }
  std::vector<VectorDelay> out;
  out.reserve(mem.delays.size());
  for (MemorySink::DelayRow& d : mem.delays) {
    if (d.row.delay_cmos > 0.0 && d.row.delay_mtcmos > 0.0) out.push_back(std::move(d.row));
  }
  std::sort(out.begin(), out.end(), [](const VectorDelay& a, const VectorDelay& b) {
    return a.degradation_pct > b.degradation_pct;
  });
  return out;
}

std::size_t rank_vectors_stream(const EvalBackend& backend,
                                const std::vector<VectorPair>& vectors, double wl,
                                const EvalSession& session) {
  if (session.sink == nullptr) {
    throw std::invalid_argument("rank_vectors_stream: session.sink must be set");
  }
  return rank_vectors_into(backend, vectors, wl, session, *session.sink);
}

SizingResult size_for_degradation(const EvalBackend& backend,
                                  const std::vector<VectorPair>& vectors, double target_pct,
                                  const SizingBounds& bounds, const EvalSession& session) {
  require(!vectors.empty(), "size_for_degradation: need at least one vector");
  require(target_pct > 0.0, "size_for_degradation: target must be positive");
  // Degenerate bounds get a *coded* failure: batch drivers and the CLI
  // classify it (kInvalidArgument) instead of pattern-matching a string,
  // and a checkpointed run can report it like any other failure.
  const auto bad_bounds = [&](const std::string& why) {
    throw NumericalError({FailureCode::kInvalidArgument, "sizing::size_for_degradation",
                          why + " (wl_min=" + std::to_string(bounds.wl_min) +
                              ", wl_max=" + std::to_string(bounds.wl_max) +
                              ", wl_tol=" + std::to_string(bounds.wl_tol) + ")"});
  };
  if (!std::isfinite(bounds.wl_min) || !std::isfinite(bounds.wl_max) ||
      !std::isfinite(bounds.wl_tol)) {
    bad_bounds("SizingBounds must be finite");
  }
  if (!(bounds.wl_min > 0.0)) bad_bounds("wl_min must be positive");
  if (!(bounds.wl_max > bounds.wl_min)) bad_bounds("need wl_min < wl_max");
  if (!(bounds.wl_tol > 0.0)) bad_bounds("wl_tol must be positive");

  const RunContext run(session);
  Checkpoint* ckpt = run.checkpoint;

  // A resume re-derives the same probe sequence: the item records replay
  // each completed probe without simulating.
  ResultSink* sink = session.sink;
  std::uint64_t fp = 0;
  if (run.needs_keys(sink)) fp = netlist_fingerprint(backend.netlist(), backend.outputs());

  // Parallel map into per-item Outcome slots, reduced in input
  // order by a first-maximum that skips failed items: identical result to
  // the serial loop for any thread count, regardless of which items fail.
  // The transitions are packed once; each probe keys them in its own
  // context.
  const std::size_t chunk = batch_chunk(session, backend);
  const ItemKeys packed = ckpt != nullptr ? ItemKeys(0, vectors) : ItemKeys();
  auto worst_at = [&](double wl) {
    if (!run.cancel.requested()) backend.prepare_wl(wl);
    std::string prefix;
    if (run.needs_keys(sink)) prefix = checkpoint_prefix("probe", backend.name(), fp, wl);
    const ItemKeys keys =
        ckpt != nullptr ? packed.with_context(ckpt->context(prefix)) : ItemKeys();
    SinkKeys sink_key(sink, prefix);
    double worst = -1.0;
    std::size_t worst_idx = 0;
    bool any_ok = false;
    FailureInfo first_failure;
    // run_item already absorbs NumericalErrors, so the only exceptions
    // that reach the pool are precondition bugs (and journal write
    // failures), which should cancel and propagate.
    run_chunks<double>(
        run, keys, chunk, vectors.size(),
        [&](std::size_t begin, std::size_t end, const std::vector<char>& replayed) {
          return DegradationMemo(backend, vectors.data(), wl,
                                 chunk_todo(run, replayed, chunk, begin, end));
        },
        [&](DegradationMemo& memo, std::size_t i) {
          const VectorDelay vd = memo.measure(i, backend, vectors[i], wl);
          return vd.delay_cmos <= 0.0 || vd.delay_mtcmos <= 0.0 ? -1.0 : vd.degradation_pct;
        },
        [&](std::size_t i, const Outcome<double>& o) {
          if (i == 0) first_failure = o.failure;
          if (!run.keep(i, o)) return;
          if (sink != nullptr) sink->on_value(sink_key(vectors[i]), *o.value);
          any_ok = true;
          if (*o.value > worst) {
            worst = *o.value;
            worst_idx = i;
          }
        });
    if (sink != nullptr) sink->flush();
    if (!any_ok) {
      // Keep the first failure's code: an all-cancelled probe surfaces as
      // kCancelled so callers distinguish "interrupted" from "diverged".
      throw NumericalError({first_failure.code, "size_for_degradation",
                            "every vector failed at probe W/L=" + std::to_string(wl) +
                                " (first: " + first_failure.message() + ")"});
    }
    return std::pair<double, std::size_t>{worst, worst_idx};
  };

  auto [deg_max, idx_max] = worst_at(bounds.wl_max);
  if (deg_max > target_pct) {
    throw NumericalError("size_for_degradation: even W/L=" + std::to_string(bounds.wl_max) +
                         " degrades " + std::to_string(deg_max) + "% > target");
  }
  auto [deg_min, idx_min] = worst_at(bounds.wl_min);
  if (deg_min >= 0.0 && deg_min <= target_pct) {
    return {bounds.wl_min, deg_min, vectors[idx_min]};
  }

  // Bisection in log space (degradation is monotone decreasing in W/L).
  double lo = bounds.wl_min, hi = bounds.wl_max;
  double hi_deg = deg_max;
  std::size_t hi_idx = idx_max;
  while (hi - lo > bounds.wl_tol) {
    const double mid = std::sqrt(lo * hi);
    const auto [deg, idx] = worst_at(mid);
    if (deg >= 0.0 && deg <= target_pct) {
      hi = mid;
      hi_deg = deg;
      hi_idx = idx;
    } else {
      lo = mid;
    }
  }
  return {hi, hi_deg, vectors[hi_idx]};
}

VectorDelay search_worst_vector(const EvalBackend& backend, double wl, int samples, Rng& rng,
                                const EvalSession& session) {
  require(samples >= 1, "search_worst_vector: need at least one sample");
  const RunContext run(session);
  const int n = static_cast<int>(backend.netlist().inputs().size());
  ResultSink* sink = session.sink;
  std::string prefix;
  if (run.needs_keys(sink)) {
    prefix = checkpoint_prefix("search", backend.name(),
                               netlist_fingerprint(backend.netlist(), backend.outputs()), wl);
  }
  const std::uint64_t context = run.checkpoint != nullptr ? run.checkpoint->context(prefix) : 0;
  SinkKeys sink_key(sink, prefix);
  if (!run.cancel.requested()) backend.prepare_wl(wl);

  auto score = [&](const VectorPair& vp) -> double {
    // Objective: absolute MTCMOS delay (what the designer must cover).
    return backend.delay_at_wl(vp, wl);
  };

  // Sample pass: the RNG draws stay serial (reproducible from the seed);
  // the expensive scoring fans out, and the input-order first-maximum
  // reduction -- which skips failed samples -- keeps the winner identical
  // for any thread count.  The batch kernel scores the samples chunk by
  // chunk; the greedy refinement below stays scalar, because each
  // candidate is derived from the current best and so depends on the
  // previous candidate's verdict.
  const std::vector<VectorPair> sampled = sampled_vector_pairs(n, samples, rng);
  const ItemKeys keys = run.checkpoint != nullptr ? ItemKeys(context, sampled) : ItemKeys();
  const std::size_t chunk = batch_chunk(session, backend);
  VectorPair best;
  double best_score = -1.0;
  run_chunks<double>(
      run, keys, chunk, sampled.size(),
      [&](std::size_t begin, std::size_t end, const std::vector<char>& replayed) {
        return ChunkMemo(chunk_todo(run, replayed, chunk, begin, end), sampled.data(),
                         [&](auto vps, auto m, auto out) {
                           backend.delay_at_wl_batch(vps, m, wl, out);
                         });
      },
      [&](ChunkMemo& memo, std::size_t i) {
        return memo.take(i, [&] { return score(sampled[i]); });
      },
      [&](std::size_t i, const Outcome<double>& o) {
        if (!run.keep(i, o)) return;
        if (sink != nullptr) sink->on_value(sink_key(sampled[i]), *o.value);
        if (*o.value > best_score) {
          best_score = *o.value;
          best = sampled[i];
        }
      });
  if (best_score <= 0.0 && run.cancel.requested()) {
    throw NumericalError({FailureCode::kCancelled, "sizing::search_worst_vector",
                          "cancelled before any sample completed"});
  }
  require(best_score > 0.0, "search_worst_vector: no sampled vector toggles the outputs");

  // Greedy single-bit-flip refinement on both endpoints of the transition.
  // Candidates continue the fault-injection scope numbering after the
  // samples; a failed candidate simply counts as no-improvement.  Keys
  // are transition-content keys, so a candidate revisited by the walk (or
  // by a resumed run) replays instead of re-running.
  std::size_t cand_index = sampled.size();
  bool improved = true;
  int rounds = 0;
  while (improved && rounds++ < 32 && !run.cancel.requested()) {
    improved = false;
    for (int side = 0; side < 2; ++side) {
      for (int bit = 0; bit < n; ++bit) {
        VectorPair cand = best;
        auto& vec = (side == 0) ? cand.v0 : cand.v1;
        vec[static_cast<std::size_t>(bit)] = !vec[static_cast<std::size_t>(bit)];
        const ItemKeys key = run.checkpoint != nullptr ? ItemKeys(context, {cand}) : ItemKeys();
        const Outcome<double> s =
            run_item_committed<double>(run, cand_index, key, [&] { return score(cand); });
        if (!run.keep(cand_index++, s)) continue;
        if (sink != nullptr) sink->on_value(sink_key(cand), *s.value);
        if (*s.value > best_score) {
          best_score = *s.value;
          best = std::move(cand);
          improved = true;
        }
      }
    }
  }

  // The winner's baseline is an item too, so a rerun over a finished
  // journal replays it; a failed or cancelled item falls back to the
  // plain call, which throws the failure.
  const ItemKeys base_key =
      run.checkpoint != nullptr
          ? ItemKeys(run.checkpoint->context(checkpoint_prefix_nowl(
                         "search-baseline", backend.name(),
                         netlist_fingerprint(backend.netlist(), backend.outputs()))),
                     {best})
          : ItemKeys();
  const Outcome<double> base = run_item_committed<double>(
      run, cand_index, base_key, [&] { return backend.delay_baseline(best); });
  VectorDelay out;
  out.pair = best;
  out.delay_mtcmos = best_score;
  out.delay_cmos = base.ok() ? *base.value : backend.delay_baseline(best);
  out.degradation_pct = (out.delay_cmos > 0.0)
                            ? (out.delay_mtcmos - out.delay_cmos) / out.delay_cmos * 100.0
                            : -1.0;
  if (sink != nullptr) sink->flush();
  return out;
}

std::vector<VectorPair> screen_vectors(const netlist::Netlist& nl,
                                       std::vector<VectorPair> candidates, std::size_t keep,
                                       const EvalSession& session) {
  require(keep >= 1, "screen_vectors: keep must be >= 1");
  const RunContext run(session);
  ResultSink* sink = session.sink;
  std::string prefix;
  if (run.needs_keys(sink)) {
    // Logic-level screening involves no backend: key on the bare netlist.
    prefix = checkpoint_prefix_nowl("screen", "logic", netlist_fingerprint(nl, {}));
  }
  const ItemKeys keys = pass_keys(run.checkpoint, prefix, candidates.data(), candidates.size());
  SinkKeys sink_key(sink, prefix);
  // Grouped dispatch: falling_discharge_weight is cheap relative to a
  // pool task handoff, so each task takes one commit group of candidates,
  // with no kernel and so no memo.  Slots stay index-addressed and
  // run_item still runs per item (scope stamps, checkpoint keys
  // unchanged), so the ranking is identical for any thread count or
  // group size.
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(candidates.size());
  run_chunks<double>(
      run, keys, std::min(session.batch == 0 ? kDefaultBatch : session.batch, kMaxCommitGroup),
      candidates.size(), [](std::size_t, std::size_t, const std::vector<char>&) { return 0; },
      [&](int, std::size_t i) { return falling_discharge_weight(nl, candidates[i]); },
      [&](std::size_t i, const Outcome<double>& o) {
        if (!run.keep(i, o)) return;
        if (sink != nullptr) sink->on_value(sink_key(candidates[i]), *o.value);
        scored.emplace_back(*o.value, i);
      });
  if (sink != nullptr) sink->flush();
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<VectorPair> out;
  for (std::size_t i = 0; i < keep && i < scored.size(); ++i) {
    out.push_back(std::move(candidates[scored[i].second]));
  }
  return out;
}

VerifyResult verify_sizing(const EvalBackend& fast, const EvalBackend& reference,
                           const SizingResult& result, double target_pct,
                           const EvalSession& session) {
  const RunContext run(session);
  const VectorPair& vp = result.binding_vector;
  require(!vp.v0.empty() && vp.v0.size() == vp.v1.size(),
          "verify_sizing: result carries no binding vector");

  VerifyResult out;
  out.wl = result.wl;
  out.ok = true;

  // Four measurements, item-indexed 0..3 so fault-injection plans and the
  // session report can address each one.
  struct Probe {
    const EvalBackend* backend;
    bool baseline;
    double* slot;
  };
  const Probe probes[] = {
      {&fast, true, &out.fast_baseline_delay},
      {&fast, false, &out.fast_delay},
      {&reference, true, &out.reference_baseline_delay},
      {&reference, false, &out.reference_delay},
  };
  ResultSink* sink = session.sink;
  for (std::size_t i = 0; i < 4; ++i) {
    const Probe& p = probes[i];
    std::string prefix;
    if (run.needs_keys(sink)) {
      prefix = checkpoint_prefix(p.baseline ? "verify-baseline" : "verify-wl", p.backend->name(),
                                 netlist_fingerprint(p.backend->netlist(), p.backend->outputs()),
                                 result.wl);
    }
    const ItemKeys key =
        run.checkpoint != nullptr ? ItemKeys(run.checkpoint->context(prefix), {vp}) : ItemKeys();
    const Outcome<double> o = run_item_committed<double>(run, i, key, [&] {
      return p.baseline ? p.backend->delay_baseline(vp)
                        : p.backend->delay_at_wl(vp, result.wl);
    });
    if (!run.keep(i, o)) {
      if (out.ok) {
        out.ok = false;
        out.failure = o.failure;
      }
      continue;
    }
    if (sink != nullptr) sink->on_value(SinkKeys(sink, prefix)(vp), *o.value);
    *p.slot = *o.value;
  }
  if (sink != nullptr) sink->flush();

  auto degradation = [](double base, double at_wl) {
    return (base > 0.0 && at_wl > 0.0) ? (at_wl - base) / base * 100.0 : -1.0;
  };
  out.fast_degradation_pct = degradation(out.fast_baseline_delay, out.fast_delay);
  out.reference_degradation_pct =
      degradation(out.reference_baseline_delay, out.reference_delay);
  if (out.ok && (out.fast_degradation_pct < 0.0 || out.reference_degradation_pct < 0.0)) {
    out.ok = false;
    out.failure = {FailureCode::kUnknown, "verify_sizing",
                   "binding vector does not toggle the outputs on both backends"};
  }
  if (out.ok) {
    out.delta_pct = out.reference_degradation_pct - out.fast_degradation_pct;
    out.reference_meets_target =
        target_pct > 0.0 && out.reference_degradation_pct <= target_pct;
  }
  return out;
}

}  // namespace mtcmos::sizing
