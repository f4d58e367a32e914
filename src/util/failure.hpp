#pragma once
// Structured failure taxonomy for the numerical layers.
//
// Every solver failure in the toolkit -- a diverging Newton loop, a zero
// pivot, a runaway breakpoint cascade -- is classified by a FailureCode
// and described by a FailureInfo (site, human-readable context, attempt
// count).  NumericalError (util/error.hpp) carries a FailureInfo, so
// batch drivers can triage failures without string matching.
//
// At batch boundaries (a sweep over thousands of vectors) exceptions are
// converted into Outcome<T> slots: either a value or the FailureInfo that
// killed the item, plus how many attempts it took.  SweepReport
// aggregates Outcomes into succeeded/recovered/failed counts and a
// per-recovery-rung histogram -- the shape sweep callers log instead of
// losing a whole batch to one bad item.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mtcmos {

/// Why a numerical method gave up.
enum class FailureCode : std::uint8_t {
  kUnknown = 0,         ///< unclassified (legacy string-only errors)
  kNewtonDiverged,      ///< Newton iteration failed to converge
  kSingularMatrix,      ///< zero/vanishing pivot during factorization
  kTimestepUnderflow,   ///< step halving hit dt_min
  kBreakpointRunaway,   ///< switch-level breakpoint stalled or beyond t_max
  kDeadlineExceeded,    ///< per-run step/breakpoint budget exhausted
  kInjected,            ///< deterministic fault from mtcmos::faultinject
  kCancelled,           ///< cooperative cancellation (signal or EvalSession::cancel)
  kInvalidArgument,     ///< coded precondition failure (degenerate bounds, ...)
  kPoisonedItem,        ///< item quarantined after repeatedly killing worker processes
};

inline const char* to_string(FailureCode code) {
  switch (code) {
    case FailureCode::kUnknown: return "unknown";
    case FailureCode::kNewtonDiverged: return "newton-diverged";
    case FailureCode::kSingularMatrix: return "singular-matrix";
    case FailureCode::kTimestepUnderflow: return "timestep-underflow";
    case FailureCode::kBreakpointRunaway: return "breakpoint-runaway";
    case FailureCode::kDeadlineExceeded: return "deadline-exceeded";
    case FailureCode::kInjected: return "injected";
    case FailureCode::kCancelled: return "cancelled";
    case FailureCode::kInvalidArgument: return "invalid-argument";
    case FailureCode::kPoisonedItem: return "poisoned-item";
  }
  return "unknown";
}

/// Structured description of one numerical failure.
struct FailureInfo {
  FailureCode code = FailureCode::kUnknown;
  std::string site;     ///< where it happened, e.g. "Engine::newton_solve"
  std::string context;  ///< free-form detail (scale, node, budget, ...)
  int attempts = 1;     ///< attempts consumed when this failure became final

  /// One-line rendering used as the NumericalError what() string.
  std::string message() const {
    std::string out;
    if (!site.empty()) out += site + ": ";
    out += context.empty() ? std::string("numerical failure") : context;
    out += std::string(" [") + to_string(code);
    if (attempts > 1) out += ", attempts=" + std::to_string(attempts);
    out += "]";
    return out;
  }
};

/// Value-or-failure slot used at batch boundaries.  Deliberately a plain
/// struct: sweeps fill one per index from worker threads, then reduce
/// serially, so the type must be default-constructible and cheap to move.
template <typename T>
struct Outcome {
  std::optional<T> value;  ///< set iff the item eventually succeeded
  FailureInfo failure;     ///< meaningful only when !ok()
  int attempts = 1;        ///< attempts consumed (success or failure)

  bool ok() const { return value.has_value(); }

  static Outcome success(T v, int attempts_taken = 1) {
    Outcome o;
    o.value = std::move(v);
    o.attempts = attempts_taken;
    return o;
  }
  static Outcome fail(FailureInfo info) {
    Outcome o;
    o.attempts = info.attempts;
    o.failure = std::move(info);
    return o;
  }
};

/// Aggregate health of a fault-isolated sweep.
///
/// `rung_histogram[r]` counts items whose final success came on attempt
/// r + 1 (so rung 0 = first try, rung 1 = first retry/escalation, ...).
/// `failures` preserves item indices in the order the serial reduction
/// visited them, so reports are deterministic for any thread count.
///
/// Retention is bounded: only the first `kMaxFailureDetails` FailureInfo
/// details are kept (a million-item campaign where a corner collapses
/// must not grow an unbounded in-RAM failure list); `failures_dropped`
/// counts the rest.  Counts stay exact regardless -- `failed`, the rung
/// histogram, and the per-code histogram are maintained as counters, so
/// dropping detail never skews a summary.
struct SweepReport {
  std::size_t total = 0;
  std::size_t succeeded = 0;  ///< ok on the first attempt
  std::size_t recovered = 0;  ///< ok after >= 1 retry/escalation
  std::size_t failed = 0;     ///< never ok
  std::vector<std::size_t> rung_histogram;
  std::vector<std::pair<std::size_t, FailureInfo>> failures;
  /// Cap on retained FailureInfo details (not on counts): every failure
  /// of a normal sweep is kept while pathological runs stay bounded.
  static constexpr std::size_t kMaxFailureDetails = 1024;
  /// Failures counted in `failed` but whose details were not retained.
  std::size_t failures_dropped = 0;
  /// Exact per-code failure counts (enum order), independent of retention.
  std::vector<std::size_t> code_counts;

  template <typename T>
  void add(std::size_t index, const Outcome<T>& outcome) {
    ++total;
    if (outcome.ok()) {
      const std::size_t rung =
          outcome.attempts > 0 ? static_cast<std::size_t>(outcome.attempts) - 1 : 0;
      if (rung == 0) {
        ++succeeded;
      } else {
        ++recovered;
      }
      if (rung_histogram.size() <= rung) rung_histogram.resize(rung + 1, 0);
      ++rung_histogram[rung];
    } else {
      ++failed;
      count_code(outcome.failure.code);
      if (failures.size() < kMaxFailureDetails) {
        failures.emplace_back(index, outcome.failure);
      } else {
        ++failures_dropped;
      }
    }
  }

  /// Fold another report into this one (a driver aggregating several
  /// sweep calls -- e.g. one sharded sweep per W/L row -- into one
  /// campaign health report).  Failure indices keep their per-call
  /// meaning, exactly as when one report is reused across calls.  The
  /// merged detail list honors *this* report's cap; counts stay exact.
  void merge(const SweepReport& other) {
    total += other.total;
    succeeded += other.succeeded;
    recovered += other.recovered;
    failed += other.failed;
    if (rung_histogram.size() < other.rung_histogram.size()) {
      rung_histogram.resize(other.rung_histogram.size(), 0);
    }
    for (std::size_t r = 0; r < other.rung_histogram.size(); ++r) {
      rung_histogram[r] += other.rung_histogram[r];
    }
    if (code_counts.size() < other.code_counts.size()) {
      code_counts.resize(other.code_counts.size(), 0);
    }
    for (std::size_t c = 0; c < other.code_counts.size(); ++c) {
      code_counts[c] += other.code_counts[c];
    }
    failures_dropped += other.failures_dropped;
    for (const auto& entry : other.failures) {
      if (failures.size() < kMaxFailureDetails) {
        failures.push_back(entry);
      } else {
        ++failures_dropped;
      }
    }
  }

  /// Failure counts per FailureCode, in enum order, zero-count codes
  /// omitted.  The shape an interrupted run prints so the user can see
  /// what was skipped (cancelled vs genuinely failed) before resuming.
  /// Backed by `code_counts`, so it stays exact past the retention cap.
  std::vector<std::pair<FailureCode, std::size_t>> code_histogram() const {
    std::vector<std::pair<FailureCode, std::size_t>> out;
    for (std::size_t c = 0; c < code_counts.size(); ++c) {
      if (code_counts[c] > 0) out.emplace_back(static_cast<FailureCode>(c), code_counts[c]);
    }
    return out;
  }

  std::string summary() const {
    std::string out = std::to_string(total) + " items: " + std::to_string(succeeded) +
                      " ok, " + std::to_string(recovered) + " recovered, " +
                      std::to_string(failed) + " failed";
    if (!rung_histogram.empty()) {
      out += "; per-rung successes [";
      for (std::size_t r = 0; r < rung_histogram.size(); ++r) {
        if (r != 0) out += ", ";
        out += std::to_string(rung_histogram[r]);
      }
      out += "]";
    }
    if (failures_dropped > 0) {
      out += "; " + std::to_string(failures_dropped) + " failure details dropped (cap " +
             std::to_string(kMaxFailureDetails) + ", counts exact)";
    }
    return out;
  }

 private:
  void count_code(FailureCode code) {
    const auto c = static_cast<std::size_t>(code);
    if (code_counts.size() <= c) code_counts.resize(c + 1, 0);
    ++code_counts[c];
  }
};

}  // namespace mtcmos
