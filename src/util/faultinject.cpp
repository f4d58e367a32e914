#include "util/faultinject.hpp"

#include <mutex>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mtcmos::faultinject {

namespace {

struct Plan {
  Site site;
  std::int64_t scope;
  int remaining;  ///< hits left to fail; < 0 = hard fault (never exhausts)
  FailureCode code;
  int generation = kAnyGeneration;  ///< process generation pin (kAnyGeneration = any)
};

std::mutex g_mutex;
std::vector<Plan> g_plans;
std::atomic<std::size_t> g_injected{0};
std::atomic<int> g_generation{0};
thread_local std::int64_t t_scope = kAnyScope;

FailureCode default_code(Site site) {
  switch (site) {
    case Site::kNewtonSolve:
      return FailureCode::kNewtonDiverged;
    case Site::kSparseLuFactorize:
      return FailureCode::kSingularMatrix;
    default:
      return FailureCode::kInjected;
  }
}

}  // namespace

const char* to_string(Site site) {
  switch (site) {
    case Site::kSparseLuFactorize: return "sparse-lu-factorize";
    case Site::kNewtonSolve: return "newton-solve";
    case Site::kTransientStep: return "transient-step";
    case Site::kVbsRun: return "vbs-run";
    case Site::kVbsBreakpoint: return "vbs-breakpoint";
    case Site::kSweepItem: return "sweep-item";
    case Site::kJournalAppend: return "journal-append";
    case Site::kColumnarAppend: return "columnar-append";
    case Site::kWorkerAbort: return "worker-abort";
    case Site::kWorkerKill: return "worker-kill";
    case Site::kWorkerStall: return "worker-stall";
    case Site::kWorkerTornTail: return "worker-torn-tail";
    case Site::kDaemonAccept: return "daemon-accept";
    case Site::kDaemonRead: return "daemon-read";
    case Site::kDaemonAckLost: return "daemon-ack-lost";
    case Site::kDaemonWrite: return "daemon-write";
    case Site::kDaemonDrainWindow: return "daemon-drain-window";
  }
  return "unknown-site";
}

void arm(Site site, std::int64_t scope, int fail_hits) {
  arm(site, scope, fail_hits, default_code(site));
}

void arm(Site site, std::int64_t scope, int fail_hits, FailureCode code) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_plans.push_back({site, scope, fail_hits, code, kAnyGeneration});
  detail::g_armed_plans.fetch_add(1, std::memory_order_relaxed);
}

void arm_generation(Site site, std::int64_t scope, int generation, int fail_hits) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_plans.push_back({site, scope, fail_hits, default_code(site), generation});
  detail::g_armed_plans.fetch_add(1, std::memory_order_relaxed);
}

void set_generation(int generation) {
  g_generation.store(generation, std::memory_order_relaxed);
}

int generation() { return g_generation.load(std::memory_order_relaxed); }

void disarm_all() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_plans.clear();
  g_injected.store(0, std::memory_order_relaxed);
  g_generation.store(0, std::memory_order_relaxed);
  detail::g_armed_plans.store(0, std::memory_order_relaxed);
}

bool armed(Site site) {
  if (detail::g_armed_plans.load(std::memory_order_relaxed) == 0) return false;
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (const Plan& plan : g_plans) {
    if (plan.site == site && plan.remaining != 0) return true;
  }
  return false;
}

std::size_t injected_count() { return g_injected.load(std::memory_order_relaxed); }

bool fired(Site site) {
  if (detail::g_armed_plans.load(std::memory_order_relaxed) == 0) return false;
  FailureCode code = FailureCode::kInjected;
  return detail::should_fail_slow(site, code);
}

std::int64_t current_scope() { return t_scope; }

void set_current_scope(std::int64_t scope) { t_scope = scope; }

namespace detail {

std::atomic<int> g_armed_plans{0};

bool should_fail_slow(Site site, FailureCode& code) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  const int gen = g_generation.load(std::memory_order_relaxed);
  for (Plan& plan : g_plans) {
    if (plan.site != site) continue;
    if (plan.scope != kAnyScope && plan.scope != t_scope) continue;
    if (plan.generation != kAnyGeneration && plan.generation != gen) continue;
    if (plan.remaining == 0) continue;  // exhausted
    if (plan.remaining > 0) --plan.remaining;
    code = plan.code;
    g_injected.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void throw_injected(Site site, const char* site_name, FailureCode code) {
  FailureInfo info;
  info.code = code;
  info.site = site_name;
  info.context = std::string("injected fault at ") + to_string(site) + " (scope " +
                 std::to_string(t_scope) + ")";
  throw NumericalError(std::move(info));
}

}  // namespace detail

}  // namespace mtcmos::faultinject
