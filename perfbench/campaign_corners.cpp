// campaign_corners: an in-process CampaignDriver on builtin:mult4 x two
// corners (nominal; slow: vdd 0.9, Vt +0.03/+0.06, kp 0.95, 398 K) x two
// W/L points, chunk 4096, then write_table().  The kernel dominates this
// path and it journals one record per chunk, not per item, so a per-item
// checkpoint change must leave it unmoved.  A second driver resumed on the
// completed directory must run no chunk and write a byte-identical table.
// The vector set is 16384 transitions the seed samples from mult4's 2^16
// (the campaign spec's sampled mode): a full exhaustive campaign takes
// about 3.5 s, and a run reports the median of several smaller ones.

#include <filesystem>
#include <sstream>

#include "sizing/campaign.hpp"
#include "sizing/result_sink.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "util/columnar.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace sz = mtcmos::sizing;

namespace {

struct CampaignUnit {
  double open_s = 0.0;
  double run_s = 0.0;
  double table_s = 0.0;
  double replay_s = 0.0;
  std::size_t rows = 0;
  std::size_t store_bytes = 0;
};

class CampaignWorkload {
 public:
  CampaignWorkload(const RunConfig& cfg, RunResult& r)
      : r_(r), dir_((fs::path(cfg.work_dir) / "campaign").string()) {
    spec_.circuit = cfg.smoke ? "builtin:mult2" : "builtin:mult4";
    spec_.backend = "vbs";
    spec_.target_pct = 5.0;
    spec_.wl_grid = {50.0, 150.0};
    spec_.vector_mode = sz::CampaignSpec::VectorMode::kSampled;
    spec_.sample_count = cfg.smoke ? 256 : 16384;
    spec_.seed = cfg.seed;
    sz::CampaignCorner nominal;
    nominal.name = "nominal";
    sz::CampaignCorner slow;
    slow.name = "slow";
    slow.vdd_scale = 0.9;
    slow.vt_low_shift = 0.03;
    slow.vt_high_shift = 0.06;
    slow.kp_scale = 0.95;
    slow.temp = 398.15;
    spec_.corners = {nominal, slow};
    spec_.chunk = cfg.smoke ? 64 : 4096;
  }

  /// Driver construction on an empty directory: journal + store opened,
  /// spec bound, vector set built.
  double open_only() {
    reset();
    const Clock::time_point t0 = Clock::now();
    { const sz::CampaignDriver driver(spec_, dir_, false); }
    const double s = seconds_since(t0);
    reset();
    return s;
  }

  CampaignUnit unit() {
    CampaignUnit u;
    reset();
    std::string table;
    {
      const Clock::time_point t0 = Clock::now();
      sz::CampaignDriver driver(spec_, dir_, false);
      u.open_s = seconds_since(t0);
      mtcmos::SweepReport report;
      const Clock::time_point t1 = Clock::now();
      const sz::CampaignStats st = driver.run(1, &report, &cancel_);
      u.run_s = seconds_since(t1);
      const Clock::time_point t2 = Clock::now();
      std::ostringstream os;
      driver.write_table(os);
      u.table_s = seconds_since(t2);
      table = os.str();
      u.rows = st.rows_emitted;
      u.store_bytes = file_size(driver.store_path());
      r_.check(st.complete && st.chunks_run == st.chunks_total && report.failed == 0,
               "campaign_corners: every chunk ran without failed items");
      r_.check(u.rows == driver.n_vectors() * spec_.corners.size() * spec_.wl_grid.size(),
               "campaign_corners: one row per (corner, W/L, transition)");
      journal_ = driver.journal_path();
    }
    {
      const Clock::time_point t0 = Clock::now();
      sz::CampaignDriver resumed(spec_, dir_, true);
      const sz::CampaignStats st = resumed.run(1, nullptr, &cancel_);
      std::ostringstream os;
      resumed.write_table(os);
      u.replay_s = seconds_since(t0);
      r_.check(st.chunks_run == 0 && st.chunks_replayed == st.chunks_total,
               "campaign_corners: a resumed driver runs 0 chunks");
      r_.check(os.str() == table, "campaign_corners: resumed table is byte-identical");
    }
    return u;
  }

  /// Time one corner's rebuild outside the driver: corner process,
  /// circuit instance and VBS backend.
  double corner_build_s() const {
    const mtcmos::Technology nominal = sz::campaign_nominal_tech(spec_.circuit);
    double total = 0.0;
    for (const sz::CampaignCorner& c : spec_.corners) {
      const Clock::time_point t0 = Clock::now();
      const mtcmos::Technology t = sz::corner_technology(nominal, c);
      const sz::CornerCircuit cc = sz::build_campaign_circuit(spec_.circuit, &t);
      const sz::VbsBackend backend(cc.nl, cc.outputs);
      total += seconds_since(t0);
    }
    return total;
  }

  /// The driver's chunk body mirrored outside it, wrapped: the first chunk
  /// of every (corner, W/L) sweep through rank_vectors_stream on the
  /// global pool into a columnar spill sink.
  void mirror(Tracer& tracer, std::vector<int>& calls, sz::CacheStats& cache) {
    const mtcmos::Technology nominal = sz::campaign_nominal_tech(spec_.circuit);
    const sz::CornerCircuit nom = sz::build_campaign_circuit(spec_.circuit, nullptr);
    mtcmos::Rng rng(spec_.seed);  // the driver's own draw of the sampled vector set
    std::vector<sz::VectorPair> vectors = sz::sampled_vector_pairs(
        static_cast<int>(nom.nl.inputs().size()), spec_.sample_count, rng);
    vectors.resize(std::min(vectors.size(), spec_.chunk));
    const std::string store = (fs::path(dir_) / "mirror.mtc").string();
    fs::create_directories(dir_);
    mtcmos::util::ColumnarWriter writer;
    mtcmos::util::ColumnarOptions copts;
    copts.rows_per_block = spec_.chunk;
    writer.open(store, copts);
    for (const sz::CampaignCorner& c : spec_.corners) {
      const mtcmos::Technology t = sz::corner_technology(nominal, c);
      const sz::CornerCircuit cc = sz::build_campaign_circuit(spec_.circuit, &t);
      const sz::VbsBackend backend(cc.nl, cc.outputs);
      const TracedBackend traced(backend, tracer, "core");
      for (const double wl : spec_.wl_grid) {
        sz::ColumnarSpillSink spill(writer);
        TracedSink sink(spill, tracer);
        mtcmos::SweepReport report;
        sz::EvalSession session;
        session.report = &report;
        session.sink = &sink;
        session.cancel_token = &cancel_;
        ScopedSpan span(&tracer, "sizing.session.rank_vectors_stream");
        sz::rank_vectors_stream(traced, vectors, wl, session);
        sink.flush();
        calls.push_back(span.id());
      }
      cache = backend.cache_stats();
    }
    writer.close();
  }

  const std::string& journal() const { return journal_; }
  void reset() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

 private:
  RunResult& r_;
  sz::CampaignSpec spec_;
  std::string dir_;
  std::string journal_;
  mtcmos::util::CancelToken cancel_;
};

}  // namespace

void run_campaign_corners(const RunConfig& cfg, RunResult& r) {
  CampaignWorkload w(cfg, r);
  LegSamples legs;
  for (int i = 0; i < kSetupSamples; ++i) legs.setup_s.push_back(w.open_only());
  const ProcSample before = proc_self();

  if (!cfg.traced) {
    UnitBudget budget(cfg.seconds);
    while (budget.another()) {
      const CampaignUnit u = w.unit();
      w.reset();
      legs.setup_s.push_back(u.open_s);
      const double fresh_s = u.run_s + u.table_s;
      legs.fresh_rate.push_back(static_cast<double>(u.rows) / fresh_s);
      legs.replay_rate.push_back(static_cast<double>(u.rows) / u.replay_s);
      legs.fresh_ms.push_back(fresh_s * 1e3);
      legs.replay_ms.push_back(u.replay_s * 1e3);
    }
    set_end_to_end(r, legs, peak_rss_mb_self());
    r.note("campaign_rows_per_s = " + std::to_string(median(legs.fresh_rate)) +
           " rows/s (median of " + std::to_string(budget.units()) + " campaigns)");
    return;
  }

  const CampaignUnit plain = w.unit();
  w.reset();
  const CampaignUnit traced = w.unit();  // the driver has no hook: timed around its calls
  set_proc_metrics(r, before, proc_self());
  r.set("sizing.campaign.open_s", traced.open_s, "s");
  r.set("sizing.campaign.table_s", traced.table_s, "s");
  r.set("sizing.campaign.corner_build_s", w.corner_build_s(), "s");
  r.set("util.columnar.bytes_per_row",
        traced.rows > 0 ? static_cast<double>(traced.store_bytes) / static_cast<double>(traced.rows)
                        : 0.0,
        "B");
  probe_checkpoint(r, w.journal(), (fs::path(cfg.work_dir) / "probe.mtj").string(), 65536);
  r.set("trace.fresh_overhead_pct",
        ((traced.run_s + traced.table_s) / (plain.run_s + plain.table_s) - 1.0) * 100.0, "%");
  r.set("trace.replay_overhead_pct", (traced.replay_s / plain.replay_s - 1.0) * 100.0, "%");
  w.reset();

  Tracer tracer;
  std::vector<int> calls;
  sz::CacheStats cache;
  w.mirror(tracer, calls, cache);
  set_trace_metrics(r, tracer, calls);
  set_cache_metrics(r, cache);
  double call_s = 0.0;
  for (const int id : calls) call_s += tracer.duration_s(id);
  r.set("sizing.session.rank_vectors_stream_s", call_s, "s");
  w.reset();
  write_trace(cfg, tracer, "campaign_corners", r);
}

}  // namespace perfbench
