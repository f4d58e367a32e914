#include "sizing/campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "circuits/generators.hpp"
#include "models/sleep_transistor.hpp"
#include "netlist/io.hpp"
#include "sizing/result_sink.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mtcmos::sizing {

namespace {

namespace fs = std::filesystem;

using util::JsonPtr;
using util::JsonValue;

/// Largest chunk a spec may ask for: every integer up to it is exact in a
/// double, and a vector count (an int) plus it cannot overflow size_t.
constexpr double kMaxChunk = 0x1p53;

/// Reject spec keys that are not in `allowed`: a typo'd field must fail
/// loudly, not silently fall back to a default.
void check_keys(const JsonValue& obj, const std::vector<std::string>& allowed,
                const char* what) {
  for (const std::string& key : obj.object_keys()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw std::invalid_argument(std::string("campaign spec: unknown ") + what + " field '" +
                                  key + "'");
    }
  }
}

/// Re-bind `src` to technology `t` preserving net-id creation order,
/// input order, gate order, and device widths, so corner circuits share
/// vector semantics (and therefore row keys) with the nominal one.
netlist::Netlist retech(const netlist::Netlist& src, const Technology& t) {
  netlist::Netlist out(t);
  for (netlist::NetId id = 0; id < src.net_count(); ++id) out.net(src.net_name(id));
  for (const netlist::NetId id : src.inputs()) out.add_input(src.net_name(id));
  for (const netlist::Gate& g : src.gates()) {
    out.add_gate(g.name, g.pulldown, g.fanins, g.output, g.wn, g.wp);
  }
  for (netlist::NetId id = 0; id < src.net_count(); ++id) {
    const double cap = src.extra_load(id);
    if (cap > 0.0) out.add_load(id, cap);
  }
  return out;
}

/// A generated circuit observed at `outs`.
CornerCircuit observed(netlist::Netlist nl, const std::vector<netlist::NetId>& outs) {
  std::vector<std::string> names;
  for (const netlist::NetId id : outs) names.push_back(nl.net_name(id));
  return {std::move(nl), std::move(names)};
}

/// The builtin circuits: "builtin:<family>N" for N in [min_n, max_n],
/// generated on the family's paper process.
struct Builtin {
  const char* family;
  int min_n, max_n;
  Technology (*nominal)();
  CornerCircuit (*make)(const Technology&, int);
};

constexpr Builtin kBuiltins[] = {
    {"adder", 1, 4, tech07,  // ripple-carry adder (Section 6.2): sum bits, then carry-out
     [](const Technology& t, int n) {
       auto adder = circuits::make_ripple_adder(t, n);
       std::vector<netlist::NetId> outs = adder.sum;
       outs.push_back(adder.cout);
       return observed(std::move(adder.netlist), outs);
     }},
    {"mult", 2, 4, tech03,  // carry-save array multiplier: product bits
     [](const Technology& t, int n) {
       auto mult = circuits::make_csa_multiplier(t, n);
       return observed(std::move(mult.netlist), mult.p);
     }},
    {"wallace", 2, 4, tech03,  // Wallace-tree multiplier: product bits
     [](const Technology& t, int n) {
       auto mult = circuits::make_wallace_multiplier(t, n);
       return observed(std::move(mult.netlist), mult.p);
     }},
};

/// The kBuiltins row and N that `circuit` names; {nullptr, 0} when it is
/// not "builtin:...".  Throws std::invalid_argument for an unknown builtin
/// or one outside its family's N range.
std::pair<const Builtin*, int> find_builtin(const std::string& circuit) {
  const std::string prefix = "builtin:";
  if (circuit.rfind(prefix, 0) != 0) return {nullptr, 0};
  const std::string name = circuit.substr(prefix.size());
  for (const Builtin& b : kBuiltins) {
    const std::string family(b.family);
    if (name.rfind(family, 0) != 0) continue;
    const std::string digits = name.substr(family.size());
    if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) continue;
    // More digits than any range holds is out of range, not an overflow.
    const int n = digits.size() > 3 ? b.max_n + 1 : std::stoi(digits);
    if (n < b.min_n || n > b.max_n) {
      throw std::invalid_argument("circuit: builtin:" + family + "N supports N = " +
                                  std::to_string(b.min_n) + ".." + std::to_string(b.max_n));
    }
    return {&b, n};
  }
  throw std::invalid_argument("circuit: unknown builtin '" + name +
                              "' (supported: adderN, multN, wallaceN)");
}

}  // namespace

Technology corner_technology(const Technology& nominal, const CampaignCorner& corner) {
  require(corner.vdd_scale > 0.0, "corner_technology: vdd_scale must be positive");
  require(corner.kp_scale > 0.0, "corner_technology: kp_scale must be positive");
  require(corner.temp >= 0.0, "corner_technology: temperature must be >= 0 K");
  Technology t = nominal;
  t.vdd *= corner.vdd_scale;
  // Same clamps as the Monte-Carlo sampler (variation.cpp): thresholds
  // stay physical, kp never collapses past half nominal.
  t.nmos_low.vt0 = std::max(0.01, t.nmos_low.vt0 + corner.vt_low_shift);
  t.pmos_low.vt0 = std::max(0.01, t.pmos_low.vt0 + corner.vt_low_shift);
  t.nmos_high.vt0 = std::max(0.05, t.nmos_high.vt0 + corner.vt_high_shift);
  t.pmos_high.vt0 = std::max(0.05, t.pmos_high.vt0 + corner.vt_high_shift);
  const double kp_scale = std::max(0.5, corner.kp_scale);
  t.nmos_low.kp *= kp_scale;
  t.pmos_low.kp *= kp_scale;
  t.nmos_high.kp *= kp_scale;
  t.pmos_high.kp *= kp_scale;
  if (corner.temp > 0.0) {
    t.nmos_low.temp = corner.temp;
    t.pmos_low.temp = corner.temp;
    t.nmos_high.temp = corner.temp;
    t.pmos_high.temp = corner.temp;
  }
  require(t.vdd > t.nmos_high.vt0 + 0.05,
          "corner_technology: corner '" + corner.name +
              "' pushes Vt,high too close to Vdd; relax vdd_scale or vt_high_shift");
  return t;
}

CampaignSpec CampaignSpec::parse(const std::string& json_text) {
  const JsonPtr root = util::parse_json(json_text);
  if (!root->is_object()) throw std::invalid_argument("campaign spec: root must be an object");
  check_keys(*root, {"circuit", "backend", "target_pct", "wl_grid", "corners", "vectors", "chunk"},
             "spec");

  CampaignSpec spec;
  spec.circuit = root->require("circuit")->as_string();
  spec.backend = root->string_or("backend", "vbs");
  if (spec.backend != "vbs" && spec.backend != "spice") {
    throw std::invalid_argument("campaign spec: backend must be \"vbs\" or \"spice\", got \"" +
                                spec.backend + "\"");
  }
  spec.target_pct = root->number_or("target_pct", 5.0);
  if (!(spec.target_pct > 0.0)) {
    throw std::invalid_argument("campaign spec: target_pct must be positive");
  }

  for (const JsonPtr& wl : root->require("wl_grid")->as_array()) {
    spec.wl_grid.push_back(wl->as_number());
  }
  if (spec.wl_grid.empty()) throw std::invalid_argument("campaign spec: wl_grid is empty");
  for (std::size_t i = 0; i < spec.wl_grid.size(); ++i) {
    if (!(spec.wl_grid[i] > 0.0) || (i > 0 && spec.wl_grid[i] <= spec.wl_grid[i - 1])) {
      throw std::invalid_argument(
          "campaign spec: wl_grid must be positive and strictly ascending");
    }
  }

  if (const JsonPtr corners = root->get("corners")) {
    for (const JsonPtr& c : corners->as_array()) {
      check_keys(*c, {"name", "vdd_scale", "vt_low_shift", "vt_high_shift", "kp_scale", "temp"},
                 "corner");
      CampaignCorner corner;
      corner.name = c->require("name")->as_string();
      if (corner.name.empty()) throw std::invalid_argument("campaign spec: corner name is empty");
      corner.vdd_scale = c->number_or("vdd_scale", 1.0);
      corner.vt_low_shift = c->number_or("vt_low_shift", 0.0);
      corner.vt_high_shift = c->number_or("vt_high_shift", 0.0);
      corner.kp_scale = c->number_or("kp_scale", 1.0);
      corner.temp = c->number_or("temp", 0.0);
      for (const CampaignCorner& prev : spec.corners) {
        if (prev.name == corner.name) {
          throw std::invalid_argument("campaign spec: duplicate corner name '" + corner.name +
                                      "'");
        }
      }
      spec.corners.push_back(std::move(corner));
    }
  }
  if (spec.corners.empty()) spec.corners.push_back({"nominal"});

  if (const JsonPtr vec = root->get("vectors")) {
    check_keys(*vec, {"mode", "count", "seed"}, "vectors");
    const std::string mode = vec->string_or("mode", "exhaustive");
    if (mode == "exhaustive") {
      spec.vector_mode = VectorMode::kExhaustive;
    } else if (mode == "sampled") {
      spec.vector_mode = VectorMode::kSampled;
      spec.sample_count = vec->integer_or("count", 0);
      if (spec.sample_count < 1) {
        throw std::invalid_argument("campaign spec: sampled vectors need a positive count");
      }
      spec.seed = vec->integer_or<std::uint64_t>("seed", 1);
    } else {
      throw std::invalid_argument("campaign spec: vectors.mode must be \"exhaustive\" or "
                                  "\"sampled\", got \"" + mode + "\"");
    }
  }

  const double chunk = root->number_or("chunk", 2048.0);
  if (!(chunk >= 1.0 && chunk <= kMaxChunk) || chunk != std::floor(chunk)) {
    throw std::invalid_argument("campaign spec: chunk must be an integer in [1, " +
                                util::json_double(kMaxChunk) + "]");
  }
  spec.chunk = static_cast<std::size_t>(chunk);
  return spec;
}

CampaignSpec CampaignSpec::parse_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("campaign spec: cannot open " + path);
  std::stringstream buf;
  buf << is.rdbuf();
  try {
    return parse(buf.str());
  } catch (const std::exception& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::string CampaignSpec::canonical() const {
  // One deterministic line: the resume guard.  json_double keeps every
  // numeric exact, so editing any field -- even in the last ulp --
  // changes the guard.
  std::string out = "circuit=" + circuit + ";backend=" + backend +
                    ";target=" + util::json_double(target_pct) + ";wl=[";
  for (std::size_t i = 0; i < wl_grid.size(); ++i) {
    if (i != 0) out += ",";
    out += util::json_double(wl_grid[i]);
  }
  out += "];corners=[";
  for (std::size_t i = 0; i < corners.size(); ++i) {
    const CampaignCorner& c = corners[i];
    if (i != 0) out += ",";
    out += c.name + ":" + util::json_double(c.vdd_scale) + ":" +
           util::json_double(c.vt_low_shift) + ":" + util::json_double(c.vt_high_shift) + ":" +
           util::json_double(c.kp_scale) + ":" + util::json_double(c.temp);
  }
  out += "];vectors=";
  if (vector_mode == VectorMode::kExhaustive) {
    out += "exhaustive";
  } else {
    out += "sampled:" + std::to_string(sample_count) + ":" + std::to_string(seed);
  }
  out += ";chunk=" + std::to_string(chunk);
  return out;
}

Technology campaign_nominal_tech(const std::string& circuit) {
  if (const Builtin* builtin = find_builtin(circuit).first) return builtin->nominal();
  return netlist::read_netlist_file(circuit).nl.tech();
}

CornerCircuit build_campaign_circuit(const std::string& circuit, const Technology* tech) {
  if (const auto [builtin, n] = find_builtin(circuit); builtin != nullptr) {
    return builtin->make(tech != nullptr ? *tech : builtin->nominal(), n);
  }
  return campaign_circuit_from(circuit, netlist::read_netlist_file(circuit), tech);
}

CornerCircuit campaign_circuit_from(const std::string& circuit, netlist::ParsedNetlist parsed,
                                    const Technology* tech) {
  if (parsed.outputs.empty()) {
    throw std::invalid_argument("circuit: " + circuit + " declares no `output` nets");
  }
  if (tech != nullptr) {
    return {retech(parsed.nl, *tech), std::move(parsed.outputs)};
  }
  return {std::move(parsed.nl), std::move(parsed.outputs)};
}

Evaluator::Evaluator(CornerCircuit circuit, const std::string& backend)
    : circuit_(std::move(circuit)) {
  if (backend == "vbs") {
    backend_ = std::make_unique<VbsBackend>(circuit_.nl, circuit_.outputs);
  } else if (backend == "spice") {
    backend_ = std::make_unique<SpiceBackend>(circuit_.nl, circuit_.outputs);
  } else {
    throw std::invalid_argument("unknown backend '" + backend + "' (expected vbs or spice)");
  }
}

namespace {

/// ColumnarSpillSink whose flush() is a no-op: the chunk driver decides
/// between commit (writer sync, then journal record) and abandon
/// (writer discard) *after* inspecting the chunk's health, so a
/// cancelled or failed chunk never leaves a partial block behind.  The
/// chunk's tag is set at its first row: the writer still buffers the
/// previous chunk until that chunk's commit.
class ChunkSink final : public ResultSink {
 public:
  ChunkSink(util::ColumnarWriter& writer, std::uint64_t tag) : spill_(writer), tag_(tag) {}
  bool wants_keys() const override { return true; }
  void on_delay(const std::string& key, const VectorDelay& row) override {
    tag();
    spill_.on_delay(key, row);
  }
  void on_value(const std::string& key, double value) override {
    tag();
    spill_.on_value(key, value);
  }
  void flush() override {}

 private:
  void tag() {
    if (tagged_) return;
    spill_.writer().set_tag(tag_);
    tagged_ = true;
  }

  ColumnarSpillSink spill_;
  std::uint64_t tag_;
  bool tagged_ = false;
};

}  // namespace

CampaignDriver::CampaignDriver(CampaignSpec spec, std::string dir, bool resume)
    : spec_(std::move(spec)), dir_(std::move(dir)) {
  fs::create_directories(dir_);
  journal_path_ = (fs::path(dir_) / "campaign.mtj").string();
  store_path_ = (fs::path(dir_) / "campaign.mtc").string();
  ckpt_.open(journal_path_);
  if (!resume && ckpt_.journal().size() > 0) {
    throw std::invalid_argument(journal_path_ + " already holds " +
                                std::to_string(ckpt_.journal().size()) +
                                " records; resume that campaign or use a fresh directory");
  }
  ckpt_.bind_meta("campaign", spec_.canonical());

  nominal_ = std::make_unique<const CornerCircuit>(build_campaign_circuit(spec_.circuit, nullptr));
  // The spec names a .mtn file by path only: bind its contents too, so a
  // resume over an edited netlist is refused instead of mixing the rows
  // of two circuits in one table.
  ckpt_.bind_meta("campaign-netlist",
                  util::hex16(netlist_fingerprint(nominal_->nl, nominal_->outputs)));
  const int n_in = static_cast<int>(nominal_->nl.inputs().size());
  if (spec_.vector_mode == CampaignSpec::VectorMode::kExhaustive) {
    if (n_in > kMaxExhaustiveInputs) {
      throw std::invalid_argument(
          "campaign: exhaustive vectors need <= " + std::to_string(kMaxExhaustiveInputs) +
          " inputs (" + std::to_string(n_in) +
          " declared); use {\"mode\": \"sampled\", \"count\": N}");
    }
    vectors_ = all_vector_pairs(n_in);
  } else {
    Rng rng(spec_.seed);
    vectors_ = sampled_vector_pairs(n_in, spec_.sample_count, rng);
  }
  chunks_per_sweep_ = (vectors_.size() + spec_.chunk - 1) / spec_.chunk;
  n_chunks_ = chunks_per_sweep_ * spec_.wl_grid.size() * spec_.corners.size();

  // One row more than a chunk holds: a block is written only by its
  // chunk's commit, never by the writer filling up, so a chunk the run
  // stops at leaves no block even when every one of its rows was emitted.
  util::ColumnarOptions copts;
  copts.rows_per_block = spec_.chunk + 1;
  store_.open(store_path_, copts);
}

CampaignDriver::ChunkPlan CampaignDriver::plan(std::size_t chunk_id) const {
  ChunkPlan p;
  const std::size_t sweep = chunk_id / chunks_per_sweep_;
  const std::size_t within = chunk_id % chunks_per_sweep_;
  p.corner = sweep / spec_.wl_grid.size();
  p.wl_idx = sweep % spec_.wl_grid.size();
  p.begin = within * spec_.chunk;
  p.end = std::min(p.begin + spec_.chunk, vectors_.size());
  return p;
}

std::string CampaignDriver::chunk_key(std::size_t chunk_id) {
  // Chunk geometry is a pure function of the spec, and the spec is bound
  // into the journal as meta -- so the ordinal is content-derived in
  // context, like "probe 3 of this exact bisection".
  return "chunk:" + std::to_string(chunk_id);
}

std::shared_ptr<const Evaluator> CampaignDriver::corner_evaluator(std::size_t corner) {
  const std::lock_guard<std::mutex> lock(corner_mutex_);
  if (corner_ != nullptr && cached_corner_ == corner) return corner_;
  corner_.reset();
  // Every corner is re-bound from the circuit built (and fingerprinted)
  // at construction; a .mtn file is not read again.
  const Technology t = corner_technology(nominal_->nl.tech(), spec_.corners[corner]);
  corner_ = std::make_shared<const Evaluator>(
      CornerCircuit{retech(nominal_->nl, t), nominal_->outputs}, spec_.backend);
  cached_corner_ = corner;
  return corner_;
}

void CampaignDriver::run_chunks(const std::vector<std::size_t>& ids, Checkpoint& ckpt,
                                util::ColumnarWriter& store, SweepReport* report,
                                util::CancelToken* cancel, util::ThreadPool* pool) {
  util::CancelToken& tok = cancel != nullptr ? *cancel : util::CancelToken::global();
  // One pass per chunk.  Block discipline: one tag, rows buffered by the
  // no-op-flush sink, committed by close() only if the chunk ran to
  // completion -- and the block is written and synced strictly before
  // the journal record, so a journaled chunk always has its rows, also
  // after a power loss.
  struct Chunk {
    Chunk(util::ColumnarWriter& store, std::size_t id, std::shared_ptr<const Evaluator> corner)
        : sink(store, id), corner(std::move(corner)) {}
    ChunkSink sink;
    SweepReport report;
    std::shared_ptr<const Evaluator> corner;
  };
  class Passes final : public RankPasses {
   public:
    Passes(CampaignDriver& driver, const std::vector<std::size_t>& ids, Checkpoint& ckpt,
           util::ColumnarWriter& store, SweepReport* report, util::CancelToken& tok)
        : d_(driver), ids_(ids), ckpt_(ckpt), store_(store), report_(report), tok_(tok),
          chunks_(ids.size()) {}

    RankPass open(std::size_t k) override {
      const ChunkPlan p = d_.plan(ids_[k]);
      chunks_[k] = std::make_unique<Chunk>(store_, ids_[k], d_.corner_evaluator(p.corner));
      Chunk& c = *chunks_[k];
      return {&c.corner->backend(), d_.vectors_.data() + p.begin, d_.spec_.wl_grid[p.wl_idx],
              &c.sink, &c.report};
    }

    bool close(std::size_t k, std::size_t rows) override {
      const std::unique_ptr<Chunk> c = std::move(chunks_[k]);
      const auto cancelled = static_cast<std::size_t>(FailureCode::kCancelled);
      const bool interrupted =
          tok_.requested() ||
          (c->report.code_counts.size() > cancelled && c->report.code_counts[cancelled] > 0);
      if (report_ != nullptr) report_->merge(c->report);
      if (interrupted) {
        store_.discard();
        return false;
      }
      store_.sync();
      ckpt_.record(chunk_key(ids_[k]), Outcome<double>::success(static_cast<double>(rows)));
      return true;
    }

   private:
    CampaignDriver& d_;
    const std::vector<std::size_t>& ids_;
    Checkpoint& ckpt_;
    util::ColumnarWriter& store_;
    SweepReport* const report_;
    util::CancelToken& tok_;
    std::vector<std::unique_ptr<Chunk>> chunks_;  ///< slot k lives from open(k) to close(k)
  } passes(*this, ids, ckpt, store, report, tok);

  std::vector<std::size_t> sizes(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const ChunkPlan p = plan(ids[k]);
    sizes[k] = p.end - p.begin;
  }
  EvalSession session;
  session.pool = pool;
  session.cancel_token = cancel;
  try {
    rank_vectors_passes(sizes, passes, session);
  } catch (...) {
    // Rows stream into the block while the chunk computes, so a pass that
    // throws leaves part of a chunk buffered: drop it like a cancelled
    // chunk's, or close() would flush a partial block under the chunk's tag.
    store.discard();
    throw;
  }
}

std::size_t CampaignDriver::chunks_done() const {
  std::size_t done = 0;
  for (std::size_t c = 0; c < n_chunks_; ++c) {
    if (ckpt_.journal().contains(chunk_key(c))) ++done;
  }
  return done;
}

CampaignStats CampaignDriver::run(int shards, SweepReport* report, util::CancelToken* cancel,
                                  util::ThreadPool* pool) {
  CampaignStats st;
  st.chunks_total = n_chunks_;
  std::vector<char> replayed(n_chunks_, 0);
  for (std::size_t c = 0; c < n_chunks_; ++c) {
    if (ckpt_.journal().contains(chunk_key(c))) {
      ++st.chunks_replayed;
      replayed[c] = 1;
    }
  }

  util::CancelToken& tok = cancel != nullptr ? *cancel : util::CancelToken::global();
  if (shards > 1 && !tok.requested()) {
    SupervisorOptions sopt;
    sopt.shards = shards;
    sopt.dir = (fs::path(dir_) / "shards").string();
    sopt.cancel_token = cancel;
    // Runs inside a forked worker: its own lazily built corner backends
    // (this object was copied by the fork), a 1-thread inline pool, and
    // the worker's private shard journal + store.  Per-item health inside
    // a chunk is not reported back -- only the chunk's row count survives
    // in its journal record.
    const auto run_one = [this, cancel](std::size_t c, Checkpoint& ckpt,
                                        util::ColumnarWriter* columnar) {
      util::ThreadPool inline_pool(1);
      run_chunks({c}, ckpt, *columnar, nullptr, cancel, &inline_pool);
    };
    st.supervisor =
        supervise(sopt, n_chunks_, run_one,
                  [](std::size_t c) { return Checkpoint::Key(chunk_key(c)); }, ckpt_, &store_);
  }
  // The in-process pass finishes whatever is still unjournaled, exactly
  // as a resume does: the whole campaign, or what the workers left.
  std::vector<std::size_t> remaining;
  for (std::size_t c = 0; c < n_chunks_; ++c) {
    if (!ckpt_.journal().contains(chunk_key(c))) remaining.push_back(c);
  }
  if (!remaining.empty() && !tok.requested()) {
    run_chunks(remaining, ckpt_, store_, report, cancel, pool);
    const std::lock_guard<std::mutex> lock(corner_mutex_);
    corner_.reset();
  }

  // Final accounting from the journal: each chunk record this call wrote
  // holds the chunk's row count, whichever process committed it.
  for (std::size_t c = 0; c < n_chunks_; ++c) {
    Outcome<double> out;
    if (!ckpt_.lookup(chunk_key(c), out)) continue;
    if (replayed[c] == 0) {
      ++st.chunks_run;
      if (out.ok()) st.rows_emitted += static_cast<std::size_t>(*out.value);
    }
    if (!out.ok() && out.failure.code == FailureCode::kPoisonedItem) ++st.chunks_poisoned;
  }
  st.complete = st.chunks_replayed + st.chunks_run == n_chunks_;
  st.cancelled = tok.requested();
  return st;
}

namespace {

/// Order-independent aggregates of one (corner, W/L) sweep; everything
/// the table prints must be invariant under block arrival order.
struct SweepAgg {
  std::uint64_t rows = 0;
  std::uint64_t switching = 0;
  bool has_worst = false;
  double worst = 0.0;
  std::string worst_key;  ///< lexicographic tie-break on equal worst
  std::array<std::uint64_t, 101> hist{};  ///< floor(pct) clamped to [0, 100]
};

}  // namespace

void CampaignDriver::write_table(std::ostream& os) {
  if (!complete()) {
    throw std::runtime_error("campaign: cannot write the table before every chunk is journaled (" +
                             std::to_string(chunks_done()) + "/" + std::to_string(n_chunks_) +
                             " done)");
  }
  store_.flush();

  const std::size_t n_wl = spec_.wl_grid.size();
  std::vector<SweepAgg> aggs(spec_.corners.size() * n_wl);
  std::vector<char> seen(n_chunks_, 0);
  // First-block-wins across resume/shard duplicates: work units are
  // deterministic, so same-tag blocks are bit-identical and any one of
  // them represents the chunk.
  util::scan_columnar_file(
      store_path_,
      [&](const util::ColumnarRow& row) {
        if (row.n_cols != ColumnarSpillSink::kDelayCols) return;
        SweepAgg& agg = aggs[row.tag / chunks_per_sweep_];
        ++agg.rows;
        const double cmos = row.values[0];
        const double mtcmos = row.values[1];
        if (cmos <= 0.0 || mtcmos <= 0.0) return;  // non-switching transition
        ++agg.switching;
        const double deg = row.values[2];
        const int bin = std::clamp(static_cast<int>(std::floor(deg)), 0, 100);
        ++agg.hist[static_cast<std::size_t>(bin)];
        if (!agg.has_worst || deg > agg.worst ||
            (deg == agg.worst && row.key < agg.worst_key)) {
          agg.has_worst = true;
          agg.worst = deg;
          agg.worst_key.assign(row.key.data(), row.key.size());
        }
      },
      [&](std::uint64_t tag) {
        const std::size_t id = static_cast<std::size_t>(tag);
        if (tag >= n_chunks_ || seen[id] != 0) return false;
        seen[id] = 1;
        return true;
      });

  const Technology& nominal = nominal_->nl.tech();
  os << "{\n";
  os << "  \"format\": \"mtcmos-campaign-table-1\",\n";
  os << "  \"circuit\": " << util::json_string(spec_.circuit) << ",\n";
  os << "  \"backend\": " << util::json_string(spec_.backend) << ",\n";
  os << "  \"target_pct\": " << util::json_double(spec_.target_pct) << ",\n";
  os << "  \"vectors\": " << vectors_.size() << ",\n";
  os << "  \"vector_mode\": "
     << (spec_.vector_mode == CampaignSpec::VectorMode::kExhaustive ? "\"exhaustive\""
                                                                    : "\"sampled\"")
     << ",\n";
  if (spec_.vector_mode == CampaignSpec::VectorMode::kSampled) {
    os << "  \"seed\": " << spec_.seed << ",\n";
  }
  os << "  \"wl_grid\": [";
  for (std::size_t i = 0; i < n_wl; ++i) {
    os << (i != 0 ? ", " : "") << util::json_double(spec_.wl_grid[i]);
  }
  os << "],\n";
  os << "  \"corners\": [\n";
  for (std::size_t ci = 0; ci < spec_.corners.size(); ++ci) {
    const CampaignCorner& corner = spec_.corners[ci];
    const Technology tech = corner_technology(nominal, corner);
    os << "    {\n";
    os << "      \"name\": " << util::json_string(corner.name) << ",\n";
    os << "      \"vdd\": " << util::json_double(tech.vdd) << ",\n";
    os << "      \"temp\": " << util::json_double(tech.nmos_low.temp) << ",\n";
    os << "      \"vt_low\": " << util::json_double(tech.nmos_low.vt0) << ",\n";
    os << "      \"vt_high\": " << util::json_double(tech.nmos_high.vt0) << ",\n";
    os << "      \"wl_curve\": [\n";
    std::size_t sized_idx = n_wl;
    for (std::size_t wi = 0; wi < n_wl; ++wi) {
      const SweepAgg& agg = aggs[ci * n_wl + wi];
      const double wl = spec_.wl_grid[wi];
      if (sized_idx == n_wl && agg.has_worst && agg.worst <= spec_.target_pct) sized_idx = wi;
      os << "        {\n";
      os << "          \"wl\": " << util::json_double(wl) << ",\n";
      os << "          \"reff_ohm\": " << util::json_double(SleepTransistor(tech, wl).reff())
         << ",\n";
      os << "          \"rows\": " << agg.rows << ",\n";
      os << "          \"switching\": " << agg.switching << ",\n";
      os << "          \"failed\": " << (vectors_.size() - agg.rows) << ",\n";
      if (agg.has_worst) {
        VectorPair vp;
        std::string worst_vector = "?";
        if (parse_item_key_transition(agg.worst_key, vp)) {
          worst_vector.clear();
          for (const bool b : vp.v0) worst_vector += b ? '1' : '0';
          worst_vector += "->";
          for (const bool b : vp.v1) worst_vector += b ? '1' : '0';
        }
        os << "          \"worst_pct\": " << util::json_double(agg.worst) << ",\n";
        os << "          \"worst_vector\": " << util::json_string(worst_vector) << ",\n";
      } else {
        os << "          \"worst_pct\": null,\n";
        os << "          \"worst_vector\": null,\n";
      }
      std::size_t hist_end = agg.hist.size();
      while (hist_end > 0 && agg.hist[hist_end - 1] == 0) --hist_end;
      os << "          \"histogram_pct\": [";
      for (std::size_t h = 0; h < hist_end; ++h) os << (h != 0 ? ", " : "") << agg.hist[h];
      os << "]\n";
      os << "        }" << (wi + 1 < n_wl ? "," : "") << "\n";
    }
    os << "      ],\n";
    if (sized_idx < n_wl) {
      os << "      \"sizing\": { \"wl\": " << util::json_double(spec_.wl_grid[sized_idx])
         << ", \"worst_pct\": " << util::json_double(aggs[ci * n_wl + sized_idx].worst)
         << " }\n";
    } else {
      os << "      \"sizing\": null\n";
    }
    os << "    }" << (ci + 1 < spec_.corners.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace mtcmos::sizing
