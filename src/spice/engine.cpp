#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mtcmos::spice {

Engine::MosOp Engine::eval_mosfet_op(const Mosfet& m, const std::vector<double>& v) {
  MosOp op;
  op.sign = (m.params.type == MosType::kNmos) ? 1.0 : -1.0;
  const double td = op.sign * v[static_cast<std::size_t>(m.d)];
  const double ts = op.sign * v[static_cast<std::size_t>(m.s)];
  const double tg = op.sign * v[static_cast<std::size_t>(m.g)];
  const double tb = op.sign * v[static_cast<std::size_t>(m.b)];
  double vd = td;
  double vs = ts;
  op.eff_d = m.d;
  op.eff_s = m.s;
  if (vd < vs) {
    std::swap(vd, vs);
    op.eff_d = m.s;
    op.eff_s = m.d;
    op.swapped = true;
  }
  const double vgs = tg - vs;
  const double vds = vd - vs;
  const double vbs = tb - vs;
  op.eval = mos_level1_eval(m.params, m.w, m.l, vgs, vds, vbs);
  return op;
}

Engine::Engine(const Circuit& circuit, double gmin) : ckt_(circuit), gmin_(gmin) {
  require(gmin > 0.0, "Engine: gmin must be positive");
  build_pattern();
}

void Engine::set_gmin(double gmin) {
  require(gmin > 0.0, "Engine::set_gmin: gmin must be positive");
  gmin_ = gmin;
}

void Engine::build_pattern() {
  const int n_nodes = ckt_.node_count();
  unknown_index_.assign(static_cast<std::size_t>(n_nodes), -1);

  std::vector<bool> driven(static_cast<std::size_t>(n_nodes), false);
  driven[kGround] = true;
  for (const VSource& src : ckt_.vsources()) driven[static_cast<std::size_t>(src.node)] = true;

  for (NodeId n = 0; n < n_nodes; ++n) {
    if (!driven[static_cast<std::size_t>(n)]) {
      unknown_index_[static_cast<std::size_t>(n)] = n_unknowns_++;
      unknown_nodes_.push_back(n);
    }
  }
  require(n_unknowns_ > 0, "Engine: circuit has no unknown nodes (everything is driven)");

  auto reserve_pair = [this](NodeId a, NodeId b) {
    if (is_unknown(a)) lu_.reserve_entry(uidx(a), uidx(a));
    if (is_unknown(b)) lu_.reserve_entry(uidx(b), uidx(b));
    if (is_unknown(a) && is_unknown(b)) {
      lu_.reserve_entry(uidx(a), uidx(b));
      lu_.reserve_entry(uidx(b), uidx(a));
    }
  };
  for (const Resistor& r : ckt_.resistors()) reserve_pair(r.a, r.b);
  for (const Capacitor& c : ckt_.capacitors()) reserve_pair(c.a, c.b);
  for (const Mosfet& m : ckt_.mosfets()) {
    const NodeId rows[2] = {m.d, m.s};
    const NodeId cols[4] = {m.d, m.g, m.s, m.b};
    for (NodeId row : rows) {
      if (!is_unknown(row)) continue;
      for (NodeId col : cols) {
        if (is_unknown(col)) lu_.reserve_entry(uidx(row), uidx(col));
      }
    }
  }
  for (int u = 0; u < n_unknowns_; ++u) lu_.reserve_entry(u, u);
  lu_.finalize(n_unknowns_);

  // Cache stamping slots.
  auto pair_slots = [this](NodeId a, NodeId b) {
    TwoNodeSlots s;
    if (is_unknown(a)) s.aa = lu_.slot(uidx(a), uidx(a));
    if (is_unknown(b)) s.bb = lu_.slot(uidx(b), uidx(b));
    if (is_unknown(a) && is_unknown(b)) {
      s.ab = lu_.slot(uidx(a), uidx(b));
      s.ba = lu_.slot(uidx(b), uidx(a));
    }
    return s;
  };
  res_slots_.clear();
  for (const Resistor& r : ckt_.resistors()) res_slots_.push_back(pair_slots(r.a, r.b));
  cap_slots_.clear();
  for (const Capacitor& c : ckt_.capacitors()) cap_slots_.push_back(pair_slots(c.a, c.b));
  mos_slots_.clear();
  for (const Mosfet& m : ckt_.mosfets()) {
    MosSlots s;
    const NodeId rows[2] = {m.d, m.s};
    const NodeId cols[4] = {m.d, m.g, m.s, m.b};
    for (int ri = 0; ri < 2; ++ri) {
      if (!is_unknown(rows[ri])) continue;
      for (int ci = 0; ci < 4; ++ci) {
        if (is_unknown(cols[ci])) s.rows[ri][ci] = lu_.slot(uidx(rows[ri]), uidx(cols[ci]));
      }
    }
    mos_slots_.push_back(s);
  }
  gmin_slots_.clear();
  for (int u = 0; u < n_unknowns_; ++u) gmin_slots_.push_back(lu_.slot(u, u));

  // Newton workspace: sized once, reused by every solve of every run.
  const std::size_t nu = static_cast<std::size_t>(n_unknowns_);
  const std::size_t nn = static_cast<std::size_t>(n_nodes);
  ws_f_.assign(nu, 0.0);
  ws_f_try_.assign(nu, 0.0);
  ws_rhs_.assign(nu, 0.0);
  ws_v_try_.assign(nn, 0.0);
  ws_v_entry_.assign(nn, 0.0);
  ws_step_v_.assign(nn, 0.0);
  ws_zero_caps_.assign(ckt_.capacitors().size(), CapState{});
  mos_cache_.assign(ckt_.mosfets().size(), MosCache{});
  stats_.workspace_bytes = workspace_bytes();
}

std::size_t Engine::workspace_bytes() const {
  const std::size_t doubles = ws_f_.capacity() + ws_f_try_.capacity() + ws_rhs_.capacity() +
                              ws_ax_.capacity() + ws_v_try_.capacity() + ws_v_entry_.capacity() +
                              ws_step_v_.capacity();
  return doubles * sizeof(double) + ws_zero_caps_.capacity() * sizeof(CapState) +
         mos_cache_.capacity() * sizeof(MosCache);
}

void Engine::invalidate_run_caches() {
  for (MosCache& c : mos_cache_) c.valid = false;
  factor_valid_ = false;
}

void Engine::apply_sources(double t, std::vector<double>& v, double scale) const {
  v[kGround] = 0.0;
  for (const VSource& src : ckt_.vsources()) {
    v[static_cast<std::size_t>(src.node)] = scale * src.voltage.sample(t);
  }
}

void Engine::assemble(const std::vector<double>& v, bool transient, double dt, bool use_be,
                      const std::vector<CapState>& caps, double extra_gmin,
                      std::vector<double>& f, bool allow_bypass) {
  lu_.clear_values();
  std::fill(f.begin(), f.end(), 0.0);

  // Shunt conductances to ground (gmin + any homotopy extra).
  const double gshunt = gmin_ + extra_gmin;
  for (int u = 0; u < n_unknowns_; ++u) {
    lu_.add(gmin_slots_[static_cast<std::size_t>(u)], gshunt);
    f[static_cast<std::size_t>(u)] += gshunt * v[static_cast<std::size_t>(unknown_nodes_[static_cast<std::size_t>(u)])];
  }

  // Resistors.
  for (std::size_t i = 0; i < ckt_.resistors().size(); ++i) {
    const Resistor& r = ckt_.resistors()[i];
    const TwoNodeSlots& s = res_slots_[i];
    const double g = 1.0 / r.resistance;
    const double ibr = g * (v[static_cast<std::size_t>(r.a)] - v[static_cast<std::size_t>(r.b)]);
    if (is_unknown(r.a)) {
      f[static_cast<std::size_t>(uidx(r.a))] += ibr;
      lu_.add(s.aa, g);
      if (s.ab >= 0) lu_.add(s.ab, -g);
    }
    if (is_unknown(r.b)) {
      f[static_cast<std::size_t>(uidx(r.b))] -= ibr;
      lu_.add(s.bb, g);
      if (s.ba >= 0) lu_.add(s.ba, -g);
    }
  }

  // Capacitors (transient companion only; open in DC).
  if (transient) {
    for (std::size_t i = 0; i < ckt_.capacitors().size(); ++i) {
      const Capacitor& c = ckt_.capacitors()[i];
      const TwoNodeSlots& s = cap_slots_[i];
      const CapState& st = caps[i];
      const double geq = (use_be ? 1.0 : 2.0) * c.capacitance / dt;
      const double vbr = v[static_cast<std::size_t>(c.a)] - v[static_cast<std::size_t>(c.b)];
      // Trapezoidal: i = geq (vbr - vbr_prev) - i_prev;  BE: i = geq (vbr - vbr_prev).
      const double ibr = geq * (vbr - st.v_branch) - (use_be ? 0.0 : st.i_branch);
      if (is_unknown(c.a)) {
        f[static_cast<std::size_t>(uidx(c.a))] += ibr;
        lu_.add(s.aa, geq);
        if (s.ab >= 0) lu_.add(s.ab, -geq);
      }
      if (is_unknown(c.b)) {
        f[static_cast<std::size_t>(uidx(c.b))] -= ibr;
        lu_.add(s.bb, geq);
        if (s.ba >= 0) lu_.add(s.ba, -geq);
      }
    }
  }

  // Current sources (evaluated at the voltages' implied time by caller --
  // waveform sampling happens outside; DC value used here).
  for (const ISource& src : ckt_.isources()) {
    const double cur = src.current.last_value();  // sources used are DC in this toolkit
    if (is_unknown(src.from)) f[static_cast<std::size_t>(uidx(src.from))] += cur;
    if (is_unknown(src.to)) f[static_cast<std::size_t>(uidx(src.to))] -= cur;
  }

  // MOSFETs.  With bypass active, a device whose four terminal voltages
  // all moved less than bypass_tol since its last Level-1 evaluation is
  // restamped from the cached operating point: the exp/sqrt-heavy model
  // call is skipped, only the (cheap) matrix stamping repeats.
  const bool bypass = allow_bypass && bypass_tol_ > 0.0;
  for (std::size_t i = 0; i < ckt_.mosfets().size(); ++i) {
    const Mosfet& m = ckt_.mosfets()[i];
    const MosSlots& s = mos_slots_[i];
    MosCache& bc = mos_cache_[i];
    const double vd = v[static_cast<std::size_t>(m.d)];
    const double vg = v[static_cast<std::size_t>(m.g)];
    const double vs = v[static_cast<std::size_t>(m.s)];
    const double vb = v[static_cast<std::size_t>(m.b)];
    const MosOp* op_ptr;
    if (bypass && bc.valid && std::abs(vd - bc.vd) < bypass_tol_ &&
        std::abs(vg - bc.vg) < bypass_tol_ && std::abs(vs - bc.vs) < bypass_tol_ &&
        std::abs(vb - bc.vb) < bypass_tol_) {
      ++stats_.bypass_hits;
      op_ptr = &bc.op;
    } else {
      ++stats_.device_evals;
      bc.op = eval_mosfet_op(m, v);
      bc.vd = vd;
      bc.vg = vg;
      bc.vs = vs;
      bc.vb = vb;
      bc.valid = true;
      op_ptr = &bc.op;
    }
    const MosOp& op = *op_ptr;
    const double swap_factor = op.swapped ? -1.0 : 1.0;

    // Current leaving declared drain / source terminals.
    const double i_d = swap_factor * op.sign * op.eval.id;
    if (is_unknown(m.d)) f[static_cast<std::size_t>(uidx(m.d))] += i_d;
    if (is_unknown(m.s)) f[static_cast<std::size_t>(uidx(m.s))] -= i_d;

    // Derivatives of (current leaving declared drain) w.r.t. declared
    // terminal voltages.  The polarity sign cancels (dI/dv ~ sign^2); only
    // the drain/source swap flips the row.
    const double gm = op.eval.gm;
    const double gds = op.eval.gds;
    const double gmbs = op.eval.gmbs;
    const double g_eff_d = gds;
    const double g_eff_s = -(gm + gds + gmbs);
    double dcols[4];  // d, g, s, b
    dcols[1] = swap_factor * gm;
    dcols[3] = swap_factor * gmbs;
    if (!op.swapped) {
      dcols[0] = swap_factor * g_eff_d;
      dcols[2] = swap_factor * g_eff_s;
    } else {
      dcols[0] = swap_factor * g_eff_s;
      dcols[2] = swap_factor * g_eff_d;
    }
    for (int ci = 0; ci < 4; ++ci) {
      if (s.rows[0][ci] >= 0) lu_.add(s.rows[0][ci], dcols[ci]);
      if (s.rows[1][ci] >= 0) lu_.add(s.rows[1][ci], -dcols[ci]);
    }
  }
}

int Engine::newton_solve(std::vector<double>& v, bool transient, double dt, bool use_be,
                         const std::vector<CapState>& caps, double extra_gmin, int max_iter,
                         double vtol, double reltol, double dv_clamp, bool allow_bypass,
                         bool reuse_jacobian) {
  faultinject::check(faultinject::Site::kNewtonSolve, "Engine::newton_solve");
  if (!allow_bypass && !reuse_jacobian) {
    return newton_iterate(v, transient, dt, use_be, caps, extra_gmin, max_iter, vtol, reltol,
                          dv_clamp, false, false);
  }
  // Accelerated attempt first; on non-convergence restore the entry state
  // and retry with plain full Newton, so the step-halving and recovery
  // ladders above see exactly the failure behavior of the unaccelerated
  // engine.
  ws_v_entry_ = v;
  const int iters = newton_iterate(v, transient, dt, use_be, caps, extra_gmin, max_iter, vtol,
                                   reltol, dv_clamp, allow_bypass, reuse_jacobian);
  if (iters >= 0) return iters;
  ++stats_.full_newton_fallbacks;
  v = ws_v_entry_;
  factor_valid_ = false;
  return newton_iterate(v, transient, dt, use_be, caps, extra_gmin, max_iter, vtol, reltol,
                        dv_clamp, false, false);
}

int Engine::newton_iterate(std::vector<double>& v, bool transient, double dt, bool use_be,
                           const std::vector<CapState>& caps, double extra_gmin, int max_iter,
                           double vtol, double reltol, double dv_clamp, bool allow_bypass,
                           bool reuse_jacobian) {
  static const bool debug = std::getenv("MTCMOS_SPICE_DEBUG") != nullptr;

  // Physical voltage window: unknowns are clamped slightly beyond the
  // all-time rail span, which keeps Newton out of the far-field of the
  // exponentials.  Current-source-driven nodes have no a-priori bound, so
  // the window is disabled when the circuit contains current sources.
  double rail_lo = 0.0, rail_hi = 0.0;
  bool have_window = !ckt_.vsources().empty() && ckt_.isources().empty();
  for (const VSource& src : ckt_.vsources()) {
    rail_lo = std::min(rail_lo, src.voltage.min_value());
    rail_hi = std::max(rail_hi, src.voltage.max_value());
  }
  const double v_floor = have_window ? rail_lo - 0.5 : -1e30;
  const double v_ceil = have_window ? rail_hi + 0.5 : 1e30;

  auto l2 = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (double e : x) acc += e * e;
    return std::sqrt(acc);
  };

  assemble(v, transient, dt, use_be, caps, extra_gmin, ws_f_, allow_bypass);
  double fnorm = l2(ws_f_);
  const FactorSig sig{transient, dt, use_be, extra_gmin, gmin_};
  bool refactor_pending = false;
  for (int iter = 1; iter <= max_iter; ++iter) {
    ++stats_.newton_iters;
    for (int u = 0; u < n_unknowns_; ++u) {
      ws_rhs_[static_cast<std::size_t>(u)] = -ws_f_[static_cast<std::size_t>(u)];
    }
    // Modified Newton: keep solving against the last LU snapshot while it
    // matches this system and the iteration keeps contracting; anything
    // else (plain Newton, signature change, detected stall) refactorizes
    // from the freshly stamped Jacobian.
    bool fresh = false;
    if (!reuse_jacobian || !factor_valid_ || !(factor_sig_ == sig) || refactor_pending) {
      lu_.factorize();
      ++stats_.factorizations;
      factor_valid_ = true;
      factor_sig_ = sig;
      refactor_pending = false;
      fresh = true;
    }
    lu_.solve_inplace(ws_rhs_);  // ws_rhs_ now holds the Newton update dv
    ++stats_.solves;
    const std::vector<double>& dv = ws_rhs_;
    double full_step = 0.0;  // undamped step size: the convergence metric
    for (double step : dv) {
      if (!std::isfinite(step)) return -1;
      full_step = std::max(full_step, std::min(std::abs(step), dv_clamp));
    }
    // Accelerated early accept: when the undamped update is already below
    // the convergence tolerance, apply it and return without the
    // line-search verification assemble -- on settled steps this halves
    // the assembles per solve.  Only under the accelerations; the default
    // path keeps the plain engine's assemble-then-check arithmetic
    // bit-for-bit.  A stale-snapshot update still needs the 4x tighter
    // bar (see the stale-accept comment below).
    if (allow_bypass || reuse_jacobian) {
      double scale0 = 0.0;
      for (const NodeId node : unknown_nodes_) {
        scale0 = std::max(scale0, std::abs(v[static_cast<std::size_t>(node)]));
      }
      const double tol0 = vtol + reltol * scale0;
      if (full_step <= (fresh ? tol0 : 0.25 * tol0)) {
        for (int u = 0; u < n_unknowns_; ++u) {
          const double step =
              std::clamp(dv[static_cast<std::size_t>(u)], -dv_clamp, dv_clamp);
          double& vn = v[static_cast<std::size_t>(unknown_nodes_[static_cast<std::size_t>(u)])];
          vn = std::clamp(vn + step, v_floor, v_ceil);
        }
        return iter;
      }
    }
    double lu_rel_err = 0.0;
    const bool diagnose = debug && iter > max_iter - 12;
    if (diagnose) {
      // LU solve quality against the stamped matrix (before the line
      // search re-assembles it): ||A dv - rhs|| / ||rhs||, where rhs = -f.
      // Only computed on the diagnostic tail, so the happy path never
      // pays for the extra multiply.
      lu_.multiply_into(dv, ws_ax_);
      double lu_err = 0.0, rhs_norm = 0.0;
      for (int u = 0; u < n_unknowns_; ++u) {
        const double e = ws_ax_[static_cast<std::size_t>(u)] + ws_f_[static_cast<std::size_t>(u)];
        lu_err += e * e;
        rhs_norm += ws_f_[static_cast<std::size_t>(u)] * ws_f_[static_cast<std::size_t>(u)];
      }
      lu_rel_err = std::sqrt(lu_err / (rhs_norm + 1e-300));
    }

    // Damped update with backtracking on the residual norm: accept the
    // first step fraction that does not blow the residual up; always take
    // the smallest fraction if none improves (escapes flat plateaus).
    const double fnorm_prev = fnorm;
    double max_dv = 0.0;
    double max_scale = 0.0;
    NodeId max_node = kGround;
    const double lambdas[] = {1.0, 0.5, 0.25, 0.1, 0.03};
    for (double lambda : lambdas) {
      ws_v_try_ = v;
      max_dv = 0.0;
      max_scale = 0.0;
      for (int u = 0; u < n_unknowns_; ++u) {
        const double step =
            std::clamp(lambda * dv[static_cast<std::size_t>(u)], -dv_clamp, dv_clamp);
        const NodeId node = unknown_nodes_[static_cast<std::size_t>(u)];
        double& vn = ws_v_try_[static_cast<std::size_t>(node)];
        vn = std::clamp(vn + step, v_floor, v_ceil);
        if (std::abs(step) > max_dv) {
          max_dv = std::abs(step);
          max_node = node;
        }
        max_scale = std::max(max_scale, std::abs(vn));
      }
      assemble(ws_v_try_, transient, dt, use_be, caps, extra_gmin, ws_f_try_, allow_bypass);
      const double fnorm_try = l2(ws_f_try_);
      if (fnorm_try <= fnorm * 1.01 || lambda == lambdas[std::size(lambdas) - 1]) {
        std::swap(v, ws_v_try_);
        std::swap(ws_f_, ws_f_try_);
        fnorm = fnorm_try;
        break;
      }
    }
    if (debug && iter > max_iter - 12) {
      std::cerr << "[newton] iter=" << iter << " full_step=" << full_step << " |f|=" << fnorm
                << " lu_rel_err=" << lu_rel_err << " node=" << ckt_.node_name(max_node)
                << " v=" << v[static_cast<std::size_t>(max_node)] << "\n";
    }
    const double conv_tol = vtol + reltol * max_scale;
    // A stale-snapshot step must clear a 4x tighter bar: the undamped
    // step is only an approximate error estimate when J is reused, so
    // convergence is accepted conservatively.
    if (full_step <= (fresh ? conv_tol : 0.25 * conv_tol)) return iter;
    if (!fresh) {
      if (full_step <= conv_tol) {
        refactor_pending = true;  // nearly converged: certify with a fresh J
      } else if (fnorm > 0.7 * fnorm_prev) {
        refactor_pending = true;  // stalling on a stale J
      }
    }
  }
  return -1;
}

std::vector<double> Engine::dc_operating_point(double at_time,
                                               const std::vector<double>* initial_guess) {
  std::vector<double> v(static_cast<std::size_t>(ckt_.node_count()), 0.0);
  if (initial_guess != nullptr) {
    require(initial_guess->size() == v.size(),
            "Engine::dc_operating_point: initial guess size mismatch");
    v = *initial_guess;
  }
  apply_sources(at_time, v);
  const std::vector<CapState>& no_caps = ws_zero_caps_;

  if (newton_solve(v, /*transient=*/false, 0.0, false, no_caps, /*extra_gmin=*/0.0,
                   /*max_iter=*/100, 1e-6, 1e-4, 0.5) > 0) {
    return v;
  }

  // Fallback 1: gmin stepping homotopy (strong shunt, relaxed gradually).
  auto gmin_ladder = [&]() -> bool {
    for (double extra = 1e-2; extra > 1e-13; extra *= 0.1) {
      if (newton_solve(v, false, 0.0, false, no_caps, extra, 200, 1e-6, 1e-4, 0.5) < 0) {
        return false;
      }
    }
    return newton_solve(v, false, 0.0, false, no_caps, 0.0, 200, 1e-6, 1e-4, 0.5) > 0;
  };
  std::fill(v.begin(), v.end(), 0.0);
  if (initial_guess != nullptr) v = *initial_guess;
  apply_sources(at_time, v);
  if (gmin_ladder()) return v;

  // Fallback 2: pseudo-transient source ramp.  Start from the exact
  // all-off solution (v = 0 with sources at 0), ramp the sources in a
  // backward-Euler transient where the circuit's own capacitances damp
  // Newton, hold to settle, then polish with a plain DC solve.  This is
  // the most robust standard continuation for high-gain logic blocks
  // whose plain Newton limit-cycles between logic states.
  std::fill(v.begin(), v.end(), 0.0);
  std::vector<CapState> caps(ckt_.capacitors().size());
  const double dt = 20e-12;
  const int ramp_steps = 200;
  const int hold_steps = 100;
  for (int step = 1; step <= ramp_steps + hold_steps; ++step) {
    const double scale = std::min(1.0, static_cast<double>(step) / ramp_steps);
    apply_sources(at_time, v, scale);
    if (newton_solve(v, /*transient=*/true, dt, /*use_be=*/true, caps, 1e-12, 100, 1e-6, 1e-4,
                     0.3) < 0) {
      throw NumericalError({FailureCode::kNewtonDiverged, "Engine::dc_operating_point",
                            "pseudo-transient ramp failed at " + residual_context(v, scale)});
    }
    for (std::size_t i = 0; i < ckt_.capacitors().size(); ++i) {
      const Capacitor& c = ckt_.capacitors()[i];
      const double vbr = v[static_cast<std::size_t>(c.a)] - v[static_cast<std::size_t>(c.b)];
      caps[i].i_branch = c.capacitance / dt * (vbr - caps[i].v_branch);
      caps[i].v_branch = vbr;
    }
  }
  apply_sources(at_time, v);
  if (newton_solve(v, false, 0.0, false, no_caps, 0.0, 300, 1e-6, 1e-4, 0.3) < 0) {
    throw NumericalError({FailureCode::kNewtonDiverged, "Engine::dc_operating_point",
                          "final solve failed after pseudo-transient ramp at " +
                              residual_context(v, 1.0)});
  }
  return v;
}

std::string Engine::residual_context(const std::vector<double>& v, double scale) {
  std::vector<double> f(static_cast<std::size_t>(n_unknowns_), 0.0);
  assemble(v, /*transient=*/false, 0.0, false, ws_zero_caps_, /*extra_gmin=*/0.0, f,
           /*allow_bypass=*/false);
  int worst = 0;
  for (int u = 1; u < n_unknowns_; ++u) {
    if (std::abs(f[static_cast<std::size_t>(u)]) > std::abs(f[static_cast<std::size_t>(worst)])) {
      worst = u;
    }
  }
  const NodeId worst_node = unknown_nodes_[static_cast<std::size_t>(worst)];
  return "scale=" + std::to_string(scale) + ", unknowns=" + std::to_string(n_unknowns_) +
         ", worst residual " + std::to_string(f[static_cast<std::size_t>(worst)]) +
         " A at node " + ckt_.node_name(worst_node);
}

double Engine::mosfet_current(const Mosfet& m, const std::vector<double>& v) const {
  const MosOp op = eval_mosfet_op(m, v);
  return (op.swapped ? -1.0 : 1.0) * op.sign * op.eval.id;
}

double Engine::source_current(NodeId node, const std::vector<double>& v,
                              const std::vector<CapState>& caps, double /*t*/) const {
  double out = 0.0;
  for (const Resistor& r : ckt_.resistors()) {
    if (r.a == node) out += (v[static_cast<std::size_t>(r.a)] - v[static_cast<std::size_t>(r.b)]) / r.resistance;
    if (r.b == node) out += (v[static_cast<std::size_t>(r.b)] - v[static_cast<std::size_t>(r.a)]) / r.resistance;
  }
  for (std::size_t i = 0; i < ckt_.capacitors().size(); ++i) {
    const Capacitor& c = ckt_.capacitors()[i];
    if (c.a == node) out += caps[i].i_branch;
    if (c.b == node) out -= caps[i].i_branch;
  }
  for (const Mosfet& m : ckt_.mosfets()) {
    const double ids = mosfet_current(m, v);
    if (m.d == node) out += ids;
    if (m.s == node) out -= ids;
  }
  for (const ISource& src : ckt_.isources()) {
    if (src.from == node) out += src.current.last_value();
    if (src.to == node) out -= src.current.last_value();
  }
  return out;
}

double Engine::dc_device_current(const std::string& name,
                                 const std::vector<double>& voltages) const {
  for (const Resistor& r : ckt_.resistors()) {
    if (r.name == name) {
      return (voltages[static_cast<std::size_t>(r.a)] - voltages[static_cast<std::size_t>(r.b)]) /
             r.resistance;
    }
  }
  for (const Mosfet& m : ckt_.mosfets()) {
    if (m.name == name) return mosfet_current(m, voltages);
  }
  throw std::invalid_argument("Engine::dc_device_current: no resistor/MOSFET named " + name);
}

TransientResult Engine::run_transient(const TransientOptions& options) {
  require(options.tstop > 0.0, "run_transient: tstop must be positive");
  require(options.dt > 0.0 && options.dt <= options.tstop, "run_transient: bad dt");
  require(options.bypass_tol >= 0.0, "run_transient: bypass_tol must be non-negative");

  TransientResult result;

  // A run starts from a clean acceleration state so results depend only
  // on (circuit, options), never on what a previous run left behind.
  invalidate_run_caches();
  bypass_tol_ = options.bypass_tol;
  const bool allow_bypass = options.bypass_tol > 0.0;
  const bool reuse_jacobian = options.jacobian_reuse;

  // Per-run step budget.
  const auto check_budget = [&](double t_now) {
    if (options.max_steps > 0 && result.steps >= options.max_steps) {
      throw NumericalError({FailureCode::kDeadlineExceeded, "Engine::run_transient",
                            "step budget of " + std::to_string(options.max_steps) +
                                " exhausted at t=" + std::to_string(t_now)});
    }
  };

  // Resolve probes.
  std::vector<NodeId> vprobe_nodes;
  std::vector<std::string> vprobe_names;
  if (options.record_all_nodes) {
    for (NodeId n = 1; n < ckt_.node_count(); ++n) {
      vprobe_nodes.push_back(n);
      vprobe_names.push_back(ckt_.node_name(n));
    }
  } else {
    for (const std::string& name : options.voltage_probes) {
      const auto id = ckt_.find_node(name);
      require(id.has_value(), "run_transient: unknown probe node " + name);
      vprobe_nodes.push_back(*id);
      vprobe_names.push_back(name);
    }
  }
  struct CurrentProbe {
    std::string name;
    enum { kResistor, kMosfet, kVsource } kind;
    std::size_t index;
  };
  std::vector<CurrentProbe> iprobes;
  for (const std::string& name : options.current_probes) {
    bool found = false;
    for (std::size_t i = 0; i < ckt_.resistors().size() && !found; ++i) {
      if (ckt_.resistors()[i].name == name) {
        iprobes.push_back({name, CurrentProbe::kResistor, i});
        found = true;
      }
    }
    for (std::size_t i = 0; i < ckt_.mosfets().size() && !found; ++i) {
      if (ckt_.mosfets()[i].name == name) {
        iprobes.push_back({name, CurrentProbe::kMosfet, i});
        found = true;
      }
    }
    for (std::size_t i = 0; i < ckt_.vsources().size() && !found; ++i) {
      if (ckt_.vsources()[i].name == name) {
        iprobes.push_back({name, CurrentProbe::kVsource, i});
        found = true;
      }
    }
    require(found, "run_transient: unknown current probe " + name);
  }

  // Initial condition: DC at t = 0.
  std::vector<double> v = dc_operating_point(
      0.0, options.dc_initial_guess.empty() ? nullptr : &options.dc_initial_guess);
  std::vector<CapState> caps(ckt_.capacitors().size());
  for (std::size_t i = 0; i < ckt_.capacitors().size(); ++i) {
    const Capacitor& c = ckt_.capacitors()[i];
    caps[i].v_branch = v[static_cast<std::size_t>(c.a)] - v[static_cast<std::size_t>(c.b)];
    caps[i].i_branch = 0.0;
  }

  auto record = [&](double t) {
    for (std::size_t i = 0; i < vprobe_nodes.size(); ++i) {
      result.voltages.channel(vprobe_names[i])
          .append(t, v[static_cast<std::size_t>(vprobe_nodes[i])]);
    }
    for (const CurrentProbe& p : iprobes) {
      double cur = 0.0;
      switch (p.kind) {
        case CurrentProbe::kResistor: {
          const Resistor& r = ckt_.resistors()[p.index];
          cur = (v[static_cast<std::size_t>(r.a)] - v[static_cast<std::size_t>(r.b)]) / r.resistance;
          break;
        }
        case CurrentProbe::kMosfet:
          cur = mosfet_current(ckt_.mosfets()[p.index], v);
          break;
        case CurrentProbe::kVsource:
          cur = source_current(ckt_.vsources()[p.index].node, v, caps, t);
          break;
      }
      result.currents.channel(p.name).append(t, cur);
    }
  };
  record(0.0);

  // Recursive step with halving on Newton failure.  The per-step trial
  // voltages live in ws_step_v_; recursion is safe because a parent never
  // touches its trial after recursing into half steps.
  const auto advance = [&](auto&& self, double t0, double dt, bool force_be, int depth) -> void {
    faultinject::check(faultinject::Site::kTransientStep, "Engine::run_transient");
    if (dt < options.dt_min || depth > 48) {
      throw NumericalError({FailureCode::kTimestepUnderflow, "Engine::run_transient",
                            "time step underflow at t=" + std::to_string(t0)});
    }
    const double t1 = t0 + dt;
    ws_step_v_ = v;
    apply_sources(t1, ws_step_v_);
    const int iters =
        newton_solve(ws_step_v_, /*transient=*/true, dt, force_be, caps, 0.0, options.max_newton,
                     options.vtol, options.reltol, options.dv_clamp, allow_bypass, reuse_jacobian);
    if (iters < 0) {
      self(self, t0, 0.5 * dt, /*force_be=*/true, depth + 1);
      self(self, t0 + 0.5 * dt, 0.5 * dt, /*force_be=*/true, depth + 1);
      return;
    }
    result.newton_iterations += static_cast<std::size_t>(iters);
    // Accept: update capacitor state.
    for (std::size_t i = 0; i < ckt_.capacitors().size(); ++i) {
      const Capacitor& c = ckt_.capacitors()[i];
      const double vbr =
          ws_step_v_[static_cast<std::size_t>(c.a)] - ws_step_v_[static_cast<std::size_t>(c.b)];
      const double geq = (force_be ? 1.0 : 2.0) * c.capacitance / dt;
      caps[i].i_branch = geq * (vbr - caps[i].v_branch) - (force_be ? 0.0 : caps[i].i_branch);
      caps[i].v_branch = vbr;
    }
    std::swap(v, ws_step_v_);
    result.steps += 1;
    record(t1);
  };

  if (!options.adaptive) {
    double t = 0.0;
    bool first = true;
    while (t < options.tstop - 1e-18) {
      check_budget(t);
      const double dt = std::min(options.dt, options.tstop - t);
      advance(advance, t, dt, /*force_be=*/first || options.backward_euler, 0);
      first = false;
      t += dt;
    }
    return result;
  }

  // --- Adaptive stepping: linear-predictor LTE control.
  const double dt_max = (options.dt_max > 0.0) ? options.dt_max : 20.0 * options.dt;
  double t = 0.0;
  double dt = options.dt;
  bool first = true;
  std::vector<double> v_prev;  // previous accepted solution (for the predictor)
  double dt_prev = 0.0;
  while (t < options.tstop - 1e-18) {
    check_budget(t);
    faultinject::check(faultinject::Site::kTransientStep, "Engine::run_transient");
    dt = std::min({dt, options.tstop - t, dt_max});
    if (dt < options.dt_min) {
      throw NumericalError({FailureCode::kTimestepUnderflow, "Engine::run_transient",
                            "adaptive step underflow at t=" + std::to_string(t)});
    }
    const bool use_be = first || options.backward_euler;
    ws_step_v_ = v;
    apply_sources(t + dt, ws_step_v_);
    const int iters = newton_solve(ws_step_v_, /*transient=*/true, dt, use_be, caps, 0.0,
                                   options.max_newton, options.vtol, options.reltol,
                                   options.dv_clamp, allow_bypass, reuse_jacobian);
    if (iters < 0) {
      dt *= 0.5;
      continue;
    }
    // LTE estimate: deviation of the corrected point from the linear
    // predictor through the last two accepted points.
    double err = 0.0;
    if (!first && !v_prev.empty() && dt_prev > 0.0) {
      for (const NodeId n : unknown_nodes_) {
        const std::size_t i = static_cast<std::size_t>(n);
        const double pred = v[i] + (v[i] - v_prev[i]) * dt / dt_prev;
        err = std::max(err, std::abs(ws_step_v_[i] - pred));
      }
      if (err > 4.0 * options.lte_tol && dt > 4.0 * options.dt_min) {
        dt *= std::max(0.3, 0.9 * std::sqrt(options.lte_tol / err));
        continue;  // reject and retry with a smaller step
      }
    }
    // Accept.
    result.newton_iterations += static_cast<std::size_t>(iters);
    for (std::size_t i = 0; i < ckt_.capacitors().size(); ++i) {
      const Capacitor& c = ckt_.capacitors()[i];
      const double vbr =
          ws_step_v_[static_cast<std::size_t>(c.a)] - ws_step_v_[static_cast<std::size_t>(c.b)];
      const double geq = (use_be ? 1.0 : 2.0) * c.capacitance / dt;
      caps[i].i_branch = geq * (vbr - caps[i].v_branch) - (use_be ? 0.0 : caps[i].i_branch);
      caps[i].v_branch = vbr;
    }
    v_prev = v;
    dt_prev = dt;
    std::swap(v, ws_step_v_);
    t += dt;
    result.steps += 1;
    record(t);
    first = false;
    const double grow = 0.9 * std::sqrt(options.lte_tol / std::max(err, 1e-12));
    dt *= std::clamp(grow, 0.5, 2.0);
  }
  return result;
}

}  // namespace mtcmos::spice
