#include "core/vbs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "models/level1.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "waveform/measure.hpp"

namespace mtcmos::core {

namespace {

using detail::kEpsT;
using detail::kEpsV;
using detail::kInf;

using detail::Drive;
using detail::InputEvent;

/// Drive-current law I = (beta/2) u^alpha (paper Eq. 2).
double drive_current(double beta, double u, double alpha) {
  if (u <= 0.0) return 0.0;
  if (alpha == 2.0) return 0.5 * beta * u * u;
  return 0.5 * beta * std::pow(u, alpha);
}

}  // namespace

VbsSimulator::VbsSimulator(const netlist::Netlist& nl, VbsOptions options)
    : VbsSimulator(nl, options, std::vector<int>(static_cast<std::size_t>(nl.gate_count()), 0),
                   {options.sleep_resistance}) {}

VbsSimulator::VbsSimulator(const netlist::Netlist& nl, VbsOptions options,
                           std::vector<int> gate_domain, std::vector<double> domain_resistance)
    : nl_(nl),
      options_(options),
      gate_domain_(std::move(gate_domain)),
      domain_r_(std::move(domain_resistance)) {
  require(!domain_r_.empty(), "VbsSimulator: need at least one sleep domain");
  require(static_cast<int>(gate_domain_.size()) == nl_.gate_count(),
          "VbsSimulator: gate_domain size must equal the gate count");
  for (const int d : gate_domain_) {
    require(d >= 0 && d < static_cast<int>(domain_r_.size()),
            "VbsSimulator: gate domain index out of range");
  }
  // Option-value validation is coded (kInvalidArgument) so batch drivers
  // can classify a misconfigured sweep without string matching, mirroring
  // the SizingBounds validation in sizing::size_for_degradation.
  const auto bad_option = [](const std::string& why) {
    throw NumericalError({FailureCode::kInvalidArgument, "core::VbsSimulator", why});
  };
  for (const double r : domain_r_) {
    if (!(r >= 0.0)) bad_option("negative sleep resistance " + std::to_string(r));
  }
  if (!(options_.input_ramp >= 0.0)) {
    bad_option("negative input_ramp " + std::to_string(options_.input_ramp));
  }
  if (!(options_.virtual_ground_cap >= 0.0)) {
    bad_option("negative virtual_ground_cap " + std::to_string(options_.virtual_ground_cap));
  }
  if (!(options_.alpha >= 1.0 && options_.alpha <= 2.0)) {
    bad_option("alpha " + std::to_string(options_.alpha) + " outside [1, 2]");
  }
  if (!(options_.input_slope_factor >= 0.0 && options_.input_slope_factor <= 1.0)) {
    bad_option("input_slope_factor " + std::to_string(options_.input_slope_factor) +
               " outside [0, 1]");
  }
  if (!(options_.t_max > options_.t_switch)) {
    bad_option("t_max " + std::to_string(options_.t_max) + " must exceed t_switch " +
               std::to_string(options_.t_switch));
  }
  if (!(options_.deadline_s >= 0.0)) {
    bad_option("negative deadline_s " + std::to_string(options_.deadline_s));
  }
  // A rising output's pull-up sees the full supply, so its slope is a
  // per-gate constant.
  const double pull_up_drive = std::max(nl_.tech().vdd - nl_.tech().pmos_low.vt0, 0.0);
  for (int g = 0; g < nl_.gate_count(); ++g) {
    beta_n_.push_back(nl_.beta_n_eff(g));
    beta_p_.push_back(nl_.beta_p_eff(g));
    const double cl = nl_.output_load(g);
    require(cl > 0.0, "VbsSimulator: gate " + nl_.gate(g).name + " drives zero capacitance");
    cload_.push_back(cl);
    slope_up_.push_back(drive_current(beta_p_.back(), pull_up_drive, options_.alpha) / cl);
  }
  topo_ = nl_.topo_order();
}

const std::vector<std::uint64_t>& VbsSimulator::pulldown_tables() const {
  std::call_once(pulldown_once_, [this] {
    pulldown_tt_.assign(static_cast<std::size_t>(nl_.gate_count()), 0);
    std::vector<bool> pins;
    for (int g = 0; g < nl_.gate_count(); ++g) {
      const netlist::Gate& gate = nl_.gate(g);
      const std::size_t nf = gate.fanins.size();
      if (nf > 6) continue;
      pins.resize(nf);
      std::uint64_t tt = 0;
      for (std::uint32_t m = 0; m < (std::uint32_t{1} << nf); ++m) {
        for (std::size_t p = 0; p < nf; ++p) pins[p] = ((m >> p) & 1u) != 0;
        if (gate.pulldown.conducts(pins)) tt |= std::uint64_t{1} << m;
      }
      pulldown_tt_[static_cast<std::size_t>(g)] = tt;
    }
  });
  return pulldown_tt_;
}

VbsResult VbsSimulator::run(const std::vector<bool>& v0, const std::vector<bool>& v1) const {
  VbsWorkspace ws;
  return run(v0, v1, ws);
}

VbsResult VbsSimulator::run(const std::vector<bool>& v0, const std::vector<bool>& v1,
                            VbsWorkspace& ws) const {
  require(v0.size() == nl_.inputs().size() && v1.size() == nl_.inputs().size(),
          "VbsSimulator::run: input vector size mismatch");
  faultinject::check(faultinject::Site::kVbsRun, "VbsSimulator::run");
  const auto start_time = std::chrono::steady_clock::now();
  const Technology& tech = nl_.tech();
  const double vdd = tech.vdd;
  const double th = 0.5 * vdd;
  const double cx = options_.virtual_ground_cap;
  const int n_dom = static_cast<int>(domain_r_.size());

  VbsResult result;

  // Settled initial state, evaluated in the precomputed topological order
  // into the workspace (same semantics as Netlist::evaluate: undriven
  // non-input nets are constant 0).
  std::vector<bool>& logic = ws.logic;
  logic.assign(static_cast<std::size_t>(nl_.net_count()), false);
  for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
    logic[static_cast<std::size_t>(nl_.inputs()[i])] = v0[i];
  }
  for (const int g : topo_) {
    const netlist::Gate& gate = nl_.gate(g);
    ws.pins.resize(gate.fanins.size());
    for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
      ws.pins[p] = logic[static_cast<std::size_t>(gate.fanins[p])];
    }
    logic[static_cast<std::size_t>(gate.output)] = !gate.pulldown.conducts(ws.pins);
  }

  std::vector<detail::GateScratch>& state = ws.state;
  state.assign(static_cast<std::size_t>(nl_.gate_count()), detail::GateScratch{});
  for (int g = 0; g < nl_.gate_count(); ++g) {
    state[static_cast<std::size_t>(g)].vout =
        logic[static_cast<std::size_t>(nl_.gate(g).output)] ? vdd : 0.0;
  }

  // Input waveforms (full ramps) and their threshold-crossing events.
  std::vector<detail::InputEvent>& input_events = ws.input_events;
  input_events.clear();
  const double t_cross_in = options_.t_switch + 0.5 * options_.input_ramp;
  for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
    const netlist::NetId n = nl_.inputs()[i];
    Pwl& w = result.outputs.channel(nl_.net_name(n));
    const double a = v0[i] ? vdd : 0.0;
    const double b = v1[i] ? vdd : 0.0;
    if (v0[i] == v1[i]) {
      w = Pwl::constant(a);
    } else {
      w = Pwl::step(a, b, options_.t_switch, options_.input_ramp);
      input_events.push_back({t_cross_in, n, v1[i]});
    }
  }

  // Gate output waveforms start from the settled values.
  for (int g = 0; g < nl_.gate_count(); ++g) {
    result.outputs.channel(nl_.net_name(nl_.gate(g).output))
        .append(0.0, state[static_cast<std::size_t>(g)].vout);
  }

  double t_now = 0.0;
  std::vector<double>& vx_state = ws.vx_state;
  vx_state.assign(static_cast<std::size_t>(n_dom), 0.0);
  auto record_step = [](Pwl& w, double t, double v) {
    if (!w.empty() && t <= w.last_time()) t = w.last_time() + kEpsT;
    w.append(t, v);
  };
  auto record_vx = [&](int dom, double t, double v) {
    if (dom == 0) record_step(result.virtual_ground, t, v);
    if (n_dom > 1) record_step(result.domain_grounds.channel("vgnd" + std::to_string(dom)), t, v);
  };
  auto record_isleep = [&](double t, double total) {
    record_step(result.sleep_current, t, total);
  };
  auto record_idom = [&](int dom, double t, double i) {
    if (n_dom > 1) {
      record_step(result.domain_currents.channel("isleep" + std::to_string(dom)), t, i);
    }
  };
  for (int d = 0; d < n_dom; ++d) record_vx(d, 0.0, 0.0);
  record_isleep(0.0, 0.0);

  auto record_gate = [&](int g) {
    result.outputs.channel(nl_.net_name(nl_.gate(g).output))
        .append(t_now, state[static_cast<std::size_t>(g)].vout);
  };

  // Re-evaluate a gate's drive direction from current net logic.  The
  // low-side rest level depends on the gate's domain (reverse conduction).
  std::vector<double>& target_low = ws.target_low;
  target_low.assign(static_cast<std::size_t>(n_dom), 0.0);
  auto reevaluate = [&](int g) {
    const netlist::Gate& gate = nl_.gate(g);
    ws.pins.resize(gate.fanins.size());
    for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
      ws.pins[p] = logic[static_cast<std::size_t>(gate.fanins[p])];
    }
    const bool target = !gate.pulldown.conducts(ws.pins);
    detail::GateScratch& st = state[static_cast<std::size_t>(g)];
    const Drive before = st.drive;
    const double low = target_low[static_cast<std::size_t>(gate_domain_[static_cast<std::size_t>(g)])];
    if (target && st.vout < vdd - kEpsV) {
      st.drive = Drive::kUp;
    } else if (!target && st.vout > low + kEpsV) {
      st.drive = Drive::kDown;
    } else {
      st.drive = Drive::kIdle;
    }
    if (st.drive != before) record_gate(g);
  };

  std::size_t next_input_event = 0;
  std::sort(input_events.begin(), input_events.end(),
            [](const InputEvent& a, const InputEvent& b) { return a.t < b.t; });

  // Delayed gate activations (input-slope extension).
  std::vector<detail::PendingEval>& pending = ws.pending;
  pending.clear();

  const double alpha = options_.alpha;

  std::vector<double>& beta_dom = ws.beta_dom;
  std::vector<double>& u_dom = ws.u_dom;
  std::vector<double>& vx_dom = ws.vx_dom;
  std::vector<VxSolution>& eq_dom = ws.eq_dom;
  beta_dom.assign(static_cast<std::size_t>(n_dom), 0.0);
  u_dom.assign(static_cast<std::size_t>(n_dom), 0.0);
  vx_dom.assign(static_cast<std::size_t>(n_dom), 0.0);
  eq_dom.assign(static_cast<std::size_t>(n_dom), VxSolution{});

  while (true) {
    faultinject::check(faultinject::Site::kVbsBreakpoint, "VbsSimulator::run");
    if (options_.max_breakpoints > 0 && result.breakpoints >= options_.max_breakpoints) {
      throw NumericalError({FailureCode::kDeadlineExceeded, "VbsSimulator::run",
                            "breakpoint budget of " + std::to_string(options_.max_breakpoints) +
                                " exhausted at t=" + std::to_string(t_now)});
    }
    if (options_.deadline_s > 0.0) {
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start_time;
      if (elapsed.count() > options_.deadline_s) {
        throw NumericalError({FailureCode::kDeadlineExceeded, "VbsSimulator::run",
                              "wall-clock deadline of " + std::to_string(options_.deadline_s) +
                                  " s exceeded at t=" + std::to_string(t_now)});
      }
    }
    // --- Solve each domain's virtual ground for its discharger set.
    std::fill(beta_dom.begin(), beta_dom.end(), 0.0);
    for (int g = 0; g < nl_.gate_count(); ++g) {
      if (state[static_cast<std::size_t>(g)].drive == Drive::kDown) {
        beta_dom[static_cast<std::size_t>(gate_domain_[static_cast<std::size_t>(g)])] +=
            beta_n_[static_cast<std::size_t>(g)];
      }
    }
    double i_total_now = 0.0;
    for (int d = 0; d < n_dom; ++d) {
      const double r = domain_r_[static_cast<std::size_t>(d)];
      eq_dom[static_cast<std::size_t>(d)] = solve_vx(r, vdd, tech.nmos_low,
                                                     beta_dom[static_cast<std::size_t>(d)],
                                                     options_.body_effect, alpha);
      if (cx <= 0.0 || r <= 0.0) {
        vx_state[static_cast<std::size_t>(d)] = eq_dom[static_cast<std::size_t>(d)].vx;
        vx_dom[static_cast<std::size_t>(d)] = eq_dom[static_cast<std::size_t>(d)].vx;
        u_dom[static_cast<std::size_t>(d)] = eq_dom[static_cast<std::size_t>(d)].gate_drive;
      } else {
        // RC mode: V_x is state; gate drive follows the instantaneous V_x.
        vx_dom[static_cast<std::size_t>(d)] = vx_state[static_cast<std::size_t>(d)];
        const double vtn = options_.body_effect
                               ? threshold_voltage(tech.nmos_low, vx_dom[static_cast<std::size_t>(d)])
                               : tech.nmos_low.vt0;
        u_dom[static_cast<std::size_t>(d)] =
            std::max(vdd - vtn - vx_dom[static_cast<std::size_t>(d)], 0.0);
      }
      result.vx_peak = std::max(result.vx_peak, vx_dom[static_cast<std::size_t>(d)]);
      if (options_.reverse_conduction && vx_dom[static_cast<std::size_t>(d)] > th) {
        result.noise_margin_violation = true;
      }
      target_low[static_cast<std::size_t>(d)] =
          options_.reverse_conduction ? std::min(vx_dom[static_cast<std::size_t>(d)], th) : 0.0;
      record_vx(d, t_now, vx_dom[static_cast<std::size_t>(d)]);
      const double i_dom = drive_current(beta_dom[static_cast<std::size_t>(d)],
                                         u_dom[static_cast<std::size_t>(d)], alpha);
      record_idom(d, t_now, i_dom);
      i_total_now += i_dom;
    }
    record_isleep(t_now, i_total_now);

    // --- Slopes.
    for (int g = 0; g < nl_.gate_count(); ++g) {
      detail::GateScratch& st = state[static_cast<std::size_t>(g)];
      switch (st.drive) {
        case Drive::kIdle:
          st.slope = 0.0;
          break;
        case Drive::kDown: {
          const double u = u_dom[static_cast<std::size_t>(gate_domain_[static_cast<std::size_t>(g)])];
          st.slope = -drive_current(beta_n_[static_cast<std::size_t>(g)], u, alpha) /
                     cload_[static_cast<std::size_t>(g)];
          break;
        }
        case Drive::kUp:
          st.slope = slope_up_[static_cast<std::size_t>(g)];
          break;
      }
    }

    // --- Next breakpoint (paper Eq. 6/7: threshold and finish estimates).
    double t_next = kInf;
    if (next_input_event < input_events.size()) {
      t_next = std::min(t_next, input_events[next_input_event].t);
    }
    for (const detail::PendingEval& p : pending) t_next = std::min(t_next, p.t);
    bool any_active = false;
    for (int g = 0; g < nl_.gate_count(); ++g) {
      const detail::GateScratch& st = state[static_cast<std::size_t>(g)];
      if (st.drive == Drive::kIdle) continue;
      any_active = true;
      const bool out_logic = logic[static_cast<std::size_t>(nl_.gate(g).output)];
      const double low =
          target_low[static_cast<std::size_t>(gate_domain_[static_cast<std::size_t>(g)])];
      if (st.drive == Drive::kDown && st.slope < 0.0) {
        if (out_logic && st.vout > th) t_next = std::min(t_next, t_now + (st.vout - th) / -st.slope);
        if (st.vout > low) t_next = std::min(t_next, t_now + (st.vout - low) / -st.slope);
      } else if (st.drive == Drive::kUp && st.slope > 0.0) {
        if (!out_logic && st.vout < th) t_next = std::min(t_next, t_now + (th - st.vout) / st.slope);
        if (st.vout < vdd) t_next = std::min(t_next, t_now + (vdd - st.vout) / st.slope);
      }
    }
    // RC-mode refinement breakpoints while any V_x is far from equilibrium.
    if (cx > 0.0) {
      for (int d = 0; d < n_dom; ++d) {
        const double r = domain_r_[static_cast<std::size_t>(d)];
        if (r > 0.0 && std::abs(vx_state[static_cast<std::size_t>(d)] -
                                eq_dom[static_cast<std::size_t>(d)].vx) > 0.002 * vdd) {
          t_next = std::min(t_next, t_now + 0.25 * r * cx);
        }
      }
    }

    if (!std::isfinite(t_next)) {
      if (any_active) {
        throw NumericalError({FailureCode::kBreakpointRunaway, "VbsSimulator::run",
                              "active gates are stalled with no future breakpoint at t=" +
                                  std::to_string(t_now)});
      }
      break;  // quiescent: simulation complete
    }
    if (t_next > options_.t_max) {
      throw NumericalError({FailureCode::kBreakpointRunaway, "VbsSimulator::run",
                            "breakpoint beyond t_max (possible runaway) at t=" +
                                std::to_string(t_now)});
    }

    // --- Advance all active outputs linearly to the breakpoint.
    const double dt = t_next - t_now;
    t_now = t_next;
    ++result.breakpoints;
    for (int g = 0; g < nl_.gate_count(); ++g) {
      detail::GateScratch& st = state[static_cast<std::size_t>(g)];
      if (st.drive == Drive::kIdle) continue;
      const double v_before = st.vout;
      st.vout = std::clamp(st.vout + st.slope * dt, 0.0, vdd);
      if (st.drive == Drive::kUp && st.vout > v_before) {
        result.supply_energy += vdd * cload_[static_cast<std::size_t>(g)] * (st.vout - v_before);
      }
      record_gate(g);
    }
    double i_total_end = 0.0;
    for (int d = 0; d < n_dom; ++d) {
      const double r = domain_r_[static_cast<std::size_t>(d)];
      if (cx > 0.0 && r > 0.0) {
        const double tau = r * cx;
        vx_state[static_cast<std::size_t>(d)] =
            eq_dom[static_cast<std::size_t>(d)].vx +
            (vx_state[static_cast<std::size_t>(d)] - eq_dom[static_cast<std::size_t>(d)].vx) *
                std::exp(-dt / tau);
        record_vx(d, t_now, vx_state[static_cast<std::size_t>(d)]);
      } else {
        record_vx(d, t_now, eq_dom[static_cast<std::size_t>(d)].vx);
      }
      const double i_dom = drive_current(beta_dom[static_cast<std::size_t>(d)],
                                         u_dom[static_cast<std::size_t>(d)], alpha);
      record_idom(d, t_now, i_dom);
      i_total_end += i_dom;
    }
    record_isleep(t_now, i_total_end);

    // --- Process events at t_now.
    std::vector<int>& to_reevaluate = ws.to_reevaluate;
    to_reevaluate.clear();
    // `t_tr` is the transition time of the signal that crossed: with the
    // input-slope extension enabled, triggered gates re-evaluate after a
    // slope-proportional lag instead of instantly.
    auto mark_fanout = [&](netlist::NetId n, double t_tr) {
      for (int g : nl_.fanout_of(n)) {
        if (options_.input_slope_factor > 0.0 && t_tr > 0.0) {
          pending.push_back({t_now + options_.input_slope_factor * t_tr, g});
        } else {
          to_reevaluate.push_back(g);
        }
      }
    };
    while (next_input_event < input_events.size() &&
           input_events[next_input_event].t <= t_now + kEpsT) {
      const InputEvent& ev = input_events[next_input_event++];
      logic[static_cast<std::size_t>(ev.net)] = ev.value;
      mark_fanout(ev.net, options_.input_ramp);
    }
    for (int g = 0; g < nl_.gate_count(); ++g) {
      detail::GateScratch& st = state[static_cast<std::size_t>(g)];
      if (st.drive == Drive::kIdle) continue;
      const netlist::NetId out = nl_.gate(g).output;
      const bool out_logic = logic[static_cast<std::size_t>(out)];
      const double t_tr = (st.slope != 0.0) ? vdd / std::abs(st.slope) : 0.0;
      const double low =
          target_low[static_cast<std::size_t>(gate_domain_[static_cast<std::size_t>(g)])];
      if (st.drive == Drive::kDown) {
        if (out_logic && st.vout <= th + kEpsV) {
          logic[static_cast<std::size_t>(out)] = false;
          mark_fanout(out, t_tr);
        }
        if (st.vout <= low + kEpsV) {
          st.vout = low;
          st.drive = Drive::kIdle;
          record_gate(g);
        }
      } else if (st.drive == Drive::kUp) {
        if (!out_logic && st.vout >= th - kEpsV) {
          logic[static_cast<std::size_t>(out)] = true;
          mark_fanout(out, t_tr);
        }
        if (st.vout >= vdd - kEpsV) {
          st.vout = vdd;
          st.drive = Drive::kIdle;
          record_gate(g);
        }
      }
    }
    // Due pending activations (input-slope extension).
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->t <= t_now + kEpsT) {
        to_reevaluate.push_back(it->gate);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }

    // Reverse conduction: idle-low outputs track their domain's V_x.
    if (options_.reverse_conduction) {
      for (int g = 0; g < nl_.gate_count(); ++g) {
        detail::GateScratch& st = state[static_cast<std::size_t>(g)];
        const double pin =
            std::min(vx_state[static_cast<std::size_t>(gate_domain_[static_cast<std::size_t>(g)])], th);
        if (st.drive == Drive::kIdle &&
            !logic[static_cast<std::size_t>(nl_.gate(g).output)] &&
            std::abs(st.vout - pin) > kEpsV) {
          st.vout = pin;
          record_gate(g);
        }
      }
    }

    // --- Re-evaluate fanout of every net whose logic changed (in gate
    // index order for determinism when several change at once).
    std::sort(to_reevaluate.begin(), to_reevaluate.end());
    to_reevaluate.erase(std::unique(to_reevaluate.begin(), to_reevaluate.end()),
                        to_reevaluate.end());
    for (int g : to_reevaluate) reevaluate(g);
  }

  result.finish_time = t_now;
  for (int d = 0; d < n_dom; ++d) record_vx(d, t_now + kEpsT, 0.0);
  record_isleep(t_now + kEpsT, 0.0);
  return result;
}

double VbsSimulator::delay(const std::vector<bool>& v0, const std::vector<bool>& v1,
                           const std::string& in_name, const std::string& out_name) const {
  VbsWorkspace ws;
  return delay(v0, v1, in_name, out_name, ws);
}

double VbsSimulator::delay(const std::vector<bool>& v0, const std::vector<bool>& v1,
                           const std::string& in_name, const std::string& out_name,
                           VbsWorkspace& ws) const {
  const VbsResult res = run(v0, v1, ws);
  if (!res.outputs.has(in_name) || !res.outputs.has(out_name)) return -1.0;
  const auto d = propagation_delay(res.outputs.get(in_name), res.outputs.get(out_name),
                                   nl_.tech().vdd, Edge::kAny, Edge::kAny, options_.t_switch);
  return d.value_or(-1.0);
}

double VbsSimulator::critical_delay(const std::vector<bool>& v0, const std::vector<bool>& v1,
                                    const std::vector<std::string>& out_names) const {
  VbsWorkspace ws;
  return critical_delay(v0, v1, out_names, ws);
}

double VbsSimulator::critical_delay(const std::vector<bool>& v0, const std::vector<bool>& v1,
                                    const std::vector<std::string>& out_names,
                                    VbsWorkspace& ws) const {
  const VbsResult res = run(v0, v1, ws);
  const double t_in = options_.t_switch + 0.5 * options_.input_ramp;
  double worst = -1.0;
  for (const std::string& name : out_names) {
    if (!res.outputs.has(name)) continue;
    const auto t = res.outputs.get(name).last_crossing(0.5 * nl_.tech().vdd, Edge::kAny);
    if (t && *t > t_in) worst = std::max(worst, *t - t_in);
  }
  return worst;
}

}  // namespace mtcmos::core
