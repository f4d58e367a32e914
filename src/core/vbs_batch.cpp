#include "core/vbs_batch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <optional>

#include "core/simd.hpp"
#include "models/level1.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

// SoA replay of VbsSimulator::run (vbs.cpp): one kernel (see
// vbs_batch.hpp) combining the batched Eq. 5 solve, live-lane compaction,
// a carried list of driving cells, Eq. 5 dedup, and Hamming-incremental
// v0 settling.  Every stage below names the scalar passage it mirrors; the
// per-lane floating-point sequence must stay operation-for-operation
// identical, because the determinism contract (vbs_batch.hpp) promises
// bit-identical delays.  When editing vbs.cpp, edit the matching stages
// here.

namespace mtcmos::core {

namespace {

using detail::Drive;
using detail::InputEvent;
using detail::kEpsT;
using detail::kEpsV;
using detail::kInf;

// Resolve out_names once per call (scalar: Trace channel lookups in
// critical_delay).  A name maps to a gate-output tracker, a circuit
// input evaluated analytically, or nothing (no channel in the scalar
// result either).
void resolve_out_names(const netlist::Netlist& nl, const std::vector<std::string>& out_names,
                       VbsBatchWorkspace& ws) {
  const std::size_t n_in = nl.inputs().size();
  const int n_gate = nl.gate_count();
  ws.mon_of_gate.assign(static_cast<std::size_t>(n_gate), -1);
  ws.mon_gate.clear();
  ws.out_refs.clear();
  for (const std::string& name : out_names) {
    VbsBatchWorkspace::OutRef ref;
    const auto net = nl.find_net(name);
    if (net) {
      if (nl.is_input(*net)) {
        ref.kind = 2;
        for (std::size_t i = 0; i < n_in; ++i) {
          if (nl.inputs()[i] == *net) ref.input = static_cast<int>(i);
        }
      } else if (nl.driver_of(*net) >= 0) {
        const int g = nl.driver_of(*net);
        if (ws.mon_of_gate[static_cast<std::size_t>(g)] < 0) {
          ws.mon_of_gate[static_cast<std::size_t>(g)] = static_cast<int>(ws.mon_gate.size());
          ws.mon_gate.push_back(g);
        }
        ref.kind = 1;
        ref.mon = ws.mon_of_gate[static_cast<std::size_t>(g)];
      }
    }
    ws.out_refs.push_back(ref);
  }
}

// Allocate / reset the SoA state for a batch of B lanes.
void reset_soa(VbsBatchWorkspace& ws, int n_gate, int n_net, int n_dom, std::size_t n_mon,
               std::size_t B) {
  ws.drive.assign(static_cast<std::size_t>(n_gate) * B, Drive::kIdle);
  ws.vout.assign(static_cast<std::size_t>(n_gate) * B, 0.0);
  ws.logic.assign(static_cast<std::size_t>(n_net) * B, 0);
  ws.beta_dom.assign(static_cast<std::size_t>(n_dom) * B, 0.0);
  ws.u_dom.assign(static_cast<std::size_t>(n_dom) * B, 0.0);
  ws.vx_dom.assign(static_cast<std::size_t>(n_dom) * B, 0.0);
  ws.vx_state.assign(static_cast<std::size_t>(n_dom) * B, 0.0);
  ws.eq_vx.assign(static_cast<std::size_t>(n_dom) * B, 0.0);
  ws.target_low.assign(static_cast<std::size_t>(n_dom) * B, 0.0);
  ws.t_now.assign(B, 0.0);
  ws.t_next.assign(B, kInf);
  ws.dt.assign(B, 0.0);
  ws.running.assign(B, 0);
  ws.breakpoints.assign(B, 0);
  ws.events.clear();
  ws.next_event.assign(B, 0);
  ws.event_begin.assign(B, 0);
  ws.event_end.assign(B, 0);
  if (ws.pending.size() < B) ws.pending.resize(B);
  for (std::size_t l = 0; l < B; ++l) ws.pending[l].clear();
  ws.mon_ta.assign(n_mon * B, 0.0);
  ws.mon_va.assign(n_mon * B, 0.0);
  ws.mon_tb.assign(n_mon * B, 0.0);
  ws.mon_vb.assign(n_mon * B, 0.0);
  ws.mon_cross.assign(n_mon * B, 0.0);
  ws.mon_npts.assign(n_mon * B, 0);
  ws.mon_has.assign(n_mon * B, 0);
}

// Analytic replay of Pwl::step + last_crossing for a toggling input
// (same-time appends replace, then the scalar segment scan).
std::optional<double> input_last_crossing(const VbsOptions& opt, double th, double a, double b) {
  double ts[3];
  double vs[3];
  int np = 0;
  const auto app = [&](double t, double v) {
    if (np > 0 && t == ts[np - 1]) {
      vs[np - 1] = v;
      return;
    }
    ts[np] = t;
    vs[np] = v;
    ++np;
  };
  app(0.0, a);
  if (opt.t_switch > 0.0) app(opt.t_switch, a);
  app(opt.t_switch + opt.input_ramp, b);
  std::optional<double> found;
  for (int i = 0; i + 1 < np; ++i) {
    if (vs[i + 1] == vs[i]) continue;
    const double lo = std::min(vs[i], vs[i + 1]);
    const double hi = std::max(vs[i], vs[i + 1]);
    if (th < lo || th > hi) continue;
    const double frac = (th - vs[i]) / (vs[i + 1] - vs[i]);
    found = ts[i] + frac * (ts[i + 1] - ts[i]);
  }
  return found;
}

}  // namespace

std::vector<VbsLaneResult> VbsBatchSimulator::critical_delays(
    const std::vector<VbsBatchItem>& items, const std::vector<std::string>& out_names,
    VbsBatchWorkspace& ws) const {
  std::vector<VbsLaneResult> results(items.size());
  critical_delays(items.data(), items.size(), out_names, ws, results.data());
  return results;
}

void VbsBatchSimulator::critical_delays(const VbsBatchItem* items, std::size_t count,
                                        const std::vector<std::string>& out_names,
                                        VbsBatchWorkspace& ws, VbsLaneResult* results) const {
  if (count == 0) return;
  const std::size_t n_in = sim_.nl_.inputs().size();
  for (std::size_t i = 0; i < count; ++i) {
    require(items[i].v0 != nullptr && items[i].v1 != nullptr &&
                items[i].v0->size() == n_in && items[i].v1->size() == n_in,
            "VbsSimulator::run: input vector size mismatch");
  }
  run(items, count, out_names, ws, results);
}

// Work-skipping kernel.  Eq. 5 is re-solved through the batched closed
// form, and on top of that it:
//
//   * compacts finished/failed lanes out of a dense live prefix [0, live)
//     by column swaps at the top of each round, so every pass runs over
//     live lanes only (per-lane FP sequences are independent, so moving a
//     lane's column preserves its bit pattern);
//   * keeps one list of the driving (gate, lane) cells and runs the beta,
//     slope/candidate, advance and crossing passes over it.  The list is
//     carried across rounds and updated only where drives changed: the
//     advance drops cells that retire to a rail, reevaluate records each
//     idle -> driving cell, and compaction renumbers moved lanes; run
//     extents come from per-gate non-idle counts maintained at every drive
//     transition.  Idle cells are bit-exact no-ops in every pass: they add
//     no beta, emit no candidates, and the scalar kernel does not advance
//     them;
//   * dedups the iterative Eq. 5 solves (body effect / alpha != 2) per
//     domain per round: bit-equal beta totals give bit-equal solutions;
//   * settles each new v0 group incrementally from its Hamming-nearest
//     settled neighbor (packed u64 keys), re-evaluating only the dirty
//     logic cone in topo order -- pure logic, identical to a full settle;
//   * reduces a lane to its delay the moment it retires, since no later
//     round can append to a retired lane's monitors.
void VbsBatchSimulator::run(const VbsBatchItem* items, std::size_t count,
                            const std::vector<std::string>& out_names, VbsBatchWorkspace& ws,
                            VbsLaneResult* results) const {
  const netlist::Netlist& nl = sim_.nl_;
  const VbsOptions& opt = sim_.options_;
  const std::size_t n_in = nl.inputs().size();

  const Technology& tech = nl.tech();
  const double vdd = tech.vdd;
  const double th = 0.5 * vdd;
  const double cx = opt.virtual_ground_cap;
  const double alpha = opt.alpha;
  const double vt0 = tech.nmos_low.vt0;
  // Eq. 5 fast path: the closed form applies lane-wise and the threshold
  // does not depend on V_x, so one batched solve covers the domain row.
  const bool fast_eq5 = (alpha == 2.0) && !opt.body_effect;
  const int n_dom = static_cast<int>(sim_.domain_r_.size());
  const int n_gate = nl.gate_count();
  const int n_net = nl.net_count();
  const std::size_t B = count;

  const auto gidx = [B](int g, std::size_t l) { return static_cast<std::size_t>(g) * B + l; };
  const auto dom = [&](int g) {
    return static_cast<std::size_t>(sim_.gate_domain_[static_cast<std::size_t>(g)]);
  };

  resolve_out_names(nl, out_names, ws);
  const std::size_t n_mon = ws.mon_gate.size();
  reset_soa(ws, n_gate, n_net, n_dom, n_mon, B);
  ws.slot_item.assign(B, 0);
  // Per-gate and per-lane non-idle drive counts, maintained by set_drive
  // (every drive starts idle).  lane_active[l] != 0 is the scalar kernel's
  // "any gate active" predicate, kept incrementally.
  ws.gate_active.assign(static_cast<std::size_t>(n_gate), 0);
  ws.lane_active.assign(B, 0);
  ws.group_key.clear();
  // Every drive starts idle, so the carried cell list starts empty.
  ws.cell_runs.clear();
  ws.activations.clear();
  ws.run_of_gate.resize(static_cast<std::size_t>(n_gate));
  ws.slot_remap.resize(B);
  for (std::size_t l = 0; l < B; ++l) ws.slot_remap[l] = static_cast<std::uint32_t>(l);

  // Pulldown-conducts for gate g given a per-net logic lookup.  Logic
  // settling and re-evaluation are the hottest scalar remnants, so gates
  // with <= 6 fanins trade the SpExpr walk for one lookup in the
  // simulator's truth table -- the same function, so results are
  // identical.
  const std::vector<std::uint64_t>& pulldown_tt = sim_.pulldown_tables();
  const auto conducts_at = [&](int g, auto&& net_bit) {
    const netlist::Gate& gate = nl.gate(g);
    const std::size_t nf = gate.fanins.size();
    if (nf <= 6) {
      std::uint32_t idx = 0;
      for (std::size_t p = 0; p < nf; ++p) {
        idx |= static_cast<std::uint32_t>(net_bit(gate.fanins[p]) ? 1u : 0u) << p;
      }
      return ((pulldown_tt[static_cast<std::size_t>(g)] >> idx) & 1u) != 0;
    }
    ws.pins.resize(nf);
    for (std::size_t p = 0; p < nf; ++p) ws.pins[p] = net_bit(gate.fanins[p]);
    return gate.pulldown.conducts(ws.pins);
  };

  // Monitor trackers: an online replay of Pwl::append + last_crossing.
  // The segment (ta,va)-(tb,vb) is final once a strictly later point
  // arrives (or the lane retires); a same-time append replaces vb,
  // Pwl::append's vertical-step rule.
  const auto mon_finalize = [&](std::size_t k) {
    const double v0 = ws.mon_va[k];
    const double v1 = ws.mon_vb[k];
    if (v1 == v0) return;  // edge_matches(kAny) is false
    const double lo = std::min(v0, v1);
    const double hi = std::max(v0, v1);
    if (th < lo || th > hi) return;
    const double frac = (th - v0) / (v1 - v0);
    ws.mon_cross[k] = ws.mon_ta[k] + frac * (ws.mon_tb[k] - ws.mon_ta[k]);
    ws.mon_has[k] = 1;
  };
  const auto mon_append = [&](int mon, std::size_t l, double t, double v) {
    const std::size_t k = static_cast<std::size_t>(mon) * B + l;
    if (ws.mon_npts[k] == 0) {
      ws.mon_tb[k] = t;
      ws.mon_vb[k] = v;
      ws.mon_npts[k] = 1;
      return;
    }
    if (t == ws.mon_tb[k]) {
      ws.mon_vb[k] = v;
      return;
    }
    if (ws.mon_npts[k] >= 2) mon_finalize(k);
    ws.mon_ta[k] = ws.mon_tb[k];
    ws.mon_va[k] = ws.mon_vb[k];
    ws.mon_tb[k] = t;
    ws.mon_vb[k] = v;
    ws.mon_npts[k] = 2;
  };
  // Scalar record_gate equivalent: only monitored channels are kept.
  const auto record_gate = [&](int g, std::size_t l) {
    const int mon = ws.mon_of_gate[static_cast<std::size_t>(g)];
    if (mon >= 0) mon_append(mon, l, ws.t_now[l], ws.vout[gidx(g, l)]);
  };

  // Drive transitions route through here to keep the live-drive counts
  // (the extents of the round's cell list).
  const auto set_drive = [&](int g, std::size_t l, Drive d) {
    Drive& cur = ws.drive[gidx(g, l)];
    if (cur == d) return;
    if (cur == Drive::kIdle) {
      ++ws.gate_active[static_cast<std::size_t>(g)];
      ++ws.lane_active[l];
    } else if (d == Drive::kIdle) {
      --ws.gate_active[static_cast<std::size_t>(g)];
      --ws.lane_active[l];
    }
    cur = d;
  };

  const double t_in = opt.t_switch + 0.5 * opt.input_ramp;

  std::size_t lanes_running = 0;
  const auto fail_lane = [&](std::size_t l, FailureInfo info) {
    if (ws.running[l]) --lanes_running;
    ws.running[l] = 0;
    // Idle drives keep the failed lane inert for the rest of its round.
    for (int g = 0; g < n_gate; ++g) set_drive(g, l, Drive::kIdle);
    results[ws.slot_item[l]] = {-1.0, false, std::move(info)};
  };

  // Retired-lane reduce: a quiescent lane's monitors can never be
  // appended to again, so flushing (the scalar last_crossing also scans
  // the final segment) and reducing now is bit-identical to reducing at
  // the end of the run.
  const auto finish_lane = [&](std::size_t l) {
    for (std::size_t m = 0; m < n_mon; ++m) {
      const std::size_t k = m * B + l;
      if (ws.mon_npts[k] >= 2) mon_finalize(k);
    }
    const std::size_t item = ws.slot_item[l];
    double worst = -1.0;
    for (const VbsBatchWorkspace::OutRef& ref : ws.out_refs) {
      std::optional<double> t;
      if (ref.kind == 1) {
        const std::size_t k = static_cast<std::size_t>(ref.mon) * B + l;
        if (ws.mon_has[k]) t = ws.mon_cross[k];
      } else if (ref.kind == 2) {
        const bool a = (*items[item].v0)[static_cast<std::size_t>(ref.input)];
        const bool b = (*items[item].v1)[static_cast<std::size_t>(ref.input)];
        if (a != b) t = input_last_crossing(opt, th, a ? vdd : 0.0, b ? vdd : 0.0);
      }
      if (t && *t > t_in) worst = std::max(worst, *t - t_in);
    }
    results[item] = {worst, true, FailureInfo{}};
  };

  // Lane-column swap for the compaction step.  Only state that persists
  // across rounds travels with the lane: round scratch (cells, beta, u,
  // vx_dom, eq_vx, target_low, t_next, dt) is recomputed for the live
  // prefix before it is read again, and a retired lane's failure/result
  // was already recorded.
  const auto swap_lanes = [&](std::size_t a, std::size_t b) {
    for (int g = 0; g < n_gate; ++g) {
      std::swap(ws.drive[gidx(g, a)], ws.drive[gidx(g, b)]);
      std::swap(ws.vout[gidx(g, a)], ws.vout[gidx(g, b)]);
    }
    for (int n = 0; n < n_net; ++n) {
      const std::size_t base = static_cast<std::size_t>(n) * B;
      std::swap(ws.logic[base + a], ws.logic[base + b]);
    }
    for (int d = 0; d < n_dom; ++d) {
      const std::size_t base = static_cast<std::size_t>(d) * B;
      std::swap(ws.vx_state[base + a], ws.vx_state[base + b]);
    }
    std::swap(ws.t_now[a], ws.t_now[b]);
    std::swap(ws.running[a], ws.running[b]);
    std::swap(ws.breakpoints[a], ws.breakpoints[b]);
    std::swap(ws.next_event[a], ws.next_event[b]);
    std::swap(ws.event_begin[a], ws.event_begin[b]);
    std::swap(ws.event_end[a], ws.event_end[b]);
    std::swap(ws.slot_item[a], ws.slot_item[b]);
    std::swap(ws.lane_active[a], ws.lane_active[b]);
    ws.pending[a].swap(ws.pending[b]);
    for (std::size_t m = 0; m < n_mon; ++m) {
      const std::size_t ka = m * B + a;
      const std::size_t kb = m * B + b;
      std::swap(ws.mon_ta[ka], ws.mon_ta[kb]);
      std::swap(ws.mon_va[ka], ws.mon_va[kb]);
      std::swap(ws.mon_tb[ka], ws.mon_tb[kb]);
      std::swap(ws.mon_vb[ka], ws.mon_vb[kb]);
      std::swap(ws.mon_cross[ka], ws.mon_cross[kb]);
      std::swap(ws.mon_npts[ka], ws.mon_npts[kb]);
      std::swap(ws.mon_has[ka], ws.mon_has[kb]);
    }
  };

  // --- Per-lane initialization, in item order (kVbsRun faultinject
  // consumption must match the scalar loop).  Lanes are assigned dense
  // slots; an init-failed item never occupies one.
  ws.settled_logic.clear();
  ws.settled_rep.clear();
  const bool packed_keys = n_in <= 64;
  std::size_t live = 0;
  for (std::size_t i = 0; i < count; ++i) {
    try {
      faultinject::check(faultinject::Site::kVbsRun, "VbsSimulator::run");
    } catch (const NumericalError& e) {
      results[i] = {-1.0, false, e.info()};
      continue;
    }
    const std::size_t l = live++;
    ws.slot_item[l] = i;
    const std::vector<bool>& v0 = *items[i].v0;
    const std::vector<bool>& v1 = *items[i].v1;
    // Shared-prefix reuse: settle each distinct v0 once per batch.  With
    // packed keys the lookup is an integer compare and a *new* group is
    // settled incrementally from its Hamming-nearest settled neighbor.
    std::uint64_t key = 0;
    if (packed_keys) {
      for (std::size_t bit = 0; bit < n_in; ++bit) {
        if (v0[bit]) key |= std::uint64_t{1} << bit;
      }
    }
    const std::size_t n_groups = ws.settled_rep.size();
    std::size_t group = n_groups;
    if (packed_keys) {
      for (std::size_t k = 0; k < n_groups; ++k) {
        if (ws.group_key[k] == key) {
          group = k;
          break;
        }
      }
    } else {
      for (std::size_t k = 0; k < n_groups; ++k) {
        if (*items[ws.settled_rep[k]].v0 == v0) {
          group = k;
          break;
        }
      }
    }
    if (group == n_groups) {
      ws.settled_rep.push_back(i);
      const std::size_t base = ws.settled_logic.size();
      ws.settled_logic.resize(base + static_cast<std::size_t>(n_net), 0);
      std::uint8_t* settled = ws.settled_logic.data() + base;
      std::size_t nearest = n_groups;
      if (packed_keys && n_groups > 0) {
        int best = 65;  // above any popcount of a 64-bit key
        for (std::size_t k = 0; k < n_groups; ++k) {
          const int d = std::popcount(ws.group_key[k] ^ key);
          if (d < best) {
            best = d;
            nearest = k;
          }
        }
      }
      if (nearest < n_groups) {
        // Hamming-shared settle: copy the nearest group's settled state,
        // flip the differing inputs, and re-evaluate only the dirty cone
        // in topo order.  Pure logic evaluation, so the result is
        // identical to a full settle of this v0.
        const std::uint8_t* src =
            ws.settled_logic.data() + nearest * static_cast<std::size_t>(n_net);
        std::copy(src, src + n_net, settled);
        ws.net_dirty.assign(static_cast<std::size_t>(n_net), 0);
        std::uint64_t diff = ws.group_key[nearest] ^ key;
        while (diff != 0) {
          const int bit = std::countr_zero(diff);
          diff &= diff - 1;
          const netlist::NetId in = nl.inputs()[static_cast<std::size_t>(bit)];
          settled[static_cast<std::size_t>(in)] = v0[static_cast<std::size_t>(bit)] ? 1 : 0;
          ws.net_dirty[static_cast<std::size_t>(in)] = 1;
        }
        for (const int g : sim_.topo_) {
          const netlist::Gate& gate = nl.gate(g);
          bool dirty = false;
          for (const netlist::NetId f : gate.fanins) {
            if (ws.net_dirty[static_cast<std::size_t>(f)]) {
              dirty = true;
              break;
            }
          }
          if (!dirty) continue;
          const std::uint8_t val = conducts_at(g, [&](netlist::NetId n) {
                                     return settled[static_cast<std::size_t>(n)] != 0;
                                   })
                                       ? 0
                                       : 1;
          if (val != settled[static_cast<std::size_t>(gate.output)]) {
            settled[static_cast<std::size_t>(gate.output)] = val;
            ws.net_dirty[static_cast<std::size_t>(gate.output)] = 1;
          }
        }
      } else {
        for (std::size_t i2 = 0; i2 < n_in; ++i2) {
          settled[static_cast<std::size_t>(nl.inputs()[i2])] = v0[i2] ? 1 : 0;
        }
        for (const int g : sim_.topo_) {
          settled[static_cast<std::size_t>(nl.gate(g).output)] =
              conducts_at(g, [&](netlist::NetId n) {
                return settled[static_cast<std::size_t>(n)] != 0;
              })
                  ? 0
                  : 1;
        }
      }
      if (packed_keys) ws.group_key.push_back(key);
    }
    const std::uint8_t* settled =
        ws.settled_logic.data() + group * static_cast<std::size_t>(n_net);
    for (int n = 0; n < n_net; ++n) {
      ws.logic[static_cast<std::size_t>(n) * B + l] = settled[static_cast<std::size_t>(n)];
    }
    for (int g = 0; g < n_gate; ++g) {
      ws.vout[gidx(g, l)] =
          settled[static_cast<std::size_t>(nl.gate(g).output)] != 0 ? vdd : 0.0;
    }
    for (std::size_t m = 0; m < n_mon; ++m) {
      mon_append(static_cast<int>(m), l, 0.0, ws.vout[gidx(ws.mon_gate[m], l)]);
    }
    ws.event_begin[l] = ws.events.size();
    for (std::size_t i2 = 0; i2 < n_in; ++i2) {
      if (v0[i2] != v1[i2]) ws.events.push_back({t_in, nl.inputs()[i2], v1[i2]});
    }
    ws.event_end[l] = ws.events.size();
    ws.next_event[l] = ws.event_begin[l];
    // The scalar kernel sorts its event list by time here; every event
    // above was built with the same t_in, and same-time events on distinct
    // input nets commute (the crossing pass sorts re-evaluations), so the
    // sort is a no-op and is skipped.
    ws.running[l] = 1;
    ++lanes_running;
  }

  const auto reevaluate = [&](int g, std::size_t l) {
    const bool target = !conducts_at(g, [&](netlist::NetId n) {
      return ws.logic[static_cast<std::size_t>(n) * B + l] != 0;
    });
    const std::size_t k = gidx(g, l);
    const Drive before = ws.drive[k];
    const double low = ws.target_low[dom(g) * B + l];
    Drive next = Drive::kIdle;
    if (target && ws.vout[k] < vdd - kEpsV) {
      next = Drive::kUp;
    } else if (!target && ws.vout[k] > low + kEpsV) {
      next = Drive::kDown;
    }
    set_drive(g, l, next);
    if (next == before) return;
    record_gate(g, l);
    // The only idle -> driving transition: the next round adds the cell.
    if (before == Drive::kIdle) {
      ws.activations.push_back((static_cast<std::uint64_t>(l) << 32) |
                               static_cast<std::uint32_t>(g));
    }
  };
  // Eq. 5 at R = 0 never reads beta (solve_vx and solve_vx_batch both
  // return the no-bounce solution), so such a domain's beta row is left
  // at the zeros reset_soa seeded.
  const auto domain_needs_beta = [&](std::size_t d) { return sim_.domain_r_[d] > 0.0; };

  // --- Breakpoint rounds.
  while (lanes_running > 0) {
    // Swap-retire finished lanes out of the dense live prefix.  Order
    // within the prefix is not preserved; per-lane sequences are
    // independent, so this cannot change any lane's bits.  A live lane
    // moves at most once, from slot `live` to slot l; slot_remap carries
    // that move to the carried cells' lane numbers.  A retired lane has
    // no carried cells (see the advance sweep), so its slot needs none.
    const std::size_t prev_live = live;
    for (std::size_t l = 0; l < live;) {
      if (ws.running[l]) {
        ++l;
        continue;
      }
      --live;
      if (l != live) {
        swap_lanes(l, live);
        ws.slot_remap[live] = static_cast<std::uint32_t>(l);
      }
    }
    const std::size_t L = live;

    // Scalar loop top: fault injection and the breakpoint budget.  When
    // neither is armed, every check below is a no-op for every lane, so
    // the whole scan is skipped.
    const bool need_guards =
        opt.max_breakpoints > 0 || faultinject::armed(faultinject::Site::kVbsBreakpoint);
    for (std::size_t l = 0; need_guards && l < L; ++l) {
      if (!ws.running[l]) continue;
      try {
        faultinject::check(faultinject::Site::kVbsBreakpoint, "VbsSimulator::run");
        if (opt.max_breakpoints > 0 && ws.breakpoints[l] >= opt.max_breakpoints) {
          throw NumericalError({FailureCode::kDeadlineExceeded, "VbsSimulator::run",
                                "breakpoint budget of " + std::to_string(opt.max_breakpoints) +
                                    " exhausted at t=" + std::to_string(ws.t_now[l])});
        }
      } catch (const NumericalError& e) {
        fail_lane(l, e.info());
      }
    }
    if (lanes_running == 0) break;

    // --- The round's driving cells, from the last round's survivors and
    // activations; no drive row is scanned.  gate_active[g] is the exact
    // non-idle count of the live prefix, so each run's extent is known
    // before it is filled: falling lanes fill it from the front, rising
    // lanes from the back.  Every non-idle cell is either a survivor (it
    // drove through last round's advance) or an activation (reevaluate
    // started it), never both, and a cell is placed only if its drive is
    // still non-idle: reevaluate may have idled or reversed a survivor,
    // and a budget guard above may have idled a whole lane.  Every pass
    // below visits these cells only; an idle (gate, lane) is a bit-exact
    // no-op in each of them (it adds no beta, has no candidate, and the
    // scalar kernel does not advance it).
    ws.next_runs.clear();
    std::uint32_t n_cells = 0;
    for (int g = 0; g < n_gate; ++g) {
      const std::uint32_t n = ws.gate_active[static_cast<std::size_t>(g)];
      if (n == 0) continue;
      ws.run_of_gate[static_cast<std::size_t>(g)] =
          static_cast<std::uint32_t>(ws.next_runs.size());
      ws.next_runs.push_back({g, n_cells, n_cells, n_cells + n, n_cells + n});
      n_cells += n;
    }
    if (ws.next_lane.size() < n_cells) ws.next_lane.resize(n_cells);
    if (ws.cell_slope.size() < n_cells) ws.cell_slope.resize(n_cells);
    {
      std::uint32_t* const next_lane = ws.next_lane.data();
      const std::uint32_t* const remap = ws.slot_remap.data();
      const auto place = [&](VbsBatchWorkspace::CellRun& run, Drive d, std::uint32_t l) {
        if (d == Drive::kDown) {
          next_lane[run.split++] = l;
        } else if (d == Drive::kUp) {
          next_lane[--run.rise] = l;
        }
      };
      for (const VbsBatchWorkspace::CellRun& prev : ws.cell_runs) {
        const std::size_t g = static_cast<std::size_t>(prev.gate);
        if (ws.gate_active[g] == 0) continue;  // every survivor went idle
        VbsBatchWorkspace::CellRun& run = ws.next_runs[ws.run_of_gate[g]];
        const Drive* drive_row = ws.drive.data() + gidx(prev.gate, 0);
        for (std::uint32_t i = prev.begin; i < prev.end; ++i) {
          const std::uint32_t l = remap[ws.cell_lane[i]];
          place(run, drive_row[l], l);
        }
      }
      for (const std::uint64_t a : ws.activations) {
        const int g = static_cast<int>(a & 0xffffffffu);
        const std::uint32_t l = remap[a >> 32];
        const Drive d = ws.drive[gidx(g, l)];
        if (d == Drive::kIdle) continue;  // run_of_gate[g] may be stale
        place(ws.next_runs[ws.run_of_gate[static_cast<std::size_t>(g)]], d, l);
      }
    }
    ws.activations.clear();
    for (std::size_t l = L; l < prev_live; ++l) ws.slot_remap[l] = static_cast<std::uint32_t>(l);
    ws.cell_runs.swap(ws.next_runs);
    ws.cell_lane.swap(ws.next_lane);
    std::uint32_t* const cell_lane = ws.cell_lane.data();
    double* const cell_slope = ws.cell_slope.data();

    // --- Solve each domain's virtual ground for its discharger set.  Each
    // lane accumulates its falling gates' beta in ascending gate order, as
    // the scalar loop does.
    for (int d = 0; d < n_dom; ++d) {
      if (!domain_needs_beta(static_cast<std::size_t>(d))) continue;
      double* row = ws.beta_dom.data() + static_cast<std::size_t>(d) * B;
      std::fill(row, row + L, 0.0);
    }
    for (const VbsBatchWorkspace::CellRun& run : ws.cell_runs) {
      if (!domain_needs_beta(dom(run.gate))) continue;
      const double bg = sim_.beta_n_[static_cast<std::size_t>(run.gate)];
      double* beta_row = ws.beta_dom.data() + dom(run.gate) * B;
      for (std::uint32_t i = run.begin; i < run.split; ++i) beta_row[cell_lane[i]] += bg;
    }
    for (int d = 0; d < n_dom; ++d) {
      const double r = sim_.domain_r_[static_cast<std::size_t>(d)];
      const std::size_t base = static_cast<std::size_t>(d) * B;
      const double* beta_row = ws.beta_dom.data() + base;
      double* eq_row = ws.eq_vx.data() + base;
      double* u_row = ws.u_dom.data() + base;
      double* vx_row = ws.vx_dom.data() + base;
      double* st_row = ws.vx_state.data() + base;
      if (fast_eq5) {
        solve_vx_batch(r, vdd, tech.nmos_low, beta_row, L, eq_row, u_row);
        if (cx <= 0.0 || r <= 0.0) {
          MTCMOS_SIMD_LOOP
          for (std::size_t l = 0; l < L; ++l) {
            st_row[l] = eq_row[l];
            vx_row[l] = eq_row[l];
          }
        } else {
          // RC mode: V_x is state; gate drive follows the instantaneous
          // V_x (threshold is vt0, no body effect on this path).
          MTCMOS_SIMD_LOOP
          for (std::size_t l = 0; l < L; ++l) {
            vx_row[l] = st_row[l];
            u_row[l] = std::max(vdd - vt0 - vx_row[l], 0.0);
          }
        }
      } else {
        // Iterative solves (body effect / alpha != 2), deduped per round:
        // bit-equal beta totals give bit-equal solutions, and lanes with
        // the same discharger set accumulated beta in the same gate order.
        std::array<double, 16> mb{}, mvx{}, mu{};
        std::size_t mn = 0;
        for (std::size_t l = 0; l < L; ++l) {
          const double b = beta_row[l];
          double vx = 0.0;
          double u = 0.0;
          bool hit = false;
          for (std::size_t j = 0; j < mn; ++j) {
            if (mb[j] == b) {
              vx = mvx[j];
              u = mu[j];
              hit = true;
              break;
            }
          }
          if (!hit) {
            const VxSolution eq = solve_vx(r, vdd, tech.nmos_low, b, opt.body_effect, alpha);
            vx = eq.vx;
            u = eq.gate_drive;
            if (mn < mb.size()) {
              mb[mn] = b;
              mvx[mn] = vx;
              mu[mn] = u;
              ++mn;
            }
          }
          eq_row[l] = vx;
          if (cx <= 0.0 || r <= 0.0) {
            st_row[l] = vx;
            vx_row[l] = vx;
            u_row[l] = u;
          } else {
            vx_row[l] = st_row[l];
            const double vtn =
                opt.body_effect ? threshold_voltage(tech.nmos_low, vx_row[l]) : vt0;
            u_row[l] = std::max(vdd - vtn - vx_row[l], 0.0);
          }
        }
      }
      if (opt.reverse_conduction) {
        double* low_row = ws.target_low.data() + base;
        MTCMOS_SIMD_LOOP
        for (std::size_t l = 0; l < L; ++l) low_row[l] = std::min(vx_row[l], th);
      }
      // Without reverse conduction target_low stays the all-zero rows
      // reset_soa seeded (nothing else writes them), so no per-round fill.
    }

    // --- Per-lane t_next seed (pending input events and due activations),
    // hoisted before the slope/candidate sweep accumulates gate
    // candidates onto it.
    for (std::size_t l = 0; l < L; ++l) {
      double tn = kInf;
      if (ws.next_event[l] < ws.event_end[l]) {
        tn = std::min(tn, ws.events[ws.next_event[l]].t);
      }
      for (const detail::PendingEval& p : ws.pending[l]) tn = std::min(tn, p.t);
      ws.t_next[l] = tn;
    }
    // --- Slopes and next-breakpoint candidates (paper Eq. 6/7 estimates),
    // fused into one sweep of the cells: each lane still sees its gates'
    // candidates in ascending gate order.  A falling cell's slope depends
    // on its domain's u and is kept in cell_slope for the advance; a
    // rising cell's is the gate's constant slope_up_.  For a falling
    // output (slope < 0) the scalar (vo - th) / -sl is bit-identical to
    // (th - vo) / sl -- IEEE negation of numerator and denominator flips
    // both signs and changes neither magnitude nor rounding.  The
    // min-chain order (threshold before rail) matches the scalar kernel.
    for (const VbsBatchWorkspace::CellRun& run : ws.cell_runs) {
      const std::size_t g = static_cast<std::size_t>(run.gate);
      const double cl = sim_.cload_[g];
      const double bn = sim_.beta_n_[g];
      const double* u_row = ws.u_dom.data() + dom(run.gate) * B;
      const double* low_row = ws.target_low.data() + dom(run.gate) * B;
      const std::uint8_t* logic_row =
          ws.logic.data() + static_cast<std::size_t>(nl.gate(run.gate).output) * B;
      const double* vout_row = ws.vout.data() + gidx(run.gate, 0);
      for (std::uint32_t i = run.begin; i < run.split; ++i) {
        const std::size_t l = cell_lane[i];
        // Same association as the scalar drive_current: ((0.5*bn)*u)*u.
        const double u = u_row[l];
        const double dc = (u <= 0.0) ? 0.0
                                     : (alpha == 2.0 ? 0.5 * bn * u * u
                                                     : 0.5 * bn * std::pow(u, alpha));
        const double sl = -dc / cl;
        cell_slope[i] = sl;
        if (!(sl < 0.0)) continue;
        const double vo = vout_row[l];
        const double tno = ws.t_now[l];
        double tn = ws.t_next[l];
        if (logic_row[l] != 0 && vo > th) tn = std::min(tn, tno + (th - vo) / sl);
        const double low = low_row[l];
        if (vo > low) tn = std::min(tn, tno + (low - vo) / sl);
        ws.t_next[l] = tn;
      }
      const double su = sim_.slope_up_[g];
      if (!(su > 0.0)) continue;
      for (std::uint32_t i = run.split; i < run.end; ++i) {
        const std::size_t l = cell_lane[i];
        const double vo = vout_row[l];
        const double tno = ws.t_now[l];
        double tn = ws.t_next[l];
        if (logic_row[l] == 0 && vo < th) tn = std::min(tn, tno + (th - vo) / su);
        if (vo < vdd) tn = std::min(tn, tno + (vdd - vo) / su);
        ws.t_next[l] = tn;
      }
    }

    // RC-mode refinement breakpoints while any V_x is far from equilibrium.
    if (cx > 0.0) {
      for (int d = 0; d < n_dom; ++d) {
        const double r = sim_.domain_r_[static_cast<std::size_t>(d)];
        if (r <= 0.0) continue;
        const std::size_t base = static_cast<std::size_t>(d) * B;
        for (std::size_t l = 0; l < L; ++l) {
          if (std::abs(ws.vx_state[base + l] - ws.eq_vx[base + l]) > 0.002 * vdd) {
            ws.t_next[l] = std::min(ws.t_next[l], ws.t_now[l] + 0.25 * r * cx);
          }
        }
      }
    }

    // --- Per-lane termination (scalar: quiescent break / runaway throws).
    for (std::size_t l = 0; l < L; ++l) {
      if (!ws.running[l]) {
        ws.dt[l] = 0.0;
        continue;
      }
      if (!std::isfinite(ws.t_next[l])) {
        if (ws.lane_active[l] != 0) {
          fail_lane(l, {FailureCode::kBreakpointRunaway, "VbsSimulator::run",
                        "active gates are stalled with no future breakpoint at t=" +
                            std::to_string(ws.t_now[l])});
        } else {
          ws.running[l] = 0;  // quiescent: simulation complete
          --lanes_running;
          finish_lane(l);
        }
        ws.dt[l] = 0.0;
        continue;
      }
      if (ws.t_next[l] > opt.t_max) {
        fail_lane(l, {FailureCode::kBreakpointRunaway, "VbsSimulator::run",
                      "breakpoint beyond t_max (possible runaway) at t=" +
                          std::to_string(ws.t_now[l])});
        ws.dt[l] = 0.0;
        continue;
      }
      ws.dt[l] = ws.t_next[l] - ws.t_now[l];
      ws.t_now[l] = ws.t_next[l];
      ++ws.breakpoints[l];
    }
    if (lanes_running == 0) break;

    // --- Advance, record monitors, and fire crossings in one sweep of the
    // cells.  The scalar kernel handles one lane at a time; here the
    // per-lane phases run as one pass over the cells.  Lanes share no
    // mutable state, and within a lane the stage order per gate (advance,
    // monitor append, crossing) preserves the scalar sequence: the
    // tracker sees the advanced value at t_now first, and a rail retire's
    // record_gate then overwrites the same-t point.  A lane that failed at
    // termination this round still has cells, but its drives are idle and
    // its result is recorded, so its cells are skipped.
    //
    // The sweep also carries the list to the next round: each run keeps
    // its surviving cells in place as cell_lane[begin, end).  A cell that
    // retires to a rail is dropped, and so is every cell of a lane that
    // is no longer running: compaction will hand that lane's slot to
    // another lane, whose drive row a stale cell would misread.
    //
    // Running the crossing scan ahead of the input-event phase (the
    // scalar order is input events first) is sound: crossings read and
    // write gate-output logic only, input events write primary-input
    // logic only -- disjoint nets -- and the re-evaluations both phases
    // enqueue commute (see the re-evaluation pass below).  The cells are
    // every (gate, lane) that drives this round: a drive only becomes
    // non-idle in its own lane's reevaluate, which runs after this sweep.
    ws.reeval_pairs.clear();
    const auto mark_fanout = [&](std::size_t l, netlist::NetId n, double t_tr) {
      for (int g : nl.fanout_of(n)) {
        if (opt.input_slope_factor > 0.0 && t_tr > 0.0) {
          ws.pending[l].push_back({ws.t_now[l] + opt.input_slope_factor * t_tr, g});
        } else {
          ws.reeval_pairs.push_back((static_cast<std::uint64_t>(l) << 32) |
                                    static_cast<std::uint32_t>(g));
        }
      }
    };
    // t_tr is the full-swing transition time that stretches fanout
    // activation; it is only consumed when a logic crossing fires, so its
    // division stays inside the branch.
    const auto t_tr = [vdd](double sl) { return (sl != 0.0) ? vdd / std::abs(sl) : 0.0; };
    for (VbsBatchWorkspace::CellRun& run : ws.cell_runs) {
      const int g = run.gate;
      std::uint32_t keep = run.begin;
      double* vout_row = ws.vout.data() + gidx(g, 0);
      const bool monitored = ws.mon_of_gate[static_cast<std::size_t>(g)] >= 0;
      const netlist::NetId out = nl.gate(g).output;
      std::uint8_t* logic_row = ws.logic.data() + static_cast<std::size_t>(out) * B;
      const double* low_row = ws.target_low.data() + dom(g) * B;
      for (std::uint32_t i = run.begin; i < run.split; ++i) {
        const std::size_t l = cell_lane[i];
        if (!ws.running[l]) continue;
        const double sl = cell_slope[i];
        const double v = std::clamp(vout_row[l] + sl * ws.dt[l], 0.0, vdd);
        vout_row[l] = v;
        if (monitored) record_gate(g, l);
        if (logic_row[l] != 0 && v <= th + kEpsV) {
          logic_row[l] = 0;
          mark_fanout(l, out, t_tr(sl));
        }
        const double low = low_row[l];
        if (v <= low + kEpsV) {
          vout_row[l] = low;
          set_drive(g, l, Drive::kIdle);
          record_gate(g, l);
          continue;
        }
        cell_lane[keep++] = static_cast<std::uint32_t>(l);
      }
      const double su = sim_.slope_up_[static_cast<std::size_t>(g)];
      for (std::uint32_t i = run.split; i < run.end; ++i) {
        const std::size_t l = cell_lane[i];
        if (!ws.running[l]) continue;
        const double v = std::clamp(vout_row[l] + su * ws.dt[l], 0.0, vdd);
        vout_row[l] = v;
        if (monitored) record_gate(g, l);
        if (logic_row[l] == 0 && v >= th - kEpsV) {
          logic_row[l] = 1;
          mark_fanout(l, out, t_tr(su));
        }
        if (v >= vdd - kEpsV) {
          vout_row[l] = vdd;
          set_drive(g, l, Drive::kIdle);
          record_gate(g, l);
          continue;
        }
        cell_lane[keep++] = static_cast<std::uint32_t>(l);
      }
      run.end = keep;
    }
    if (cx > 0.0) {
      for (int d = 0; d < n_dom; ++d) {
        const double r = sim_.domain_r_[static_cast<std::size_t>(d)];
        if (r <= 0.0) continue;
        const double tau = r * cx;
        const std::size_t base = static_cast<std::size_t>(d) * B;
        for (std::size_t l = 0; l < L; ++l) {
          if (!ws.running[l]) continue;  // exp(-0/tau) would still perturb bits
          ws.vx_state[base + l] =
              ws.eq_vx[base + l] +
              (ws.vx_state[base + l] - ws.eq_vx[base + l]) * std::exp(-ws.dt[l] / tau);
        }
      }
    }
    // --- Input events due at each advanced lane's t_now.
    for (std::size_t l = 0; l < L; ++l) {
      if (!ws.running[l]) continue;  // still-running lanes advanced this round
      const double t_now = ws.t_now[l];
      while (ws.next_event[l] < ws.event_end[l] &&
             ws.events[ws.next_event[l]].t <= t_now + kEpsT) {
        const InputEvent& ev = ws.events[ws.next_event[l]++];
        ws.logic[static_cast<std::size_t>(ev.net) * B + l] = ev.value ? 1 : 0;
        mark_fanout(l, ev.net, opt.input_ramp);
      }
    }
    for (std::size_t l = 0; l < L; ++l) {
      if (!ws.running[l]) continue;
      if (ws.pending[l].empty() && !opt.reverse_conduction) continue;
      const double t_now = ws.t_now[l];
      // Due pending activations (input-slope extension).  Entries the
      // crossing phase just appended are scanned too, as in the scalar
      // kernel's single pass.
      for (auto it = ws.pending[l].begin(); it != ws.pending[l].end();) {
        if (it->t <= t_now + kEpsT) {
          ws.reeval_pairs.push_back((static_cast<std::uint64_t>(l) << 32) |
                                    static_cast<std::uint32_t>(it->gate));
          it = ws.pending[l].erase(it);
        } else {
          ++it;
        }
      }
      // Reverse conduction: idle-low outputs track their domain's V_x.
      // This scans *idle* gates, so it cannot use the cell list.
      if (opt.reverse_conduction) {
        for (int g = 0; g < n_gate; ++g) {
          const std::size_t k = gidx(g, l);
          const double pin = std::min(ws.vx_state[dom(g) * B + l], th);
          if (ws.drive[k] == Drive::kIdle &&
              ws.logic[static_cast<std::size_t>(nl.gate(g).output) * B + l] == 0 &&
              std::abs(ws.vout[k] - pin) > kEpsV) {
            ws.vout[k] = pin;
            record_gate(g, l);
          }
        }
      }
    }
    // Re-evaluate the fanout of every net whose logic changed.  The scalar
    // kernel sorts and dedups its per-lane list first, but that is only a
    // schedule choice: each reevaluate touches its own gate's drive alone
    // (logic is not modified here), so calls for different gates commute,
    // and a repeated call sees target == current drive and is a no-op.
    // Any visit order therefore yields the scalar result bit-exactly.
    for (const std::uint64_t p : ws.reeval_pairs) {
      reevaluate(static_cast<int>(p & 0xffffffffu), static_cast<std::size_t>(p >> 32));
    }
  }
  // Every lane was reduced (or failed) as it retired.
}

}  // namespace mtcmos::core
