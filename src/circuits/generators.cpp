#include "circuits/generators.hpp"

#include <string>

#include "util/error.hpp"

namespace mtcmos::circuits {

namespace {

// Net name `prefix` + decimal `index`.  Built by append: GCC 12 at -O3
// raises a false -Wrestrict on "a" + std::to_string(i).
std::string indexed(const char* prefix, int index) {
  return std::string(prefix).append(std::to_string(index));
}

}  // namespace

InverterTree make_inverter_tree(const Technology& tech, const InverterTreeOptions& options) {
  require(options.fanout >= 1, "make_inverter_tree: fanout must be >= 1");
  require(options.stages >= 1, "make_inverter_tree: stages must be >= 1");
  InverterTree tree{Netlist(tech), -1, {}, {}};
  Netlist& nl = tree.netlist;
  tree.input = nl.add_input("in");

  std::vector<NetId> frontier = {tree.input};
  for (int stage = 0; stage < options.stages; ++stage) {
    std::vector<NetId> next;
    int idx = 0;
    // Stage 0 is the single root inverter; later stages branch by fanout.
    const bool is_root = (stage == 0);
    for (NetId drv : frontier) {
      const int copies = is_root ? 1 : options.fanout;
      for (int k = 0; k < copies; ++k) {
        const std::string name =
            "inv_s" + std::to_string(stage + 1) + "_" + std::to_string(idx++);
        const NetId out = nl.add_inv(name, drv);
        next.push_back(out);
      }
    }
    const bool is_leaf_stage = (stage + 1 == options.stages);
    for (NetId out : next) {
      nl.add_load(out, is_leaf_stage ? options.leaf_load : options.internal_load);
    }
    tree.stage_outputs.push_back(next);
    frontier = std::move(next);
  }
  tree.leaves = tree.stage_outputs.back();
  return tree;
}

RippleAdder make_ripple_adder(const Technology& tech, int nbits, double output_load) {
  require(nbits >= 1, "make_ripple_adder: nbits must be >= 1");
  RippleAdder adder{Netlist(tech), {}, {}, {}, -1};
  Netlist& nl = adder.netlist;
  for (int i = 0; i < nbits; ++i) adder.a.push_back(nl.add_input(indexed("a", i)));
  for (int i = 0; i < nbits; ++i) adder.b.push_back(nl.add_input(indexed("b", i)));

  NetId carry = nl.net("cin0");  // undriven -> constant 0 (paper: initial carry grounded)
  for (int i = 0; i < nbits; ++i) {
    const auto fa = nl.add_mirror_fa("fa" + std::to_string(i), adder.a[static_cast<std::size_t>(i)],
                                     adder.b[static_cast<std::size_t>(i)], carry);
    adder.sum.push_back(fa.sum);
    nl.add_load(fa.sum, output_load);
    carry = fa.cout;
  }
  adder.cout = carry;
  nl.add_load(adder.cout, output_load);
  return adder;
}

CsaMultiplier make_csa_multiplier(const Technology& tech, int nbits, double output_load) {
  require(nbits >= 2, "make_csa_multiplier: nbits must be >= 2");
  CsaMultiplier mult{Netlist(tech), {}, {}, {}};
  Netlist& nl = mult.netlist;
  for (int i = 0; i < nbits; ++i) mult.x.push_back(nl.add_input(indexed("x", i)));
  for (int i = 0; i < nbits; ++i) mult.y.push_back(nl.add_input(indexed("y", i)));

  // Partial products pp[i][j] = x_j & y_i  (row i weights 2^i).
  std::vector<std::vector<NetId>> pp(static_cast<std::size_t>(nbits));
  for (int i = 0; i < nbits; ++i) {
    for (int j = 0; j < nbits; ++j) {
      pp[static_cast<std::size_t>(i)].push_back(
          nl.add_and2("pp" + std::to_string(i) + "_" + std::to_string(j),
                      mult.x[static_cast<std::size_t>(j)], mult.y[static_cast<std::size_t>(i)]));
    }
  }

  const NetId zero = nl.net("const0");  // undriven -> constant 0

  // Carry-save rows.  Row state after row i: sums s[j] with weight
  // 2^(i+j+1)... tracked positionally: s[j] aligns with pp[i+1][j].
  std::vector<NetId> s(static_cast<std::size_t>(nbits), zero);
  std::vector<NetId> c(static_cast<std::size_t>(nbits), zero);
  // Row 0: s[j] = pp[0][j], carries 0.
  for (int j = 0; j < nbits; ++j) s[static_cast<std::size_t>(j)] = pp[0][static_cast<std::size_t>(j)];
  mult.p.push_back(s[0]);  // p0 = pp[0][0]

  for (int i = 1; i < nbits; ++i) {
    std::vector<NetId> s_next(static_cast<std::size_t>(nbits), zero);
    std::vector<NetId> c_next(static_cast<std::size_t>(nbits), zero);
    for (int j = 0; j < nbits; ++j) {
      // FA(i,j): pp[i][j] + (sum from previous row, shifted) + carry from
      // previous row at the same column.
      const NetId sum_in = (j + 1 < nbits) ? s[static_cast<std::size_t>(j + 1)] : zero;
      const auto fa =
          nl.add_mirror_fa("csa" + std::to_string(i) + "_" + std::to_string(j),
                           pp[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], sum_in,
                           c[static_cast<std::size_t>(j)]);
      s_next[static_cast<std::size_t>(j)] = fa.sum;
      c_next[static_cast<std::size_t>(j)] = fa.cout;
    }
    s = std::move(s_next);
    c = std::move(c_next);
    mult.p.push_back(s[0]);  // p_i
  }

  // Final vector-merge row: ripple-add the leftover row sums (weight
  // 2^(n+j)) and carries (same weight) to produce p_n .. p_{2n-1}.  The
  // carry out of the last merge cell has weight 2^(2n) and is always 0
  // for an n x n product ((2^n - 1)^2 < 2^(2n)), so it is left dangling.
  NetId ripple_carry = zero;
  for (int j = 0; j < nbits; ++j) {
    const NetId sum_in = (j + 1 < nbits) ? s[static_cast<std::size_t>(j + 1)] : zero;
    const auto fa = nl.add_mirror_fa("vm" + std::to_string(j), sum_in,
                                     c[static_cast<std::size_t>(j)], ripple_carry);
    mult.p.push_back(fa.sum);
    ripple_carry = fa.cout;
  }
  ensure(static_cast<int>(mult.p.size()) == 2 * nbits, "csa multiplier: product width mismatch");

  for (NetId p : mult.p) nl.add_load(p, output_load);
  return mult;
}

WallaceMultiplier make_wallace_multiplier(const Technology& tech, int nbits,
                                          double output_load) {
  require(nbits >= 2, "make_wallace_multiplier: nbits must be >= 2");
  WallaceMultiplier mult{Netlist(tech), {}, {}, {}, 0};
  Netlist& nl = mult.netlist;
  for (int i = 0; i < nbits; ++i) mult.x.push_back(nl.add_input(indexed("x", i)));
  for (int i = 0; i < nbits; ++i) mult.y.push_back(nl.add_input(indexed("y", i)));
  const NetId zero = nl.net("const0");

  // Dot matrix: columns[w] = nets of weight 2^w.
  std::vector<std::vector<NetId>> columns(static_cast<std::size_t>(2 * nbits));
  for (int i = 0; i < nbits; ++i) {
    for (int j = 0; j < nbits; ++j) {
      columns[static_cast<std::size_t>(i + j)].push_back(
          nl.add_and2("pp" + std::to_string(i) + "_" + std::to_string(j),
                      mult.x[static_cast<std::size_t>(j)], mult.y[static_cast<std::size_t>(i)]));
    }
  }

  // 3:2 reduction layers until every column holds at most two dots.
  int layer = 0;
  auto too_tall = [&] {
    for (const auto& col : columns) {
      if (col.size() > 2) return true;
    }
    return false;
  };
  while (too_tall()) {
    std::vector<std::vector<NetId>> next(columns.size());
    for (std::size_t w = 0; w < columns.size(); ++w) {
      const auto& col = columns[w];
      std::size_t i = 0;
      int cell = 0;
      while (col.size() - i >= 3) {
        const auto fa = nl.add_mirror_fa(
            indexed("w", layer) + "_" + std::to_string(w) + "_" + std::to_string(cell++),
            col[i], col[i + 1], col[i + 2]);
        next[w].push_back(fa.sum);
        if (w + 1 < next.size()) next[w + 1].push_back(fa.cout);
        i += 3;
      }
      if (col.size() - i == 2) {
        // Half adder: a full adder with carry-in tied low.
        const auto ha = nl.add_mirror_fa(
            indexed("w", layer) + "_" + std::to_string(w) + "_h", col[i], col[i + 1], zero);
        next[w].push_back(ha.sum);
        if (w + 1 < next.size()) next[w + 1].push_back(ha.cout);
        i += 2;
      }
      for (; i < col.size(); ++i) next[w].push_back(col[i]);
    }
    columns = std::move(next);
    ++layer;
  }
  mult.reduction_layers = layer;

  // Final carry-propagate over the remaining <= 2 dots per column.
  NetId carry = zero;
  for (std::size_t w = 0; w < columns.size(); ++w) {
    const auto& col = columns[w];
    const NetId a = col.empty() ? zero : col[0];
    const NetId b = (col.size() > 1) ? col[1] : zero;
    const auto fa = nl.add_mirror_fa("cpa" + std::to_string(w), a, b, carry);
    mult.p.push_back(fa.sum);
    carry = fa.cout;
  }
  ensure(static_cast<int>(mult.p.size()) == 2 * nbits,
         "wallace multiplier: product width mismatch");
  for (const NetId p : mult.p) nl.add_load(p, output_load);
  return mult;
}

ParityTree make_parity_tree(const Technology& tech, int nbits, double output_load) {
  require(nbits >= 2, "make_parity_tree: nbits must be >= 2");
  ParityTree tree{Netlist(tech), {}, -1, 0};
  Netlist& nl = tree.netlist;
  for (int i = 0; i < nbits; ++i) tree.inputs.push_back(nl.add_input(indexed("p", i)));

  std::vector<NetId> level = tree.inputs;
  const NetId zero = nl.net("const0");
  int depth = 0;
  while (level.size() > 1) {
    if (level.size() % 2 != 0) level.push_back(zero);
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(nl.add_xor2(
          indexed("x", depth) + "_" + std::to_string(i / 2), level[i], level[i + 1]));
    }
    level = std::move(next);
    ++depth;
  }
  tree.output = level.front();
  tree.depth = depth;
  nl.add_load(tree.output, output_load);
  return tree;
}

InverterChain make_inverter_chain(const Technology& tech, int stages, double stage_load) {
  require(stages >= 1, "make_inverter_chain: stages must be >= 1");
  InverterChain chain{Netlist(tech), -1, {}};
  Netlist& nl = chain.netlist;
  chain.input = nl.add_input("in");
  NetId prev = chain.input;
  for (int i = 0; i < stages; ++i) {
    prev = nl.add_inv("inv" + std::to_string(i), prev);
    nl.add_load(prev, stage_load);
    chain.outputs.push_back(prev);
  }
  return chain;
}

}  // namespace mtcmos::circuits
