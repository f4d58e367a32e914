// Tests for the SoA batch kernel (core/vbs_batch.hpp): bit-identity with
// the scalar VbsSimulator across every VbsOptions extension, multi-domain
// partitions (an ideal-ground domain among them) and batch sizes, on the
// 3-bit adder and the 4-bit CSA and Wallace multipliers, the R = 0
// baseline, wide netlists (> 64 inputs, > 6 fanins), workspace reuse
// across netlists and after a failing batch, per-lane failure isolation
// at both of the kernel's failure stages, coded option validation, and
// (through EvalSession) batched rank on every pool size, batched
// kill-and-resume, group-committed journals, the fault-plan stand-down,
// the wide-key resume and repeated keys racing the journal.  Every entry
// point, batched vs scalar: contract_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuits/generators.hpp"
#include "core/vbs.hpp"
#include "core/vbs_batch.hpp"
#include "models/sleep_transistor.hpp"
#include "models/technology.hpp"
#include "netlist/bits.hpp"
#include "netlist/netlist.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/session.hpp"
#include "sizing/sizing.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "contract.hpp"
#include "scratch_dir.hpp"

namespace mtcmos::core {
namespace {

using circuits::make_ripple_adder;
using sizing::VectorPair;

struct AdderFixture {
  circuits::RippleAdder adder;
  std::vector<std::string> outs;
  std::vector<VectorPair> pairs;

  explicit AdderFixture(int nbits = 3) : adder(make_ripple_adder(tech07(), nbits)) {
    for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
    outs.push_back(adder.netlist.net_name(adder.cout));
    pairs = sizing::all_vector_pairs(2 * nbits);
  }
};

std::vector<VbsBatchItem> make_items(const std::vector<VectorPair>& pairs) {
  std::vector<VbsBatchItem> items;
  items.reserve(pairs.size());
  for (const VectorPair& p : pairs) items.push_back({&p.v0, &p.v1});
  return items;
}

/// Runs the batch kernel in chunks of `batch` through `bws` and requires
/// every lane to equal the scalar critical_delay bit-for-bit.
void expect_bit_identical(const VbsSimulator& sim, const std::vector<VectorPair>& pairs,
                          const std::vector<std::string>& outs, std::size_t batch,
                          VbsBatchWorkspace& bws) {
  const VbsBatchSimulator batch_sim(sim);
  const std::vector<VbsBatchItem> items = make_items(pairs);
  std::vector<VbsLaneResult> results(items.size());
  for (std::size_t off = 0; off < items.size(); off += batch) {
    const std::size_t n = std::min(batch, items.size() - off);
    batch_sim.critical_delays(items.data() + off, n, outs, bws, results.data() + off);
  }
  VbsWorkspace ws;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double scalar = sim.critical_delay(pairs[i].v0, pairs[i].v1, outs, ws);
    ASSERT_TRUE(results[i].ok) << "lane " << i << ": " << results[i].failure.message();
    // Bit-identity, not near-equality: the batch kernel replays the
    // scalar floating-point sequence exactly.
    EXPECT_EQ(results[i].delay, scalar) << "lane " << i;
  }
}

void expect_bit_identical(const VbsSimulator& sim, const std::vector<VectorPair>& pairs,
                          const std::vector<std::string>& outs, std::size_t batch) {
  VbsBatchWorkspace bws;
  expect_bit_identical(sim, pairs, outs, batch, bws);
}

TEST(VbsBatch, BitIdenticalAcrossBatchSizes) {
  const AdderFixture fx;
  VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), 8.0).reff();
  const VbsSimulator sim(fx.adder.netlist, opt);
  // Subsample for the small sizes; the full sweep runs once at 64.
  std::vector<VectorPair> sample;
  for (std::size_t i = 0; i < fx.pairs.size(); i += 17) sample.push_back(fx.pairs[i]);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
    expect_bit_identical(sim, sample, fx.outs, batch);
  }
  expect_bit_identical(sim, fx.pairs, fx.outs, 64);
  expect_bit_identical(sim, fx.pairs, fx.outs, fx.pairs.size());  // full sweep, one batch
}

TEST(VbsBatch, ChunkedSamplesAreBitIdentical) {
  // The sampled sweep in chunks of 32 (neither the per-lane nor the
  // whole-sweep extreme), then the everything-on extension config, where
  // the general-alpha solve and reverse-conduction paths diverge most.
  const AdderFixture fx;
  VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), 8.0).reff();
  const VbsSimulator sim(fx.adder.netlist, opt);
  std::vector<VectorPair> sample;
  for (std::size_t i = 0; i < fx.pairs.size(); i += 17) sample.push_back(fx.pairs[i]);
  expect_bit_identical(sim, sample, fx.outs, 32);
  VbsOptions all;
  all.sleep_resistance = SleepTransistor(tech07(), 6.0).reff();
  all.body_effect = true;
  all.virtual_ground_cap = 5e-12;
  all.reverse_conduction = true;
  all.alpha = 1.5;
  all.input_slope_factor = 0.2;
  const VbsSimulator sim_all(fx.adder.netlist, all);
  std::vector<VectorPair> thin;
  for (std::size_t i = 0; i < fx.pairs.size(); i += 41) thin.push_back(fx.pairs[i]);
  expect_bit_identical(sim_all, thin, fx.outs, 32);
}

TEST(VbsBatch, RandomizedMixedSettleVectorsAreBitIdentical) {
  // Randomized vector sets stress the cohort scheduler where the ordered
  // all-pairs sweep does not: lanes settle at wildly different round
  // counts (compaction retires them out of order), v0 groups repeat
  // non-contiguously (Hamming-incremental settling walks arbitrary
  // cones), and v0 == v1 lanes finish without a single breakpoint.
  const AdderFixture fx;
  VbsOptions opt;
  opt.sleep_resistance = SleepTransistor(tech07(), 8.0).reff();
  const VbsSimulator sim(fx.adder.netlist, opt);
  mtcmos::Rng rng(20260807);
  const auto random_bits = [&](std::size_t n) {
    std::vector<bool> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = rng.coin();
    return v;
  };
  std::vector<VectorPair> pairs;
  for (int i = 0; i < 160; ++i) {
    VectorPair p;
    p.v0 = random_bits(6);
    p.v1 = (i % 9 == 0) ? p.v0 : random_bits(6);  // some no-op transitions
    pairs.push_back(std::move(p));
  }
  // A chunk size that does not divide the set exercises the tail chunk.
  expect_bit_identical(sim, pairs, fx.outs, 48);
}

TEST(VbsBatch, WorkspaceReuseAcrossNetlistsAtOneAddress) {
  // A workspace outlives every netlist it serves (the sizing backends keep
  // one per thread).  A netlist built where a freed one lived -- same
  // address, same gate count, different gate function -- must still be
  // simulated with its own pulldown truth tables.
  const auto pairs = sizing::all_vector_pairs(2);
  VbsBatchWorkspace bws;               // shared, like a thread_local one
  std::optional<netlist::Netlist> nl;  // one slot: both netlists share an address
  for (const bool nand : {true, false}) {
    SCOPED_TRACE(nand ? "nand2" : "nor2");
    nl.emplace(tech07());
    const netlist::NetId a = nl->add_input("a");
    const netlist::NetId b = nl->add_input("b");
    const netlist::NetId y = nand ? nl->add_nand2("g", a, b) : nl->add_nor2("g", a, b);
    VbsOptions opt;
    opt.sleep_resistance = 1500.0;
    const VbsSimulator sim(*nl, opt);
    expect_bit_identical(sim, pairs, {nl->net_name(y)}, pairs.size(), bws);
  }
}

TEST(VbsBatch, MoreThanSixtyFourInputsAreBitIdentical) {
  // 66 inputs do not fit a packed u64 v0 key, so settle groups are found
  // by comparing whole vectors and every new group is settled in full.
  // Six v0s, interleaved, each repeat across the chunks (shared-prefix
  // reuse); the v1s flip a random handful of bits.
  const circuits::RippleAdder adder = make_ripple_adder(tech07(), 33);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  const std::size_t n_in = adder.netlist.inputs().size();
  ASSERT_GT(n_in, 64u);
  mtcmos::Rng rng(20261017);
  std::vector<std::vector<bool>> v0s(6, std::vector<bool>(n_in));
  for (auto& v : v0s) {
    for (std::size_t i = 0; i < n_in; ++i) v[i] = rng.coin();
  }
  std::vector<VectorPair> pairs;
  for (std::size_t i = 0; i < 48; ++i) {
    VectorPair p;
    p.v0 = v0s[i % v0s.size()];
    p.v1 = p.v0;
    for (int f = 0; f < 4; ++f) {
      const std::size_t bit = rng.uniform_int(0, n_in - 1);
      p.v1[bit] = !p.v1[bit];
    }
    pairs.push_back(std::move(p));
  }
  for (const double alpha : {2.0, 1.5}) {
    SCOPED_TRACE(alpha);
    VbsOptions opt;
    opt.sleep_resistance = SleepTransistor(tech07(), 8.0).reff();
    opt.alpha = alpha;
    const VbsSimulator sim(adder.netlist, opt);
    expect_bit_identical(sim, pairs, outs, 16);
  }
}

TEST(VbsBatch, GatesWiderThanSixFaninsAreBitIdentical) {
  // A 7-input series pulldown has no 64-bit truth table, so settling and
  // re-evaluation fall back to the expression walk for that gate.  Every
  // transition into or out of the all-ones vector toggles the NAND7.
  netlist::Netlist nl(tech07());
  std::vector<netlist::NetId> ins;
  std::vector<netlist::SpExpr> series;
  for (int i = 0; i < 7; ++i) {
    ins.push_back(nl.add_input("x" + std::to_string(i)));
    series.push_back(netlist::SpExpr::input(i));
  }
  const netlist::NetId n7 = nl.net("nand7.out");
  nl.add_gate("nand7", netlist::SpExpr::series(std::move(series)), ins, n7);
  const netlist::NetId y = nl.add_inv("inv", n7);
  const std::vector<std::string> outs = {nl.net_name(n7), nl.net_name(y)};

  const std::vector<bool> ones(7, true);
  std::vector<VectorPair> pairs;
  for (std::uint64_t v = 0; v < 128; ++v) {
    const std::vector<bool> bits = netlist::bits_from_uint(v, 7);
    pairs.push_back({ones, bits});
    pairs.push_back({bits, ones});
  }
  for (const bool body_effect : {false, true}) {
    SCOPED_TRACE(body_effect);
    VbsOptions opt;
    opt.sleep_resistance = 1500.0;
    opt.body_effect = body_effect;
    const VbsSimulator sim(nl, opt);
    expect_bit_identical(sim, pairs, outs, 32);
  }
}

TEST(VbsBatch, BitIdenticalForEveryExtension) {
  const AdderFixture fx;
  std::vector<VectorPair> sample;
  for (std::size_t i = 0; i < fx.pairs.size(); i += 13) sample.push_back(fx.pairs[i]);

  const double r = SleepTransistor(tech07(), 6.0).reff();
  std::vector<std::pair<std::string, VbsOptions>> variants;
  {
    VbsOptions o;
    o.sleep_resistance = r;
    o.body_effect = true;
    variants.emplace_back("body_effect", o);
  }
  {
    VbsOptions o;
    o.sleep_resistance = r;
    o.virtual_ground_cap = 20e-12;
    variants.emplace_back("virtual_ground_cap", o);
  }
  {
    VbsOptions o;
    o.sleep_resistance = r;
    o.reverse_conduction = true;
    variants.emplace_back("reverse_conduction", o);
  }
  {
    VbsOptions o;
    o.sleep_resistance = r;
    o.alpha = 1.3;
    variants.emplace_back("alpha_1.3", o);
  }
  {
    VbsOptions o;
    o.sleep_resistance = r;
    o.input_slope_factor = 0.3;
    variants.emplace_back("input_slope", o);
  }
  {
    VbsOptions o;  // everything on at once
    o.sleep_resistance = r;
    o.body_effect = true;
    o.virtual_ground_cap = 5e-12;
    o.reverse_conduction = true;
    o.alpha = 1.5;
    o.input_slope_factor = 0.2;
    variants.emplace_back("all_extensions", o);
  }
  for (const auto& [name, opt] : variants) {
    SCOPED_TRACE(name);
    const VbsSimulator sim(fx.adder.netlist, opt);
    expect_bit_identical(sim, sample, fx.outs, 32);
  }
}

TEST(VbsBatch, BitIdenticalOnMultiDomainNetlists) {
  const AdderFixture fx;
  std::vector<VectorPair> sample;
  for (std::size_t i = 0; i < fx.pairs.size(); i += 13) sample.push_back(fx.pairs[i]);
  // Alternate gates across two sleep devices with distinct resistances.
  std::vector<int> gate_domain(static_cast<std::size_t>(fx.adder.netlist.gate_count()));
  for (std::size_t g = 0; g < gate_domain.size(); ++g) gate_domain[g] = static_cast<int>(g % 2);
  VbsOptions opt;
  opt.reverse_conduction = true;  // exercise per-domain target_low too
  const VbsSimulator sim(fx.adder.netlist, opt, gate_domain,
                         {SleepTransistor(tech07(), 5.0).reff(),
                          SleepTransistor(tech07(), 11.0).reff()});
  expect_bit_identical(sim, sample, fx.outs, 32);
}

// The 12-gate adder keeps every drive row dense and the set of gates
// driving in a round small.  The 4-bit multipliers (96+ gates, a handful
// driving per lane at each breakpoint) give the round's cell list long
// sparse runs instead.
struct WideFixture {
  std::string name;
  netlist::Netlist nl;
  std::vector<std::string> outs;
  std::vector<VectorPair> pairs;
};

std::vector<WideFixture> wide_fixtures() {
  std::vector<WideFixture> fxs;
  const auto add = [&](std::string name, netlist::Netlist nl,
                       const std::vector<netlist::NetId>& products, std::uint64_t seed) {
    std::vector<std::string> outs;
    for (const netlist::NetId p : products) outs.push_back(nl.net_name(p));
    mtcmos::Rng rng(seed);
    const int n_in = static_cast<int>(nl.inputs().size());
    fxs.push_back({std::move(name), std::move(nl), std::move(outs),
                   sizing::sampled_vector_pairs(n_in, 263, rng)});
  };
  circuits::CsaMultiplier mult = circuits::make_csa_multiplier(tech03(), 4);
  add("mult4", std::move(mult.netlist), mult.p, 20261017);
  circuits::WallaceMultiplier wallace = circuits::make_wallace_multiplier(tech03(), 4);
  add("wallace4", std::move(wallace.netlist), wallace.p, 20261018);
  return fxs;
}

/// One scalar reference, then the batch kernel at batch 256 (one full
/// chunk and a tail) and at batch 7 (many short chunks).
void expect_wide_bit_identical(const VbsSimulator& sim, const WideFixture& fx) {
  const VbsBatchSimulator batch_sim(sim);
  const std::vector<VbsBatchItem> items = make_items(fx.pairs);
  VbsWorkspace ws;
  std::vector<double> scalar(fx.pairs.size());
  for (std::size_t i = 0; i < fx.pairs.size(); ++i) {
    scalar[i] = sim.critical_delay(fx.pairs[i].v0, fx.pairs[i].v1, fx.outs, ws);
  }
  VbsBatchWorkspace bws;
  for (const std::size_t batch : {std::size_t{256}, std::size_t{7}}) {
    SCOPED_TRACE(batch);
    std::vector<VbsLaneResult> results(items.size());
    for (std::size_t off = 0; off < items.size(); off += batch) {
      const std::size_t n = std::min(batch, items.size() - off);
      batch_sim.critical_delays(items.data() + off, n, fx.outs, bws, results.data() + off);
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      ASSERT_TRUE(results[i].ok) << "lane " << i << ": " << results[i].failure.message();
      EXPECT_EQ(results[i].delay, scalar[i]) << "lane " << i;
    }
  }
}

TEST(VbsBatch, WideCircuitsAreBitIdenticalForEveryExtension) {
  const double r = SleepTransistor(tech03(), 10.0).reff();
  std::vector<std::pair<std::string, VbsOptions>> variants;
  const auto variant = [&](std::string name, auto&& set) {
    VbsOptions o;
    o.sleep_resistance = r;
    set(o);
    variants.emplace_back(std::move(name), o);
  };
  variant("default", [](VbsOptions&) {});
  variant("body_effect", [](VbsOptions& o) { o.body_effect = true; });
  variant("virtual_ground_cap", [](VbsOptions& o) { o.virtual_ground_cap = 20e-12; });
  variant("reverse_conduction", [](VbsOptions& o) { o.reverse_conduction = true; });
  variant("alpha_1.3", [](VbsOptions& o) { o.alpha = 1.3; });
  variant("input_slope", [](VbsOptions& o) { o.input_slope_factor = 0.3; });
  variant("all_extensions", [](VbsOptions& o) {
    o.body_effect = true;
    o.virtual_ground_cap = 5e-12;
    o.reverse_conduction = true;
    o.alpha = 1.5;
    o.input_slope_factor = 0.2;
  });
  for (const WideFixture& fx : wide_fixtures()) {
    for (const auto& [name, opt] : variants) {
      SCOPED_TRACE(fx.name + " " + name);
      const VbsSimulator sim(fx.nl, opt);
      expect_wide_bit_identical(sim, fx);
    }
  }
}

TEST(VbsBatch, WideCircuitsWithAnIdealGroundDomainAreBitIdentical) {
  // Domain 0 is ideal ground (R = 0), whose Eq. 5 solve never reads the
  // discharge beta, so the kernel skips accumulating it; domain 1 keeps a
  // real sleep device.  Body effect routes both through the deduped
  // iterative solve.
  for (const WideFixture& fx : wide_fixtures()) {
    std::vector<int> gate_domain(static_cast<std::size_t>(fx.nl.gate_count()));
    for (std::size_t g = 0; g < gate_domain.size(); ++g) gate_domain[g] = static_cast<int>(g % 2);
    for (const bool body_effect : {false, true}) {
      SCOPED_TRACE(fx.name + (body_effect ? " body_effect" : " default"));
      VbsOptions opt;
      opt.body_effect = body_effect;
      const VbsSimulator sim(fx.nl, opt, gate_domain,
                             {0.0, SleepTransistor(tech03(), 8.0).reff()});
      expect_wide_bit_identical(sim, fx);
    }
  }
}

TEST(VbsBatch, IdealGroundBaselineIsBitIdentical) {
  // The R = 0 CMOS baseline every degradation is measured against.
  for (const WideFixture& fx : wide_fixtures()) {
    SCOPED_TRACE(fx.name);
    const VbsSimulator sim(fx.nl, VbsOptions{});
    expect_wide_bit_identical(sim, fx);
  }
  const AdderFixture fx;
  const VbsSimulator sim(fx.adder.netlist, VbsOptions{});
  expect_bit_identical(sim, fx.pairs, fx.outs, 256);
}

TEST(VbsBatch, OutNameHandlingMatchesScalar) {
  const AdderFixture fx;
  VbsOptions opt;
  opt.sleep_resistance = 1500.0;
  const VbsSimulator sim(fx.adder.netlist, opt);
  // Inputs, an unknown name, and a duplicate all behave exactly as the
  // scalar Trace-based path: inputs contribute their ramp crossing,
  // unknown names are skipped.
  std::vector<std::string> outs = fx.outs;
  outs.push_back(fx.adder.netlist.net_name(fx.adder.netlist.inputs()[0]));
  outs.push_back("no_such_net");
  outs.push_back(fx.outs.front());
  std::vector<VectorPair> sample;
  for (std::size_t i = 0; i < fx.pairs.size(); i += 97) sample.push_back(fx.pairs[i]);
  expect_bit_identical(sim, sample, fx.outs, 16);
  expect_bit_identical(sim, sample, outs, 16);
}

TEST(VbsBatch, PerLaneFailuresMatchScalarThrows) {
  const AdderFixture fx;
  VbsOptions opt;
  opt.sleep_resistance = 2000.0;
  opt.max_breakpoints = 12;  // enough for short transitions, not for long ones
  const VbsSimulator sim(fx.adder.netlist, opt);
  const VbsBatchSimulator batch_sim(sim);
  std::vector<VectorPair> sample;
  for (std::size_t i = 0; i < fx.pairs.size(); i += 11) sample.push_back(fx.pairs[i]);
  const auto items = make_items(sample);
  VbsBatchWorkspace bws;
  std::vector<VbsLaneResult> results(items.size());
  batch_sim.critical_delays(items.data(), items.size(), fx.outs, bws, results.data());

  VbsWorkspace ws;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    double scalar = 0.0;
    bool threw = false;
    FailureInfo info;
    try {
      scalar = sim.critical_delay(sample[i].v0, sample[i].v1, fx.outs, ws);
    } catch (const NumericalError& e) {
      threw = true;
      info = e.info();
    }
    if (threw) {
      ++failures;
      ASSERT_FALSE(results[i].ok) << "lane " << i << " should fail like the scalar path";
      EXPECT_EQ(static_cast<int>(results[i].failure.code), static_cast<int>(info.code));
      EXPECT_EQ(results[i].failure.context, info.context);
    } else {
      ASSERT_TRUE(results[i].ok) << "lane " << i << ": " << results[i].failure.message();
      EXPECT_EQ(results[i].delay, scalar) << "lane " << i;
    }
  }
  // The budget must actually bite somewhere, and not everywhere, or this
  // test proves nothing about isolation.
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, sample.size());
}

/// The scalar outcome of one transition: its delay, or the failure the
/// scalar path throws.
struct ScalarOutcome {
  bool threw = false;
  double delay = 0.0;
  FailureInfo info;
};

std::vector<ScalarOutcome> scalar_outcomes(const VbsSimulator& sim,
                                           const std::vector<VectorPair>& pairs,
                                           const std::vector<std::string>& outs) {
  VbsWorkspace ws;
  std::vector<ScalarOutcome> out(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    try {
      out[i].delay = sim.critical_delay(pairs[i].v0, pairs[i].v1, outs, ws);
    } catch (const NumericalError& e) {
      out[i].threw = true;
      out[i].info = e.info();
    }
  }
  return out;
}

/// Runs `pairs` through the batch kernel in chunks of `batch` on `bws` and
/// requires every lane to match the scalar outcome: the same delay bits,
/// or the same failure code and context.
void expect_lanes_match_scalar(const VbsSimulator& sim, const std::vector<VectorPair>& pairs,
                               const std::vector<std::string>& outs,
                               const std::vector<ScalarOutcome>& scalar, std::size_t batch,
                               VbsBatchWorkspace& bws) {
  const VbsBatchSimulator batch_sim(sim);
  const std::vector<VbsBatchItem> items = make_items(pairs);
  std::vector<VbsLaneResult> results(items.size());
  for (std::size_t off = 0; off < items.size(); off += batch) {
    const std::size_t n = std::min(batch, items.size() - off);
    batch_sim.critical_delays(items.data() + off, n, outs, bws, results.data() + off);
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (scalar[i].threw) {
      ASSERT_FALSE(results[i].ok) << "lane " << i << " should fail like the scalar path";
      EXPECT_EQ(static_cast<int>(results[i].failure.code),
                static_cast<int>(scalar[i].info.code))
          << "lane " << i;
      EXPECT_EQ(results[i].failure.context, scalar[i].info.context) << "lane " << i;
    } else {
      ASSERT_TRUE(results[i].ok) << "lane " << i << ": " << results[i].failure.message();
      EXPECT_EQ(results[i].delay, scalar[i].delay) << "lane " << i;
    }
  }
}

std::size_t count_failures(const std::vector<ScalarOutcome>& scalar) {
  return static_cast<std::size_t>(std::count_if(
      scalar.begin(), scalar.end(), [](const ScalarOutcome& o) { return o.threw; }));
}

TEST(VbsBatch, WideCircuitLaneFailuresMatchScalarAtEveryStage) {
  // Lanes fail at both places the kernel checks: the breakpoint budget at
  // the top of a round (before the round's cells are listed), and a
  // breakpoint beyond t_max at termination (after they are listed, so the
  // failed lane still has driving cells when compaction gives its slot to
  // another lane).  Every other lane must be unaffected.
  const double r = SleepTransistor(tech03(), 10.0).reff();
  std::vector<std::pair<std::string, VbsOptions>> configs;
  VbsOptions budget;
  budget.sleep_resistance = r;
  budget.max_breakpoints = 40;  // about the median transition's count
  configs.emplace_back("max_breakpoints", budget);
  VbsOptions horizon;
  horizon.sleep_resistance = r;
  horizon.t_max = 1.4e-9;  // about the median transition's last breakpoint
  configs.emplace_back("t_max", horizon);
  for (const WideFixture& fx : wide_fixtures()) {
    for (const auto& [name, opt] : configs) {
      SCOPED_TRACE(fx.name + " " + name);
      const VbsSimulator sim(fx.nl, opt);
      const std::vector<ScalarOutcome> scalar = scalar_outcomes(sim, fx.pairs, fx.outs);
      const std::size_t failures = count_failures(scalar);
      EXPECT_GT(failures, 0u);
      EXPECT_LT(failures, fx.pairs.size());
      if (name == "t_max") {
        for (const ScalarOutcome& o : scalar) {
          if (o.threw) {
            EXPECT_EQ(o.info.context.rfind("breakpoint beyond t_max", 0), 0u) << o.info.context;
          }
        }
      }
      VbsBatchWorkspace bws;
      for (const std::size_t batch : {std::size_t{256}, std::size_t{7}}) {
        SCOPED_TRACE(batch);
        expect_lanes_match_scalar(sim, fx.pairs, fx.outs, scalar, batch, bws);
      }
    }
  }
}

TEST(VbsBatch, WorkspaceReusedAfterAFailingBatchIsBitIdentical) {
  // A batch whose lanes fail mid-run leaves the workspace's carried cell
  // list and scratch in a mid-round state; the next batches on the same
  // workspace must not see any of it.
  const std::vector<WideFixture> fxs = wide_fixtures();
  const WideFixture& mult4 = fxs.front();
  const double r = SleepTransistor(tech03(), 10.0).reff();
  VbsOptions failing;
  failing.sleep_resistance = r;
  failing.t_max = 1.4e-9;
  const VbsSimulator failing_sim(mult4.nl, failing);
  const std::vector<ScalarOutcome> failing_scalar =
      scalar_outcomes(failing_sim, mult4.pairs, mult4.outs);
  ASSERT_GT(count_failures(failing_scalar), 0u);

  VbsOptions clean;
  clean.sleep_resistance = r;
  const VbsSimulator clean_sim(mult4.nl, clean);
  const AdderFixture adder;
  VbsOptions adder_opt;
  adder_opt.sleep_resistance = 2000.0;
  const VbsSimulator adder_sim(adder.adder.netlist, adder_opt);

  VbsBatchWorkspace bws;
  {
    SCOPED_TRACE("failing mult4");
    expect_lanes_match_scalar(failing_sim, mult4.pairs, mult4.outs, failing_scalar, 256, bws);
  }
  {
    SCOPED_TRACE("clean adder3");
    const std::vector<ScalarOutcome> scalar =
        scalar_outcomes(adder_sim, adder.pairs, adder.outs);
    ASSERT_EQ(count_failures(scalar), 0u);
    expect_lanes_match_scalar(adder_sim, adder.pairs, adder.outs, scalar, 256, bws);
  }
  {
    SCOPED_TRACE("clean mult4");
    const std::vector<ScalarOutcome> scalar =
        scalar_outcomes(clean_sim, mult4.pairs, mult4.outs);
    ASSERT_EQ(count_failures(scalar), 0u);
    expect_lanes_match_scalar(clean_sim, mult4.pairs, mult4.outs, scalar, 256, bws);
  }
}

TEST(VbsBatch, OptionValidationIsCoded) {
  const AdderFixture fx;
  const auto expect_invalid = [&](VbsOptions opt) {
    try {
      const VbsSimulator sim(fx.adder.netlist, opt);
      FAIL() << "expected NumericalError(kInvalidArgument)";
    } catch (const NumericalError& e) {
      EXPECT_EQ(static_cast<int>(e.info().code),
                static_cast<int>(FailureCode::kInvalidArgument));
      EXPECT_EQ(e.info().site, "core::VbsSimulator");
    }
  };
  VbsOptions opt;
  opt.sleep_resistance = -1.0;
  expect_invalid(opt);
  opt = VbsOptions{};
  opt.virtual_ground_cap = -1e-12;
  expect_invalid(opt);
  opt = VbsOptions{};
  opt.input_ramp = -1e-12;
  expect_invalid(opt);
  opt = VbsOptions{};
  opt.alpha = 0.0;
  expect_invalid(opt);
  opt = VbsOptions{};
  opt.alpha = 2.5;
  expect_invalid(opt);
  opt = VbsOptions{};
  opt.input_slope_factor = -0.1;
  expect_invalid(opt);
}

// --- EvalSession integration ---

using mtcmos::Rng;
using sizing::EvalSession;
using sizing::VbsBackend;

TEST(VbsBatchSession, EveryThreadCountIsBitIdenticalToScalar) {
  // threads x batch scaling: the chunked batch precompute on a pool of
  // 1..8 workers must reproduce the single-threaded scalar sweep
  // bit-for-bit -- chunks land in index-addressed slots, so scheduling
  // order must never leak into the results.
  const AdderFixture fx(2);
  const VbsBackend backend(fx.adder.netlist, fx.outs);

  EvalSession scalar;
  scalar.batch = 1;
  const auto reference = sizing::rank_vectors(backend, fx.pairs, 10.0, scalar);

  for (int threads = 1; threads <= 8; ++threads) {
    SCOPED_TRACE(threads);
    util::ThreadPool pool(threads);
    EvalSession batched;
    batched.pool = &pool;
    batched.batch = 16;  // several chunks per worker at every pool size
    EXPECT_TRUE(test::same(sizing::rank_vectors(backend, fx.pairs, 10.0, batched), reference));
  }
}

TEST(VbsBatchSession, KilledBatchedRankResumesBitIdentically) {
  // Kill a *batched* checkpointed sweep mid-journal, then resume with the
  // batch path still enabled: the resume re-forms batches from the items
  // the journal does not hold, and the merged results and report must be
  // bit-identical to an uninterrupted scalar run.
  const AdderFixture fx(2);
  const VbsBackend backend(fx.adder.netlist, fx.outs);
  const auto dir = test::scratch_dir("vbs_batch_session");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "rank.mtj").string();

  SweepReport ref_report;
  EvalSession scalar;
  scalar.batch = 1;
  scalar.report = &ref_report;
  const auto reference = sizing::rank_vectors(backend, fx.pairs, 10.0, scalar);

  {
    sizing::Checkpoint killed;
    killed.open(path);
    EvalSession session;
    session.batch = 32;
    session.checkpoint = &killed;
    faultinject::arm(faultinject::Site::kJournalAppend, /*scope=*/5, /*fail_hits=*/1);
    EXPECT_THROW(sizing::rank_vectors(backend, fx.pairs, 10.0, session), NumericalError);
    faultinject::disarm_all();
    EXPECT_LT(killed.journal().size(), fx.pairs.size());
    killed.journal().close();
  }

  sizing::Checkpoint resumed;
  resumed.open(path);
  SweepReport report;
  EvalSession resume_session;
  resume_session.batch = 32;
  resume_session.checkpoint = &resumed;
  resume_session.report = &report;
  EXPECT_TRUE(test::same(sizing::rank_vectors(backend, fx.pairs, 10.0, resume_session), reference));
  EXPECT_EQ(report.total, ref_report.total);
  EXPECT_EQ(report.succeeded + report.recovered, ref_report.succeeded + ref_report.recovered);
  EXPECT_EQ(report.failed, ref_report.failed);
  std::filesystem::remove_all(dir);
}

TEST(VbsBatchSession, KilledRandomizedRankResumesBitIdentically) {
  // Kill-and-resume over a *randomized* vector order (with no-op
  // v0 == v1 transitions mixed in): the journal holds an arbitrary
  // subset, so the resume re-forms batches from a ragged remainder whose
  // settle groups no longer arrive in sweep order.
  const AdderFixture fx(2);
  const VbsBackend backend(fx.adder.netlist, fx.outs);
  std::vector<VectorPair> pairs = fx.pairs;
  Rng rng(97);
  for (std::size_t i = pairs.size() - 1; i > 0; --i) {
    std::swap(pairs[i], pairs[rng.uniform_int(0, i)]);
  }
  pairs.resize(96);
  for (std::size_t i = 0; i < 96; i += 16) pairs[i].v1 = pairs[i].v0;  // no-op lanes

  const auto dir = test::scratch_dir("vbs_batch_rand");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "rank.mtj").string();

  EvalSession scalar;
  scalar.batch = 1;
  const auto reference = sizing::rank_vectors(backend, pairs, 10.0, scalar);

  {
    sizing::Checkpoint killed;
    killed.open(path);
    EvalSession session;
    session.batch = 24;
    session.checkpoint = &killed;
    faultinject::arm(faultinject::Site::kJournalAppend, /*scope=*/7, /*fail_hits=*/1);
    EXPECT_THROW(sizing::rank_vectors(backend, pairs, 10.0, session), NumericalError);
    faultinject::disarm_all();
    EXPECT_LT(killed.journal().size(), pairs.size());
    killed.journal().close();
  }

  sizing::Checkpoint resumed;
  resumed.open(path);
  EvalSession resume_session;
  resume_session.batch = 24;
  resume_session.checkpoint = &resumed;
  EXPECT_TRUE(test::same(sizing::rank_vectors(backend, pairs, 10.0, resume_session), reference));
  std::filesystem::remove_all(dir);
}

std::map<std::string, std::string> journal_contents(const sizing::Checkpoint& ckpt) {
  std::map<std::string, std::string> out;
  ckpt.journal().for_each(
      [&](const std::string& key, const std::string& value) { out.emplace(key, value); });
  return out;
}

TEST(VbsBatchSession, GroupCommittedJournalMatchesSerialScalarJournal) {
  // The batch path commits records in groups from four workers; the
  // serial scalar path commits them one item at a time.  Both journals
  // must hold exactly the same (key, value) set, for every entry point.
  const AdderFixture fx(2);
  const VbsBackend backend(fx.adder.netlist, fx.outs);
  const auto dir = test::scratch_dir("vbs_batch_group");
  std::filesystem::create_directories(dir);

  const auto sweep_all = [&](util::ThreadPool& pool, std::size_t batch, const std::string& name) {
    sizing::Checkpoint ckpt;
    ckpt.open((dir / name).string());
    EvalSession session;
    session.pool = &pool;
    session.batch = batch;
    session.checkpoint = &ckpt;
    (void)sizing::rank_vectors(backend, fx.pairs, 10.0, session);
    (void)sizing::size_for_degradation(backend, fx.pairs, 5.0, {}, session);
    Rng rng(42);
    (void)sizing::search_worst_vector(backend, 8.0, 100, rng, session);
    (void)sizing::screen_vectors(fx.adder.netlist, fx.pairs, 8, session);
    return journal_contents(ckpt);
  };
  util::ThreadPool serial(1), threaded(4);
  const auto want = sweep_all(serial, 1, "serial.mtj");
  const auto got = sweep_all(threaded, 0, "threaded.mtj");
  EXPECT_GT(want.size(), fx.pairs.size());
  EXPECT_TRUE(got == want) << got.size() << " records vs " << want.size();
  std::filesystem::remove_all(dir);
}

TEST(VbsBatchSession, VbsSiteFaultPlansForceTheScalarPath) {
  // A plan against a VBS site addresses a per-item scope, which the
  // batch kernel cannot honor; the sweep must stand down to the scalar
  // path so the plan fires against exactly its item and the retry
  // recovers it.
  const AdderFixture fx(2);
  const VbsBackend backend(fx.adder.netlist, fx.outs);
  EvalSession session;  // batch = 0: auto, but the armed plan disables it
  SweepReport report;
  session.report = &report;
  faultinject::arm(faultinject::Site::kVbsRun, /*scope=*/3, /*fail_hits=*/1);
  const auto ranked = sizing::rank_vectors(backend, fx.pairs, 10.0, session);
  faultinject::disarm_all();
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.recovered, 1u);  // item 3 failed once, retried, succeeded
  EXPECT_EQ(ranked.size(), sizing::rank_vectors(backend, fx.pairs, 10.0).size());
}

TEST(VbsBatchSession, MoreThanSixtyFourInputsResumeBitIdentically) {
  // 67 inputs pack into two words per vector, the typed item store's wide
  // key path: a killed journaled rank resumes to the uninterrupted
  // ranking, and a third run replays every item.
  const circuits::RippleAdder adder = make_ripple_adder(tech07(), 33);
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  const std::size_t n_in = adder.netlist.inputs().size();
  ASSERT_GT(n_in, 64u);
  Rng rng(20261017);
  std::vector<VectorPair> pairs(6);
  for (VectorPair& p : pairs) {
    p.v0.resize(n_in);
    for (std::size_t i = 0; i < n_in; ++i) p.v0[i] = rng.coin();
    p.v1 = p.v0;
    for (int f = 0; f < 4; ++f) {
      const std::size_t bit = rng.uniform_int(0, n_in - 1);
      p.v1[bit] = !p.v1[bit];
    }
  }
  const VbsBackend backend(adder.netlist, outs);
  const auto reference = sizing::rank_vectors(backend, pairs, 10.0);
  const auto dir = test::scratch_dir("vbs_batch_wide");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "wide.mtj").string();
  util::ThreadPool serial(1);
  {
    sizing::Checkpoint killed;
    killed.open(path);
    EvalSession session;
    session.pool = &serial;
    session.batch = 2;  // commit groups of two
    session.checkpoint = &killed;
    faultinject::arm(faultinject::Site::kJournalAppend, /*scope=*/3, /*fail_hits=*/1);
    EXPECT_THROW(sizing::rank_vectors(backend, pairs, 10.0, session), NumericalError);
    faultinject::disarm_all();
    EXPECT_EQ(killed.journal().size(), 2u);  // the group holding item 3 was lost
  }
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    sizing::Checkpoint resumed;
    resumed.open(path);
    EXPECT_EQ(resumed.journal().replayed_records(), run == 0 ? 2u : pairs.size());
    EvalSession session;
    session.checkpoint = &resumed;
    EXPECT_TRUE(test::same(sizing::rank_vectors(backend, pairs, 10.0, session), reference));
    EXPECT_EQ(resumed.journal().size(), pairs.size());
  }
  std::filesystem::remove_all(dir);
}

TEST(VbsBatchSession, RepeatedTransitionsRaceNoJournalReader) {
  // Each transition appears four times in a row, so workers running
  // neighbouring items look up a key while another worker commits (and
  // overwrites) the same key.  Journal::find copies the value under the
  // lock; under TSan this is the reader/writer race check.  Per-item
  // commits (batch = 1) and groups that straddle the repeats (batch = 3)
  // both replay and record bit-identically.  Fresh journals over several
  // rounds give the schedule more chances to interleave.
  const AdderFixture fx(2);
  const VbsBackend backend(fx.adder.netlist, fx.outs);
  std::vector<VectorPair> repeated;
  for (const VectorPair& vp : fx.pairs) repeated.insert(repeated.end(), 4, vp);
  EvalSession plain;
  plain.batch = 1;
  const auto reference = sizing::rank_vectors(backend, repeated, 10.0, plain);

  const auto dir = test::scratch_dir("vbs_batch_repeat");
  std::filesystem::create_directories(dir);
  util::ThreadPool pool(4);
  for (int run = 0; run < 8; ++run) {
    SCOPED_TRACE(run);
    sizing::Checkpoint ckpt;
    ckpt.open((dir / ("repeat" + std::to_string(run) + ".mtj")).string());
    EvalSession session;
    session.pool = &pool;
    session.batch = run % 2 == 0 ? 1 : 3;
    session.checkpoint = &ckpt;
    EXPECT_TRUE(test::same(sizing::rank_vectors(backend, repeated, 10.0, session), reference));
    EXPECT_EQ(ckpt.journal().size(), fx.pairs.size());
    EXPECT_TRUE(test::same(sizing::rank_vectors(backend, repeated, 10.0, session), reference));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mtcmos::core
