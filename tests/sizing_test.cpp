// Tests for the sizing methodologies: baselines, bisection sizing,
// vector-space enumeration/sampling, ranking, and worst-vector search.

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "models/sleep_transistor.hpp"
#include "netlist/bits.hpp"
#include "sizing/sizing.hpp"
#include "util/units.hpp"

namespace mtcmos::sizing {
namespace {

using circuits::make_ripple_adder;
using netlist::bits_from_uint;
using netlist::concat_bits;
using mtcmos::units::fF;

std::vector<std::string> adder_outputs(const circuits::RippleAdder& adder) {
  std::vector<std::string> outs;
  for (const auto s : adder.sum) outs.push_back(adder.netlist.net_name(s));
  outs.push_back(adder.netlist.net_name(adder.cout));
  return outs;
}

VectorPair adder_pair(std::uint64_t a0, std::uint64_t b0, std::uint64_t a1, std::uint64_t b1,
                      int n) {
  return {concat_bits(bits_from_uint(a0, n), bits_from_uint(b0, n)),
          concat_bits(bits_from_uint(a1, n), bits_from_uint(b1, n))};
}

TEST(Baselines, SumOfWidthsIsHuge) {
  const auto adder = make_ripple_adder(tech07(), 3);
  const double wl = sum_of_widths_wl(adder.netlist);
  // 42 NMOS transistors of default width 3 Lmin.
  EXPECT_NEAR(wl, 42.0 * 3.0, 1e-9);
}

TEST(Baselines, PeakCurrentSizingMatchesPaperExample) {
  // Section 4: 1.174 mA fixed current, 50 mV budget, 0.3 um process ->
  // "W/L greater than 500" by the paper's arithmetic; our textbook kp
  // lands in the same few-hundred region.
  const double wl = peak_current_wl(tech03(), 1.174e-3, 0.05);
  EXPECT_GT(wl, 200.0);
  EXPECT_LT(wl, 1500.0);
}

TEST(Baselines, PeakCurrentSizingScales) {
  const double wl1 = peak_current_wl(tech03(), 1e-3, 0.05);
  const double wl2 = peak_current_wl(tech03(), 2e-3, 0.05);
  const double wl3 = peak_current_wl(tech03(), 1e-3, 0.10);
  EXPECT_NEAR(wl2 / wl1, 2.0, 1e-9);  // linear in current
  EXPECT_NEAR(wl3 / wl1, 0.5, 1e-9);  // inverse in budget
  EXPECT_THROW(peak_current_wl(tech03(), -1.0, 0.05), std::invalid_argument);
}

TEST(Baselines, MeasuredPeakCurrentPositiveAndVectorDependent) {
  const auto adder = make_ripple_adder(tech07(), 3);
  // A mass 000+000 -> 111+111 transition moves much more current than a
  // single-LSB change.
  const double big = measure_peak_current(adder.netlist, adder_pair(0, 0, 7, 7, 3));
  const double small = measure_peak_current(adder.netlist, adder_pair(0, 0, 1, 0, 3));
  EXPECT_GT(big, 0.0);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(big, 1.5 * small);
}

TEST(DelayEval, CmosDelayIndependentOfWl) {
  const auto adder = make_ripple_adder(tech07(), 3);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const VectorPair vp = adder_pair(0, 0, 7, 1, 3);
  const double d0 = eval.delay_baseline(vp);
  EXPECT_GT(d0, 0.0);
  EXPECT_GT(eval.delay_at_wl(vp, 5.0), d0);
  EXPECT_GT(eval.delay_at_wl(vp, 5.0), eval.delay_at_wl(vp, 50.0));
}

TEST(DelayEval, DegradationShrinksWithWl) {
  const auto adder = make_ripple_adder(tech07(), 3);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const VectorPair vp = adder_pair(0, 0, 7, 1, 3);
  double prev = 1e9;
  for (double wl : {5.0, 10.0, 20.0, 80.0}) {
    const double deg = eval.degradation_pct(vp, wl);
    EXPECT_GE(deg, 0.0);
    EXPECT_LT(deg, prev) << "wl=" << wl;
    prev = deg;
  }
}

TEST(DelayEval, NonSwitchingVectorReportsNegative) {
  const auto adder = make_ripple_adder(tech07(), 3);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const VectorPair vp = adder_pair(3, 2, 3, 2, 3);  // no transition
  EXPECT_LT(eval.degradation_pct(vp, 10.0), 0.0);
}

TEST(DelayEval, UnknownOutputRejected) {
  const auto adder = make_ripple_adder(tech07(), 3);
  EXPECT_THROW(VbsBackend(adder.netlist, {"nope"}), std::invalid_argument);
  EXPECT_THROW(VbsBackend(adder.netlist, {}), std::invalid_argument);
}

TEST(Sizing, BisectionMeetsTarget) {
  const auto adder = make_ripple_adder(tech07(), 3);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const std::vector<VectorPair> vectors = {adder_pair(0, 0, 7, 1, 3),
                                           adder_pair(0, 0, 7, 7, 3),
                                           adder_pair(5, 2, 2, 5, 3)};
  const SizingResult res = size_for_degradation(eval, vectors, 5.0, {1.0, 2000.0, 0.5});
  EXPECT_LE(res.degradation_pct, 5.0);
  // Minimality: 20% smaller must violate the target for some vector.
  double worse = -1.0;
  for (const VectorPair& vp : vectors) {
    worse = std::max(worse, eval.degradation_pct(vp, res.wl * 0.8));
  }
  EXPECT_GT(worse, 5.0);
}

TEST(Sizing, TighterTargetNeedsBiggerDevice) {
  const auto adder = make_ripple_adder(tech07(), 3);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const std::vector<VectorPair> vectors = {adder_pair(0, 0, 7, 1, 3)};
  const double wl5 = size_for_degradation(eval, vectors, 5.0).wl;
  const double wl2 = size_for_degradation(eval, vectors, 2.0).wl;
  const double wl10 = size_for_degradation(eval, vectors, 10.0).wl;
  EXPECT_GT(wl2, wl5);
  EXPECT_GT(wl5, wl10);
}

TEST(Sizing, ImpossibleTargetThrows) {
  const auto adder = make_ripple_adder(tech07(), 3);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const std::vector<VectorPair> vectors = {adder_pair(0, 0, 7, 7, 3)};
  EXPECT_THROW(size_for_degradation(eval, vectors, 0.001, {1.0, 2.0}), NumericalError);
}

TEST(VectorSpace, ExhaustiveEnumerationCount) {
  EXPECT_EQ(all_vector_pairs(2).size(), 16u);
  EXPECT_EQ(all_vector_pairs(3).size(), 64u);
  // The paper's 3-bit adder space: 2^6 * 2^6 = 4096.
  EXPECT_EQ(all_vector_pairs(6).size(), 4096u);
  EXPECT_THROW(all_vector_pairs(9), std::invalid_argument);
}

TEST(VectorSpace, SamplingIsDeterministic) {
  Rng r1(99), r2(99);
  const auto a = sampled_vector_pairs(16, 10, r1);
  const auto b = sampled_vector_pairs(16, 10, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].v0, b[i].v0);
    EXPECT_EQ(a[i].v1, b[i].v1);
  }
}

/// FNV-1a over every pair's bits ("v0>v1;" per pair).
std::uint64_t vector_hash(const std::vector<VectorPair>& pairs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](unsigned char byte) { h = (h ^ byte) * 0x100000001b3ull; };
  for (const VectorPair& vp : pairs) {
    for (const bool b : vp.v0) mix(b ? '1' : '0');
    mix('>');
    for (const bool b : vp.v1) mix(b ? '1' : '0');
    mix(';');
  }
  return h;
}

// Campaign chunk keys, journals and tables all follow from these draws, so
// any change to the sequence (or to the bits each draw becomes) breaks
// every existing checkpoint.  The literals were taken from the code before
// its checks were made throw-only.
TEST(VectorSpace, DrawSequenceIsPinned) {
  Rng rng(1);
  EXPECT_EQ(vector_hash(sampled_vector_pairs(8, 16384, rng)), 0x3564a6d50684dab4ull);
  EXPECT_EQ(vector_hash(all_vector_pairs(3)), 0x2d77239bc408b745ull);
  EXPECT_THROW(rng.uniform_int(5, 3), std::invalid_argument);
  EXPECT_THROW(bits_from_uint(1, 0), std::invalid_argument);
  EXPECT_THROW(bits_from_uint(1, 65), std::invalid_argument);
}

TEST(VectorSpace, RankingIsSortedAndFiltered) {
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  const auto ranked = rank_vectors(eval, all_vector_pairs(4), 8.0);
  ASSERT_GT(ranked.size(), 10u);
  EXPECT_LT(ranked.size(), 256u);  // identity transitions filtered out
  for (std::size_t i = 0; i + 1 < ranked.size(); ++i) {
    EXPECT_GE(ranked[i].degradation_pct, ranked[i + 1].degradation_pct);
  }
  for (const auto& vd : ranked) {
    EXPECT_GT(vd.delay_cmos, 0.0);
    EXPECT_GE(vd.delay_mtcmos, vd.delay_cmos * 0.999);
  }
}

TEST(VectorSpace, WorstVectorSearchBeatsAverage) {
  const auto adder = make_ripple_adder(tech07(), 3);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  Rng rng(7);
  const VectorDelay worst = search_worst_vector(eval, 8.0, 40, rng);
  EXPECT_GT(worst.delay_mtcmos, 0.0);
  // Its MTCMOS delay must dominate a fresh random sample's mean.
  Rng rng2(123);
  double mean = 0.0;
  int counted = 0;
  for (const auto& vp : sampled_vector_pairs(6, 30, rng2)) {
    const double d = eval.delay_at_wl(vp, 8.0);
    if (d > 0.0) {
      mean += d;
      ++counted;
    }
  }
  ASSERT_GT(counted, 0);
  mean /= counted;
  EXPECT_GT(worst.delay_mtcmos, mean);
}

TEST(Screening, FallingWeightCountsFallingGatesOnly) {
  const auto adder = make_ripple_adder(tech07(), 2);
  // Identity transition: nothing falls.
  EXPECT_DOUBLE_EQ(falling_discharge_weight(adder.netlist, adder_pair(1, 2, 1, 2, 2)), 0.0);
  // A mass 3+3 -> 0+0 transition drops many outputs at once.
  const double heavy = falling_discharge_weight(adder.netlist, adder_pair(3, 3, 0, 0, 2));
  const double light = falling_discharge_weight(adder.netlist, adder_pair(1, 0, 0, 0, 2));
  EXPECT_GT(heavy, light);
  EXPECT_GT(light, 0.0);
}

TEST(Screening, KeepsHighestWeightCandidates) {
  const auto adder = make_ripple_adder(tech07(), 2);
  auto pairs = all_vector_pairs(4);
  const auto kept = screen_vectors(adder.netlist, pairs, 10);
  ASSERT_EQ(kept.size(), 10u);
  // Every kept pair's weight must be >= the weight of every dropped pair
  // (sampled check against a few random drops).
  double min_kept = 1e30;
  for (const auto& vp : kept) {
    min_kept = std::min(min_kept, falling_discharge_weight(adder.netlist, vp));
  }
  const double identity = falling_discharge_weight(adder.netlist, adder_pair(2, 1, 2, 1, 2));
  EXPECT_GE(min_kept, identity);
}

TEST(Screening, CorrelatesWithSimulatedDegradation) {
  // The top screened decile must contain the simulator's worst vector (or
  // something within a few percent of it).
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  auto pairs = all_vector_pairs(4);
  const auto kept = screen_vectors(adder.netlist, pairs, pairs.size() / 10);
  double best_kept = 0.0;
  for (const auto& vp : kept) {
    best_kept = std::max(best_kept, eval.delay_at_wl(vp, 8.0));
  }
  double best_all = 0.0;
  for (const auto& vp : pairs) {
    best_all = std::max(best_all, eval.delay_at_wl(vp, 8.0));
  }
  EXPECT_GT(best_kept, 0.93 * best_all);
}

TEST(Screening, Validation) {
  const auto adder = make_ripple_adder(tech07(), 2);
  EXPECT_THROW(screen_vectors(adder.netlist, all_vector_pairs(4), 0), std::invalid_argument);
  EXPECT_THROW(falling_discharge_weight(adder.netlist, {{true}, {false}}),
               std::invalid_argument);
}

TEST(VectorSpace, SearchAgreesWithExhaustiveOnSmallAdder) {
  // On the 2-bit adder (256 pairs) the randomized search must land within
  // a few percent of the exhaustive worst MTCMOS delay.
  const auto adder = make_ripple_adder(tech07(), 2);
  const VbsBackend eval(adder.netlist, adder_outputs(adder));
  double exhaustive_worst = 0.0;
  for (const auto& vp : all_vector_pairs(4)) {
    exhaustive_worst = std::max(exhaustive_worst, eval.delay_at_wl(vp, 8.0));
  }
  Rng rng(5);
  const VectorDelay found = search_worst_vector(eval, 8.0, 60, rng);
  EXPECT_GT(found.delay_mtcmos, 0.97 * exhaustive_worst);
}

}  // namespace
}  // namespace mtcmos::sizing
