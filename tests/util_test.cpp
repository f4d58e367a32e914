// Unit tests for mtcmos::util: dense LU, sparse LU, tables, RNG, errors,
// JSON number output.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/sparse_lu.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "dense_matrix.hpp"

namespace mtcmos {
namespace {

TEST(Units, ScaleFactors) {
  EXPECT_DOUBLE_EQ(50.0 * units::fF, 50e-15);
  EXPECT_DOUBLE_EQ(1.2 * units::ns, 1.2e-9);
  EXPECT_DOUBLE_EQ(0.7 * units::um, 0.7e-6);
}

TEST(Units, ThermalVoltageAt300K) {
  EXPECT_NEAR(constants::thermal_voltage(300.0), 0.02585, 1e-4);
}

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_THROW(require(false, "nope"), std::invalid_argument);
  EXPECT_NO_THROW(require(true, "fine"));
}

TEST(Error, EnsureThrowsLogicError) { EXPECT_THROW(ensure(false, "bug"), std::logic_error); }

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, UniformRealInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(-1.0, 2.0);
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 2.0);
  }
}

TEST(DenseMatrix, SolvesIdentity) {
  DenseMatrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i) m.at(i, i) = 1.0;
  const auto x = m.solve({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(DenseMatrix, SolvesGeneralSystem) {
  DenseMatrix m(2, 2);
  m.at(0, 0) = 2.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(1, 1) = 3.0;
  const auto x = m.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseMatrix, RequiresPivoting) {
  // Zero on the leading diagonal forces a row swap.
  DenseMatrix m(2, 2);
  m.at(0, 0) = 0.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(1, 1) = 0.0;
  const auto x = m.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseMatrix, SingularThrows) {
  DenseMatrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  m.at(1, 0) = 2.0;
  m.at(1, 1) = 4.0;
  EXPECT_THROW(m.solve({1.0, 1.0}), NumericalError);
}

TEST(DenseMatrix, MultiplyMatchesSolveRoundTrip) {
  DenseMatrix m(3, 3);
  m.at(0, 0) = 4.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(1, 1) = 3.0;
  m.at(1, 2) = 1.0;
  m.at(2, 1) = 1.0;
  m.at(2, 2) = 5.0;
  const std::vector<double> x0 = {1.0, -2.0, 0.5};
  const auto b = m.multiply(x0);
  const auto x = m.solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x0[i], 1e-12);
}

// --- SparseLu ---

TEST(SparseLu, DiagonalSystem) {
  SparseLu lu;
  for (int i = 0; i < 4; ++i) lu.reserve_entry(i, i);
  lu.finalize(4);
  lu.clear_values();
  for (int i = 0; i < 4; ++i) lu.add(lu.slot(i, i), static_cast<double>(i + 1));
  lu.factorize();
  const auto x = lu.solve({1.0, 2.0, 3.0, 4.0});
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x[static_cast<std::size_t>(i)], 1.0, 1e-12);
}

TEST(SparseLu, MatchesDenseOnRandomSpdSystem) {
  // Random diagonally dominant sparse system, compared against DenseMatrix.
  Rng rng(123);
  const int n = 40;
  DenseMatrix dense(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  SparseLu lu;
  std::vector<std::pair<int, int>> entries;
  for (int i = 0; i < n; ++i) {
    entries.emplace_back(i, i);
    for (int k = 0; k < 3; ++k) {
      const int j = static_cast<int>(rng.uniform_int(0, static_cast<std::uint64_t>(n - 1)));
      if (j != i) {
        entries.emplace_back(i, j);
        entries.emplace_back(j, i);
      }
    }
  }
  for (const auto& [i, j] : entries) lu.reserve_entry(i, j);
  lu.finalize(n);
  lu.clear_values();
  for (const auto& [i, j] : entries) {
    if (i == j) continue;
    const double v = -rng.uniform_real(0.1, 1.0);
    // Accumulate symmetric off-diagonals and keep the diagonal dominant.
    lu.add(lu.slot(i, j), v);
    dense.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) += v;
    lu.add(lu.slot(i, i), -v + 0.5);
    dense.at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += -v + 0.5;
  }
  for (int i = 0; i < n; ++i) {
    lu.add(lu.slot(i, i), 1.0);
    dense.at(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += 1.0;
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& x : b) x = rng.uniform_real(-1.0, 1.0);
  lu.factorize();
  const auto xs = lu.solve(b);
  const auto xd = dense.solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(xs[static_cast<std::size_t>(i)], xd[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(SparseLu, TridiagonalWithFill) {
  // Arrow matrix: dense last row/col forces fill under naive order; the
  // min-degree ordering should handle it and produce the right answer.
  const int n = 20;
  SparseLu lu;
  for (int i = 0; i < n; ++i) {
    lu.reserve_entry(i, i);
    lu.reserve_entry(i, n - 1);
    lu.reserve_entry(n - 1, i);
  }
  lu.finalize(n);
  lu.clear_values();
  for (int i = 0; i < n; ++i) lu.add(lu.slot(i, i), 4.0);
  for (int i = 0; i + 1 < n; ++i) {
    lu.add(lu.slot(i, n - 1), -1.0);
    lu.add(lu.slot(n - 1, i), -1.0);
  }
  lu.factorize();
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  const auto x = lu.solve(b);
  // Verify A x = b directly.
  for (int i = 0; i + 1 < n; ++i) {
    const double row = 4.0 * x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(n - 1)];
    EXPECT_NEAR(row, 1.0, 1e-10);
  }
  double last = 4.0 * x[static_cast<std::size_t>(n - 1)];
  for (int i = 0; i + 1 < n; ++i) last -= x[static_cast<std::size_t>(i)];
  EXPECT_NEAR(last, 1.0, 1e-10);
}

TEST(SparseLu, RefactorizeWithNewValues) {
  SparseLu lu;
  lu.reserve_entry(0, 0);
  lu.reserve_entry(0, 1);
  lu.reserve_entry(1, 0);
  lu.reserve_entry(1, 1);
  lu.finalize(2);
  for (double scale : {1.0, 2.0, 10.0}) {
    lu.clear_values();
    lu.add(lu.slot(0, 0), 2.0 * scale);
    lu.add(lu.slot(1, 1), 2.0 * scale);
    lu.add(lu.slot(0, 1), -1.0 * scale);
    lu.add(lu.slot(1, 0), -1.0 * scale);
    lu.factorize();
    const auto x = lu.solve({scale, scale});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 1.0, 1e-12);
  }
}

TEST(SparseLu, MultiplyMatchesStampedValues) {
  SparseLu lu;
  lu.reserve_entry(0, 0);
  lu.reserve_entry(0, 1);
  lu.reserve_entry(1, 0);
  lu.reserve_entry(1, 1);
  lu.finalize(2);
  lu.clear_values();
  lu.add(lu.slot(0, 0), 2.0);
  lu.add(lu.slot(0, 1), -1.0);
  lu.add(lu.slot(1, 0), 3.0);
  lu.add(lu.slot(1, 1), 4.0);
  const auto y = lu.multiply({1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);   // 2*1 - 1*2
  EXPECT_DOUBLE_EQ(y[1], 11.0);  // 3*1 + 4*2
}

TEST(SparseLu, ZeroPivotActuallyThrows) {
  SparseLu lu;
  lu.reserve_entry(0, 0);
  lu.reserve_entry(0, 1);
  lu.reserve_entry(1, 0);
  lu.reserve_entry(1, 1);
  lu.finalize(2);
  lu.clear_values();
  // Row 1 depends on pivot 0 which is zero.
  lu.add(lu.slot(0, 1), 1.0);
  lu.add(lu.slot(1, 0), 1.0);
  lu.add(lu.slot(1, 1), 1.0);
  EXPECT_THROW(lu.factorize(), NumericalError);
}

TEST(SparseLu, SolveBeforeFactorizeThrowsCodedError) {
  SparseLu lu;
  lu.reserve_entry(0, 0);
  lu.finalize(1);
  lu.clear_values();
  lu.add(lu.slot(0, 0), 2.0);
  // No factorize() yet: both solve paths must refuse with a classified
  // failure instead of reading an empty factor array.
  try {
    (void)lu.solve({1.0});
    FAIL() << "solve() before factorize() did not throw";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info().code, FailureCode::kSingularMatrix);
  }
  std::vector<double> b = {1.0};
  EXPECT_THROW(lu.solve_inplace(b), NumericalError);
  EXPECT_FALSE(lu.have_factor());
}

TEST(SparseLu, FailedFactorizeInvalidatesPreviousSnapshot) {
  SparseLu lu;
  lu.reserve_entry(0, 0);
  lu.reserve_entry(0, 1);
  lu.reserve_entry(1, 0);
  lu.reserve_entry(1, 1);
  lu.finalize(2);
  lu.clear_values();
  lu.add(lu.slot(0, 0), 2.0);
  lu.add(lu.slot(1, 1), 2.0);
  lu.factorize();
  EXPECT_TRUE(lu.have_factor());
  // Restamping alone must NOT invalidate the snapshot (modified-Newton
  // callers keep solving against it between refactorizes)...
  lu.clear_values();
  lu.add(lu.slot(0, 1), 1.0);
  lu.add(lu.slot(1, 0), 1.0);
  lu.add(lu.slot(1, 1), 1.0);
  EXPECT_TRUE(lu.have_factor());
  EXPECT_NO_THROW((void)lu.solve({1.0, 1.0}));
  // ...but a failed factorization (zero pivot) must: the partial
  // elimination it left behind is garbage, not the old snapshot.
  EXPECT_THROW(lu.factorize(), NumericalError);
  EXPECT_FALSE(lu.have_factor());
  try {
    (void)lu.solve({1.0, 1.0});
    FAIL() << "solve() after failed factorize() did not throw";
  } catch (const NumericalError& e) {
    EXPECT_EQ(e.info().code, FailureCode::kSingularMatrix);
  }
}

TEST(SparseLu, InPlaceVariantsMatchAllocatingOnes) {
  SparseLu lu;
  lu.reserve_entry(0, 0);
  lu.reserve_entry(0, 1);
  lu.reserve_entry(1, 0);
  lu.reserve_entry(1, 1);
  lu.reserve_entry(2, 2);
  lu.finalize(3);
  lu.clear_values();
  lu.add(lu.slot(0, 0), 3.0);
  lu.add(lu.slot(0, 1), -1.0);
  lu.add(lu.slot(1, 0), -1.0);
  lu.add(lu.slot(1, 1), 2.5);
  lu.add(lu.slot(2, 2), 4.0);
  lu.factorize();
  const std::vector<double> b = {1.0, -2.0, 3.0};
  const auto x = lu.solve(b);
  std::vector<double> x_inplace = b;
  lu.solve_inplace(x_inplace);
  ASSERT_EQ(x.size(), x_inplace.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_inplace[i]) << i;

  const auto y = lu.multiply(x);
  std::vector<double> y_into;
  lu.multiply_into(x, y_into);
  ASSERT_EQ(y.size(), y_into.size());
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_into[i]) << i;
}

TEST(SparseLu, SlotForMissingEntryIsNegative) {
  SparseLu lu;
  lu.reserve_entry(0, 0);
  lu.reserve_entry(1, 1);
  lu.finalize(2);
  EXPECT_GE(lu.slot(0, 0), 0);
  EXPECT_EQ(lu.slot(0, 1), -1);
}

TEST(SparseLu, ReserveAfterFinalizeThrows) {
  SparseLu lu;
  lu.reserve_entry(0, 0);
  lu.finalize(1);
  EXPECT_THROW(lu.reserve_entry(0, 0), std::invalid_argument);
}

// --- Table ---

TEST(Table, PrintsAlignedColumns) {
  Table t({"W/L", "delay [ns]"});
  t.add_row({"10", "1.5"});
  t.add_row({"100", "0.9"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("W/L"), std::string::npos);
  EXPECT_NE(s.find("delay [ns]"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowCellCountMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.5), "1.5");
  EXPECT_EQ(Table::num(0.123456, 3), "0.123");
}

Outcome<double> failed_outcome(FailureCode code) {
  FailureInfo info;
  info.code = code;
  info.site = "test";
  return Outcome<double>::fail(info);
}

TEST(SweepReport, BoundedRetentionKeepsCountsExact) {
  constexpr std::size_t cap = SweepReport::kMaxFailureDetails;
  SweepReport report;
  for (std::size_t i = 0; i < cap + 7; ++i) {
    report.add(i, failed_outcome(FailureCode::kNewtonDiverged));
  }
  report.add(cap + 7, Outcome<double>::success(1.0));
  EXPECT_EQ(report.failed, cap + 7);         // exact
  EXPECT_EQ(report.failures.size(), cap);    // detail capped
  EXPECT_EQ(report.failures_dropped, 7u);
  const auto histogram = report.code_histogram();
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram[0].first, FailureCode::kNewtonDiverged);
  EXPECT_EQ(histogram[0].second, cap + 7);   // histogram unaffected by the cap
  EXPECT_NE(report.summary().find("7 failure details dropped"), std::string::npos);
}

TEST(SweepReport, MergeHonorsTheDestinationCap) {
  constexpr std::size_t cap = SweepReport::kMaxFailureDetails;
  SweepReport src;
  for (std::size_t i = 0; i < cap / 2 + 4; ++i) {
    src.add(i, failed_outcome(FailureCode::kSingularMatrix));
  }

  SweepReport dst;
  dst.merge(src);
  dst.merge(src);
  EXPECT_EQ(dst.failed, cap + 8);
  EXPECT_EQ(dst.failures.size(), cap);
  EXPECT_EQ(dst.failures_dropped, 8u);
  const auto histogram = dst.code_histogram();
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram[0].second, cap + 8);
}

TEST(SweepReport, MergeAggregatesMixedCodesAndRungs) {
  SweepReport a;
  a.add(0, Outcome<double>::success(1.0));
  a.add(1, Outcome<double>::success(1.0, 2));  // recovered on rung 1
  a.add(2, failed_outcome(FailureCode::kCancelled));

  SweepReport b;
  b.add(0, failed_outcome(FailureCode::kNewtonDiverged));

  a.merge(b);
  EXPECT_EQ(a.total, 4u);
  EXPECT_EQ(a.succeeded, 1u);
  EXPECT_EQ(a.recovered, 1u);
  EXPECT_EQ(a.failed, 2u);
  ASSERT_EQ(a.rung_histogram.size(), 2u);
  EXPECT_EQ(a.rung_histogram[0], 1u);
  EXPECT_EQ(a.rung_histogram[1], 1u);
  EXPECT_EQ(a.code_histogram().size(), 2u);
  EXPECT_EQ(a.failures_dropped, 0u);
}

// --- json_double: byte identity with the historical printf/strtod form ---
//
// Request keys hash json_double() output, so its bytes are a
// compatibility contract.  The oracle is the original implementation:
// the first of %.15g, %.16g, %.17g that strtod()s back to the value.

std::string json_double_oracle(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void expect_json_double_matches(double v) {
  const std::string want = json_double_oracle(v);
  ASSERT_EQ(util::json_double(v), want) << std::hexfloat << v;
  std::string appended = "x";
  util::append_json_double(appended, v);
  ASSERT_EQ(appended, "x" + want) << std::hexfloat << v;
}

TEST(JsonDouble, MatchesTheOracleOnEdgeCases) {
  std::vector<double> edges = {0.0, -0.0, 1.0, -1.0, 0.1, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0,
                               DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               std::nextafter(DBL_MIN, 0.0), 0x1p-1050, 0x1.8p-1070};
  // %g switches to exponent form below 1e-4 and at 1e15..1e17 (precision
  // 15..17): straddle every switch point.
  for (const double anchor : {1e-5, 1e-4, 1e15, 1e16, 1e17}) {
    edges.push_back(anchor);
    double below = anchor;
    double above = anchor;
    for (int k = 0; k < 4; ++k) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, INFINITY);
      edges.push_back(below);
      edges.push_back(above);
    }
  }
  // Integers, including ones past 2^53 and with 15..17 digits.
  for (const double i : {2.0, 10.0, 123456.0, 999999999999999.0, 1234567890123456.0,
                         9007199254740992.0, 9007199254740994.0, 12345678901234568.0,
                         99999999999999999.0, 1e21, 1e22, 1e23}) {
    edges.push_back(i);
    edges.push_back(-i);
  }
  // Every power of two (the asymmetric rounding intervals) and of ten.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    edges.push_back(p);
    edges.push_back(std::nextafter(p, 0.0));
    edges.push_back(std::nextafter(p, INFINITY));
  }
  for (int e = -323; e <= 308; ++e) edges.push_back(std::pow(10.0, e));
  for (const double v : edges) {
    expect_json_double_matches(v);
    expect_json_double_matches(-v);
  }
}

TEST(JsonDouble, MatchesTheOracleOnOneMillionRandomBitPatterns) {
  std::mt19937_64 gen(20261017u);
  for (int i = 0; i < 1000000; ++i) expect_json_double_matches(std::bit_cast<double>(gen()));
}

TEST(JsonDouble, NonFiniteValuesAreNull) {
  EXPECT_EQ(util::json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(util::json_double(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(util::json_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(util::json_double(std::bit_cast<double>(0x7ff0000000000001ull)), "null");
  std::string out = "[";
  util::append_json_double(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "[null");
}

// JSON cannot carry inf, so a number that overflows a double is malformed
// input, not a value to pass on.  Underflow to zero is still a value.
TEST(JsonParse, RejectsNumbersThatOverflowADouble) {
  EXPECT_THROW(util::parse_json(R"({"wl":1e999})"), std::runtime_error);
  EXPECT_THROW(util::parse_json("-1e400"), std::runtime_error);
  EXPECT_EQ(util::parse_json("1e308")->as_number(), 1e308);
  EXPECT_EQ(util::parse_json("1e-999")->as_number(), 0.0);
}

TEST(JsonParse, IntegerFieldsAreRangeCheckedBeforeTheCast) {
  const util::JsonPtr doc =
      util::parse_json(R"({"big":1e10,"neg":-1,"frac":7.9,"two64":18446744073709551616})");
  EXPECT_THROW(doc->integer_or("big", 0), std::invalid_argument);
  EXPECT_EQ(doc->integer_or<std::int64_t>("big", 0), 10000000000);
  EXPECT_THROW(doc->integer_or<std::uint64_t>("neg", 0), std::invalid_argument);
  EXPECT_EQ(doc->integer_or("neg", 0), -1);
  EXPECT_EQ(doc->integer_or("frac", 0), 7);
  EXPECT_EQ(doc->integer_or("absent", 5), 5);
  EXPECT_THROW(doc->integer_or<std::uint64_t>("two64", 0), std::invalid_argument);
  EXPECT_THROW(doc->integer_or<std::int64_t>("two64", 0), std::invalid_argument);
}

}  // namespace
}  // namespace mtcmos
