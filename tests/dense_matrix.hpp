#pragma once
// Small dense matrix with LU factorization (partial pivoting): the
// reference implementation util_test and property_test validate SparseLu
// against.  The MNA engine itself uses SparseLu.

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace mtcmos {

class DenseMatrix {
 public:
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  double& at(std::size_t r, std::size_t c) {
    require(r < rows_ && c < cols_, "DenseMatrix::at: index out of range");
    return data_[r * cols_ + c];
  }

  /// y = A x
  std::vector<double> multiply(const std::vector<double>& x) const {
    require(x.size() == cols_, "DenseMatrix::multiply: dimension mismatch");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < cols_; ++c) acc += data_[r * cols_ + c] * x[c];
      y[r] = acc;
    }
    return y;
  }

  /// Solves A x = b via LU with partial pivoting on a copy of the matrix.
  /// Throws NumericalError on a (numerically) singular matrix.
  std::vector<double> solve(const std::vector<double>& rhs) const {
    require(rows_ == cols_, "DenseMatrix::solve: matrix must be square");
    require(rhs.size() == rows_, "DenseMatrix::solve: rhs dimension mismatch");
    const std::size_t n = rows_;
    std::vector<double> a = data_;
    std::vector<double> b = rhs;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pivot_row = k;  // the largest magnitude entry in column k
      double pivot_mag = std::abs(a[k * n + k]);
      for (std::size_t r = k + 1; r < n; ++r) {
        if (std::abs(a[r * n + k]) > pivot_mag) {
          pivot_mag = std::abs(a[r * n + k]);
          pivot_row = r;
        }
      }
      if (pivot_mag < 1e-300) throw NumericalError("DenseMatrix::solve: singular matrix");
      if (pivot_row != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(a[k * n + c], a[pivot_row * n + c]);
        std::swap(b[k], b[pivot_row]);
      }
      const double inv_pivot = 1.0 / a[k * n + k];
      for (std::size_t r = k + 1; r < n; ++r) {
        const double m = a[r * n + k] * inv_pivot;
        if (m == 0.0) continue;
        a[r * n + k] = 0.0;
        for (std::size_t c = k + 1; c < n; ++c) a[r * n + c] -= m * a[k * n + c];
        b[r] -= m * b[k];
      }
    }
    std::vector<double> x(n, 0.0);  // back substitution
    for (std::size_t ri = n; ri-- > 0;) {
      double acc = b[ri];
      for (std::size_t c = ri + 1; c < n; ++c) acc -= a[ri * n + c] * x[c];
      x[ri] = acc / a[ri * n + ri];
    }
    return x;
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

}  // namespace mtcmos
