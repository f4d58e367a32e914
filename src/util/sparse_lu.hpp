#pragma once
// Sparse LU solver specialized for circuit (MNA) matrices.
//
// Usage protocol (three phases):
//   1. Pattern:  reserve_entry(i, j) for every structural nonzero, then
//      finalize(n).  finalize computes a minimum-degree ordering, performs
//      symbolic factorization (fill-in), and compiles the elimination into
//      a flat "program" of indexed multiply-subtract operations.
//   2. Stamping: look up slot(i, j) once per device and cache it; each
//      Newton iteration calls clear_values() and add(slot, v).
//   3. Solve:    factorize() runs the precompiled elimination on the
//      current values; solve(b) / solve_inplace(b) do the permuted
//      forward/back substitution.
//
// The factorization is a snapshot: factorize() copies the stamped values
// into a private working array, so clear_values() + restamping does NOT
// invalidate it.  Modified-Newton callers exploit this deliberately --
// they restamp a fresh Jacobian every iteration but refactorize only when
// the iteration stalls, solving against the snapshot in between.  A
// failed factorize() *does* invalidate the snapshot; solving with no
// valid snapshot throws a coded NumericalError (kSingularMatrix).
//
// Thread safety: a SparseLu is single-owner (one engine, one thread at a
// time).  solve_inplace and solve share an internal permutation scratch.
//
// No numerical pivoting is performed.  This is safe for the matrices the
// MNA engine produces because every diagonal carries a strictly positive
// conductance (gmin is always stamped), which is the standard
// circuit-simulation arrangement.  A vanishing pivot still raises
// NumericalError rather than producing NaNs.
//
// The symbolic phase is O(fill^2)-ish but runs once per circuit topology;
// the numeric phase is a tight loop over precomputed index pairs and is
// what the transient loop pays per Newton iteration.

#include <cstddef>
#include <vector>

namespace mtcmos {

class SparseLu {
 public:
  /// Declare a structural nonzero at (row, col), 0-based external indices.
  /// Duplicates are allowed and merged.  Must be called before finalize().
  void reserve_entry(int row, int col);

  /// Lock the pattern for an n x n system, compute ordering + symbolic
  /// factorization.  After this, the pattern is immutable.
  void finalize(int n);

  bool finalized() const { return finalized_; }
  int size() const { return n_; }

  /// Stable handle for stamping the (row, col) entry.  Returns -1 if the
  /// entry was never reserved.  Valid only after finalize().
  int slot(int row, int col) const;

  /// Zero all stamped values (start of a new assembly pass).
  void clear_values();

  /// Accumulate v into the entry behind `slot`.
  void add(int slot, double v) { values_[static_cast<std::size_t>(slot)] += v; }

  double value(int slot) const { return values_[static_cast<std::size_t>(slot)]; }

  /// Numeric LU factorization of the currently stamped values.
  /// Throws NumericalError on a vanishing pivot; a throwing call leaves
  /// the solver with no valid factorization (solves throw until the next
  /// successful factorize()).
  void factorize();

  /// True between a successful factorize() and the next factorization
  /// attempt's failure.  Restamping values does not clear it.
  bool have_factor() const { return have_factor_; }

  /// Solve A x = b with the most recent factorization.  `b` uses external
  /// indexing; the result is returned in external indexing too.
  /// Throws NumericalError (kSingularMatrix) when no valid factorization
  /// exists (factorize() never called, or its last attempt failed).
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Allocation-free solve: overwrites `b` with the solution x.  Same
  /// arithmetic and same error contract as solve(); the permutation
  /// scratch is an internal member, so no per-call vectors are created.
  void solve_inplace(std::vector<double>& b) const;

  /// y = A x with the currently *stamped* values (not the factorization).
  /// External indexing.  Used to verify solve quality in diagnostics and
  /// tests.
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// Allocation-free multiply: y = A x into a caller-provided vector
  /// (resized to n).  Same arithmetic as multiply().
  void multiply_into(const std::vector<double>& x, std::vector<double>& y) const;

 private:
  struct EntryKey {
    int row;
    int col;
  };
  // Elimination step: row `target_pos` (position of a[i][k]) updated by
  // pivot row k; ops [op_begin, op_end) are (src,dst) value-index pairs.
  struct ElimStep {
    int pivot_k;        // internal pivot index
    int target_row;     // internal row i being updated
    int lik_pos;        // value index of a[i][k] (becomes L(i,k))
    int pivot_pos;      // value index of a[k][k]
    std::size_t op_begin;
    std::size_t op_end;
  };

  int internal_pos(int irow, int icol) const;  // value index or -1 (internal indices)

  int n_ = 0;
  bool finalized_ = false;

  std::vector<EntryKey> pending_;  // entries before finalize (external indices)

  std::vector<int> perm_;   // perm_[external] = internal
  std::vector<int> iperm_;  // iperm_[internal] = external

  // Post-fill pattern, internal indexing, row-major: row i owns
  // cols_[row_begin_[i] .. row_begin_[i+1]) sorted ascending; values_ is
  // parallel.  diag_pos_[i] = value index of a[i][i].
  std::vector<int> row_begin_;
  std::vector<int> cols_;
  std::vector<double> values_;
  std::vector<int> diag_pos_;

  // Which of the stored entries are "structural" (reserved by the user) as
  // opposed to fill: slots map external (row,col) to a value index.
  std::vector<ElimStep> steps_;
  std::vector<int> op_src_;
  std::vector<int> op_dst_;

  std::vector<double> factor_;  // working copy holding L\U after factorize()
  bool have_factor_ = false;
  mutable std::vector<double> solve_scratch_;  // permuted y for solve paths
};

}  // namespace mtcmos
