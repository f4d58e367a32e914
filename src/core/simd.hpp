#pragma once
// Explicit-vectorization gate for the batch kernels (ROADMAP item 2).
//
// MTCMOS_SIMD_LOOP annotates the following loop with `#pragma omp simd`
// when the build opts in (MTCMOS_NATIVE=ON adds -fopenmp-simd and defines
// MTCMOS_SIMD=1) and expands to nothing otherwise, leaving the portable
// scalar loop -- same statements, same per-element FP sequence.
//
// Bit-identity rule for annotated loops: every lane-level operation must
// be IEEE-exact per element (+ - * / sqrt, min/max, compares and selects).
// No libm calls (pow/exp/log) inside an annotated loop: a vectorizing
// compiler could route those to libmvec, whose results are not guaranteed
// bit-identical to the scalar functions.  Loops that need libm run
// unannotated.

#if defined(MTCMOS_SIMD)
#define MTCMOS_SIMD_LOOP _Pragma("omp simd")
#else
#define MTCMOS_SIMD_LOOP
#endif
