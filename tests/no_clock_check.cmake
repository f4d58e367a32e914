# No engine or session reads the wall clock (docs/robustness.md §3).
#
#   cmake -DSRC=<repo>/src -P no_clock_check.cmake
#
# Fails when a file of the compute layers names a clock: the engines and
# models (core, spice, models, netlist, waveform, circuits) and the sweep
# layer of sizing (session, backend, checkpoint, campaign, sizing,
# spice_ref, result_sink).  Their results, journal records and wire bytes
# must be a function of their inputs alone, so a run stops early only
# through the cancel token and a per-item bound is a step or breakpoint
# count, never a time.
#
# Deliberately outside the check, because each times I/O or a process, not
# a computation:
#   * util/journal     -- the fsync-interval timer (when to flush, not what);
#   * util/subprocess, util/socket
#                      -- poll timeouts for child pipes and client sockets;
#   * sizing/supervisor -- worker liveness (a stalled worker is killed and
#                         its items re-run; the journal decides results);
#   * sizing/daemon    -- request deadlines, enforced by raising the
#                         request's cancel token.

if(NOT DEFINED SRC)
  message(FATAL_ERROR "usage: cmake -DSRC=<repo>/src -P no_clock_check.cmake")
endif()

set(files)
foreach(dir core spice models netlist waveform circuits)
  file(GLOB_RECURSE found "${SRC}/${dir}/*")
  list(APPEND files ${found})
endforeach()
foreach(unit session backend checkpoint campaign sizing spice_ref result_sink)
  list(APPEND files "${SRC}/sizing/${unit}.cpp" "${SRC}/sizing/${unit}.hpp")
endforeach()

set(clock_names "steady_clock|system_clock|high_resolution_clock|clock_gettime|gettimeofday")
set(offenders "")
set(checked 0)
foreach(f ${files})
  if(NOT EXISTS "${f}")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  file(STRINGS "${f}" hits REGEX "${clock_names}")
  foreach(line ${hits})
    string(APPEND offenders "\n  ${f}: ${line}")
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "no source files found under ${SRC}")
endif()
if(NOT offenders STREQUAL "")
  message(FATAL_ERROR "a compute layer names a clock:${offenders}")
endif()
message(STATUS "no clock in ${checked} compute-layer files")
