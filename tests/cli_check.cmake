# One-shot checks of the mtcmos_sizer CLI, run by ctest (label `examples`):
#
#   cmake -DSIZER=<exe> -DEXPECT=<code> -DARGS=<arg|arg|...> -P cli_check.cmake
#     runs SIZER ARGS and passes when it exits with EXPECT.
#   cmake -DSIZER=<exe> -DMODE=resume -DDIR=<dir> -DARGS=<...> -P cli_check.cmake
#     runs SIZER ARGS --checkpoint DIR into a fresh DIR, then again with
#     --resume, and passes when both exit 0 and print the same
#     "Recommended sleep W/L" line.
#   cmake -DSIZER=<exe> -DMODE=refuse -DDIR=<dir> -DARGS=<...> -P cli_check.cmake
#     runs SIZER ARGS --checkpoint DIR into a fresh DIR, then again without
#     --resume, and passes when the second run exits 2 (usage error).
#   cmake -DSIZER=<exe> -DMODE=shards -DDIR=<dir> -DARGS=<...> -P cli_check.cmake
#     runs SIZER ARGS --checkpoint DIR into a fresh DIR, then SIZER ARGS
#     --checkpoint DIR.sharded --shards 2 into another, and passes when
#     both exit 0 and print the same W/L table rows and the same
#     "Recommended sleep W/L" line (the per-row "supervision:" lines,
#     which count worker restarts, are not compared).
#   cmake -DSIZER=<exe> -DMODE=campaign -DDIR=<dir> -DARGS=--campaign|<spec> -P cli_check.cmake
#     runs the campaign into a fresh DIR, again with --resume over the
#     finished run, and with --shards 2 into a fresh DIR.sharded, and
#     passes when all three exit 0 and write byte-identical table.json.
#   cmake -DSIZER=<exe> -DMODE=fresh -DDIR=<dir> -DEXPECT=<code> -DARGS=<...> -P cli_check.cmake
#     runs SIZER ARGS --checkpoint DIR into a fresh DIR and passes when it
#     exits with EXPECT.

string(REPLACE "|" ";" ARGS "${ARGS}")

function(run_sizer out_var code_var)
  execute_process(COMMAND ${SIZER} ${ARGN} RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  message(STATUS "mtcmos_sizer ${ARGN} -> ${code}\n${out}${err}")
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${code_var} "${code}" PARENT_SCOPE)
endfunction()

function(expect_code code want)
  if(NOT code STREQUAL want)
    message(FATAL_ERROR "expected exit ${want}, got ${code}")
  endif()
endfunction()

# The W/L sweep table: every output line that starts with "|".
function(table_rows out var)
  string(REGEX MATCHALL "\n\\|[^\n]*" rows "${out}")
  if(rows STREQUAL "")
    message(FATAL_ERROR "no W/L table in the output")
  endif()
  set(${var} "${rows}" PARENT_SCOPE)
endfunction()

function(recommended_line out var)
  string(REGEX MATCH "Recommended sleep W/L[^\n]*" line "${out}")
  if(line STREQUAL "")
    message(FATAL_ERROR "no \"Recommended sleep W/L\" line in the output")
  endif()
  set(${var} "${line}" PARENT_SCOPE)
endfunction()

if(NOT DEFINED MODE)
  run_sizer(out code ${ARGS})
  expect_code("${code}" "${EXPECT}")
  return()
endif()

file(REMOVE_RECURSE "${DIR}")
run_sizer(first code ${ARGS} --checkpoint "${DIR}")
if(MODE STREQUAL "fresh")
  expect_code("${code}" "${EXPECT}")
  file(REMOVE_RECURSE "${DIR}")
  return()
endif()
expect_code("${code}" 0)
if(MODE STREQUAL "resume")
  run_sizer(second code ${ARGS} --checkpoint "${DIR}" --resume)
  expect_code("${code}" 0)
  recommended_line("${first}" fresh)
  recommended_line("${second}" resumed)
  if(NOT fresh STREQUAL resumed)
    message(FATAL_ERROR "resume changed the result:\n  ${fresh}\n  ${resumed}")
  endif()
elseif(MODE STREQUAL "shards")
  file(REMOVE_RECURSE "${DIR}.sharded")
  run_sizer(second code ${ARGS} --checkpoint "${DIR}.sharded" --shards 2)
  expect_code("${code}" 0)
  table_rows("${first}" serial_rows)
  table_rows("${second}" sharded_rows)
  recommended_line("${first}" serial_line)
  recommended_line("${second}" sharded_line)
  if(NOT serial_rows STREQUAL sharded_rows OR NOT serial_line STREQUAL sharded_line)
    message(FATAL_ERROR "--shards 2 changed the result:\n  ${serial_line}\n  ${sharded_line}")
  endif()
  file(REMOVE_RECURSE "${DIR}.sharded")
elseif(MODE STREQUAL "campaign")
  file(SHA256 "${DIR}/table.json" fresh)
  run_sizer(second code ${ARGS} --checkpoint "${DIR}" --resume)
  expect_code("${code}" 0)
  file(SHA256 "${DIR}/table.json" resumed)
  file(REMOVE_RECURSE "${DIR}.sharded")
  run_sizer(third code ${ARGS} --checkpoint "${DIR}.sharded" --shards 2)
  expect_code("${code}" 0)
  file(SHA256 "${DIR}.sharded/table.json" sharded)
  if(NOT fresh STREQUAL resumed OR NOT fresh STREQUAL sharded)
    message(FATAL_ERROR "table.json differs: fresh ${fresh}, resumed ${resumed}, "
                        "--shards 2 ${sharded}")
  endif()
  file(REMOVE_RECURSE "${DIR}.sharded")
elseif(MODE STREQUAL "refuse")
  run_sizer(second code ${ARGS} --checkpoint "${DIR}")
  expect_code("${code}" 2)
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
file(REMOVE_RECURSE "${DIR}")
