# Drives the coign CLI end to end: profile -> analyze -> measure -> online
# -> chaos -> fleet. The stdout of each stage is compared byte for byte
# with its checked-in copy in GOLDEN_DIR: together these pin the network
# profiler's sample grid, the scenario seed, the sliding window, the
# repartition policy, the fault-schedule constants and the fleet's drop
# range.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
function(run)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${out}\n${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()
function(check_identical label a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK_DIR}/${a} ${WORK_DIR}/${b} RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} differ across same-seed runs")
  endif()
endfunction()
function(check_golden output golden)
  file(READ ${GOLDEN_DIR}/${golden} expected)
  if(NOT output STREQUAL expected)
    message(FATAL_ERROR "output differs from ${golden}:\n${output}")
  endif()
endfunction()
run(${COIGN_BIN} profile --scenario o_oldwp7 -o smoke)
run(${COIGN_BIN} analyze -i smoke --network 10baset --dot smoke.dot)
check_golden("${last_output}" cli_analyze.txt)
run(${COIGN_BIN} measure -i smoke --scenario o_oldwp7)
check_golden("${last_output}" cli_measure.txt)
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2)
check_golden("${last_output}" cli_online.txt)
foreach(artifact smoke.profile smoke.config smoke.dist smoke.dot)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "missing artifact: ${artifact}")
  endif()
endforeach()

# A log whose call records are out of the writer's order (as every log
# written before that order was fixed is) loads the same profile: the
# smoke log with its call lines reversed analyzes to cli_analyze.txt's
# bytes, apart from the file names it echoes. (";" is a CMake list
# separator, so it is masked while the lines are split.)
file(READ ${WORK_DIR}/smoke.profile profile_text)
string(REPLACE ";" "@SEMICOLON@" profile_text "${profile_text}")
string(REGEX MATCHALL "[^\n]*\n" profile_lines "${profile_text}")
set(head_lines "")
set(reversed_calls "")
foreach(line IN LISTS profile_lines)
  if(line MATCHES "^call ")
    string(PREPEND reversed_calls "${line}")
  else()
    string(APPEND head_lines "${line}")
  endif()
endforeach()
string(REPLACE "@SEMICOLON@" ";" reversed_text "${head_lines}${reversed_calls}")
file(READ ${WORK_DIR}/smoke.profile smoke_text)
string(LENGTH "${smoke_text}" smoke_length)
string(LENGTH "${reversed_text}" reversed_length)
if(reversed_text STREQUAL smoke_text OR NOT reversed_length EQUAL smoke_length)
  message(FATAL_ERROR "reversed.profile is not smoke.profile's lines in another order")
endif()
file(WRITE ${WORK_DIR}/reversed.profile "${reversed_text}")
run(${CMAKE_COMMAND} -E copy smoke.config reversed.config)
run(${COIGN_BIN} analyze -i reversed --network 10baset --dot reversed.dot)
file(READ ${GOLDEN_DIR}/cli_analyze.txt expected_analysis)
string(REPLACE "wrote smoke." "wrote reversed." expected_analysis "${expected_analysis}")
if(NOT last_output STREQUAL expected_analysis)
  message(FATAL_ERROR "analyze of reversed.profile differs from cli_analyze.txt:\n${last_output}")
endif()

# Chaos is seed-driven and must replay byte-for-byte: run it twice with the
# same seed and compare outputs, then once more with another seed to prove
# the seed actually steers the schedule.
set(chaos_args -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2)
run(${COIGN_BIN} chaos ${chaos_args} --seed 42)
set(chaos_first "${last_output}")
check_golden("${chaos_first}" cli_chaos_seed42.txt)
run(${COIGN_BIN} chaos ${chaos_args} --seed 42)
if(NOT chaos_first STREQUAL last_output)
  message(FATAL_ERROR "chaos --seed 42 is not deterministic:\n"
          "--- first ---\n${chaos_first}\n--- second ---\n${last_output}")
endif()
if(NOT chaos_first MATCHES "chaos summary:")
  message(FATAL_ERROR "chaos output missing summary line:\n${chaos_first}")
endif()
if(NOT chaos_first MATCHES "fault-schedule")
  message(FATAL_ERROR "chaos output missing fault schedule:\n${chaos_first}")
endif()
run(${COIGN_BIN} chaos ${chaos_args} --seed 7)
if(chaos_first STREQUAL last_output)
  message(FATAL_ERROR "chaos ignores --seed: seeds 42 and 7 match")
endif()

# Corruption runs carry the same determinism contract: a corrupt-burst
# storm with the checksummed wire replays byte-for-byte (stdout, trace and
# metrics), the breaker opens (degrading to the all-local plan) and
# re-promotes the distributed plan after the links heal, and the final
# partition matches the fault-free adaptive run's (the poison was
# rejected, never consumed).
set(corrupt_args -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 3 --reps 2 --storm --corrupt-rate 0.3 --seed 3)
run(${COIGN_BIN} chaos ${corrupt_args}
    --trace-out corrupt1.trace.json --metrics-out corrupt1.metrics.txt)
set(corrupt_first "${last_output}")
check_golden("${corrupt_first}" cli_chaos_corrupt.txt)
run(${COIGN_BIN} chaos ${corrupt_args}
    --trace-out corrupt2.trace.json --metrics-out corrupt2.metrics.txt)
# Stdout echoes the artifact names, which differ by design.
string(REPLACE "corrupt2." "corrupt1." last_output "${last_output}")
if(NOT corrupt_first STREQUAL last_output)
  message(FATAL_ERROR "chaos --corrupt-rate is not deterministic:\n"
          "--- first ---\n${corrupt_first}\n--- second ---\n${last_output}")
endif()
if(NOT corrupt_first MATCHES "corrupt-burst")
  message(FATAL_ERROR "corruption run scheduled no corrupt-burst episodes:\n${corrupt_first}")
endif()
if(NOT corrupt_first MATCHES "corrupt_rejected=[1-9]")
  message(FATAL_ERROR "checksummed wire rejected no corrupted payloads:\n${corrupt_first}")
endif()
if(NOT corrupt_first MATCHES "corrupt_consumed=0")
  message(FATAL_ERROR "checksummed wire consumed corrupted payloads:\n${corrupt_first}")
endif()
if(NOT corrupt_first MATCHES "breaker_trips=[1-9]")
  message(FATAL_ERROR "corruption storm never tripped the breaker:\n${corrupt_first}")
endif()
if(NOT corrupt_first MATCHES "safe_mode_exits=[1-9]")
  message(FATAL_ERROR "breaker never re-promoted the distributed plan:\n${corrupt_first}")
endif()
if(NOT corrupt_first MATCHES "partitions_match=yes")
  message(FATAL_ERROR "corruption storm steered the final partition:\n${corrupt_first}")
endif()
check_identical("corrupt trace" corrupt1.trace.json corrupt2.trace.json)
check_identical("corrupt metrics" corrupt1.metrics.txt corrupt2.metrics.txt)
# The trace carries the integrity and breaker instrumentation end to end.
run(${TRACE_LINT_BIN} corrupt1.trace.json
    --require transport.corrupt_rejected --require breaker.state
    --require safe_mode.entered --require safe_mode.exited
    --require breaker-transition)

# Observability artifacts are part of the determinism contract: two
# same-seed runs must write byte-identical --trace-out / --metrics-out
# files (the trace carries simulated-clock timestamps, never wall time).
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2 --trace-out online1.trace.json --metrics-out online1.metrics.txt)
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2 --trace-out online2.trace.json --metrics-out online2.metrics.txt)
check_identical("online trace" online1.trace.json online2.trace.json)
check_identical("online metrics" online1.metrics.txt online2.metrics.txt)

# The push-relabel engine (default) and the paper's relabel-to-front
# (--cold-cuts) must produce identical reports end to end: both compute
# the same exact cut value and the same unique minimal min cut, so the
# solver choice can never steer a partition. The --cold-cuts runs must
# match the default runs' goldens.
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2 --cold-cuts)
check_golden("${last_output}" cli_online.txt)
run(${COIGN_BIN} chaos ${chaos_args} --seed 42 --cold-cuts)
check_golden("${last_output}" cli_chaos_seed42.txt)

# Solver-work counters are part of the online run's metrics surface.
file(READ ${WORK_DIR}/online1.metrics.txt online_metrics)
foreach(counter mincut.pushes mincut.relabels mincut.global_relabels)
  if(NOT online_metrics MATCHES "counter ${counter} ")
    message(FATAL_ERROR "online metrics missing ${counter}:\n${online_metrics}")
  endif()
endforeach()
if(NOT online_metrics MATCHES "counter mincut.pushes [1-9]")
  message(FATAL_ERROR "online run recorded no push-relabel work:\n${online_metrics}")
endif()
# The push-relabel engine's solver counters are sampled per epoch onto the
# trace's counter track.
run(${TRACE_LINT_BIN} online1.trace.json
    --require mincut.pushes --require mincut.relabels --require mincut.global_relabels)
run(${COIGN_BIN} chaos ${chaos_args} --seed 42
    --trace-out chaos1.trace.json --metrics-out chaos1.metrics.txt)
run(${COIGN_BIN} chaos ${chaos_args} --seed 42
    --trace-out chaos2.trace.json --metrics-out chaos2.metrics.txt)
check_identical("chaos trace" chaos1.trace.json chaos2.trace.json)
check_identical("chaos metrics" chaos1.metrics.txt chaos2.metrics.txt)
file(READ ${WORK_DIR}/chaos1.metrics.txt chaos_metrics)
if(NOT chaos_metrics MATCHES "counter transport.calls [1-9]")
  message(FATAL_ERROR "chaos metrics missing transport traffic:\n${chaos_metrics}")
endif()
# The chaos trace and every flight-recorder dump the chaos and corruption
# runs spawned must pass trace_lint's Chrome trace_event checks.
run(${TRACE_LINT_BIN} chaos1.trace.json)
file(GLOB dumps RELATIVE ${WORK_DIR} ${WORK_DIR}/*.trace.json.dump-*.json)
foreach(dump ${dumps})
  run(${TRACE_LINT_BIN} ${dump})
endforeach()

# Fleet planning must stay byte-deterministic: same seed, same bytes —
# stdout, trace and metrics — and another seed must change the fleet.
set(fleet_args -i smoke --clients 200 --seed 42)
run(${COIGN_BIN} fleet ${fleet_args} --trace-out fleet1.trace.json --metrics-out fleet1.metrics.txt)
set(fleet_first "${last_output}")
check_golden("${fleet_first}" cli_fleet.txt)
run(${COIGN_BIN} fleet ${fleet_args} --trace-out fleet2.trace.json --metrics-out fleet2.metrics.txt)
string(REPLACE "fleet2." "fleet1." fleet_second "${last_output}")
if(NOT fleet_first STREQUAL fleet_second)
  message(FATAL_ERROR "fleet --seed 42 is not deterministic:\n"
          "--- first ---\n${fleet_first}\n--- second ---\n${last_output}")
endif()
check_identical("fleet trace" fleet1.trace.json fleet2.trace.json)
check_identical("fleet metrics" fleet1.metrics.txt fleet2.metrics.txt)
if(NOT fleet_first MATCHES "envelope: [1-9][0-9]* cut\\(s\\) from [1-9][0-9]* exact solve\\(s\\)")
  message(FATAL_ERROR "fleet output missing the envelope summary:\n${fleet_first}")
endif()
file(READ ${WORK_DIR}/fleet1.metrics.txt fleet_metrics)
foreach(counter fleet.plan_calls fleet.clients fleet.segments fleet.solves)
  if(NOT fleet_metrics MATCHES "counter ${counter} [1-9]")
    message(FATAL_ERROR "fleet metrics missing ${counter}:\n${fleet_metrics}")
  endif()
endforeach()
run(${TRACE_LINT_BIN} fleet1.trace.json --require envelope-segment)
run(${COIGN_BIN} fleet -i smoke --clients 200 --seed 7)
if(fleet_first STREQUAL last_output)
  message(FATAL_ERROR "fleet ignores --seed: seeds 42 and 7 match")
endif()

# At the benchmark's scale and profile (fleet-cold: 20,000 clients, 30%
# lossy, Octarine o_newdoc + o_oldwp3) the fleet fills all four envelope
# segments, so the golden's member counts and mean communication times pin
# every client's placement at scale.
run(${COIGN_BIN} profile --scenario o_newdoc --scenario o_oldwp3 -o oct)
run(${COIGN_BIN} fleet -i oct --clients 20000 --lossy 0.3 --seed 42)
check_golden("${last_output}" cli_fleet_20k.txt)

# Loss never moves a cut: it scales both cost terms of a link alike, so the
# same fleet without lossy links fills the same segments with the same
# clients. Only the mean communication time (the last column) may differ.
function(segment_rows output result)
  string(REGEX MATCHALL "\n *[0-9][^\n]*" rows "${output}")
  set(stripped "")
  foreach(row ${rows})
    string(REGEX REPLACE " +[^ ]+$" "" row "${row}")
    string(APPEND stripped "${row}")
  endforeach()
  set(${result} "${stripped}" PARENT_SCOPE)
endfunction()
run(${COIGN_BIN} fleet ${fleet_args})
segment_rows("${last_output}" lossy_rows)
run(${COIGN_BIN} fleet ${fleet_args} --lossy 0)
segment_rows("${last_output}" clean_rows)
if(lossy_rows STREQUAL "")
  message(FATAL_ERROR "fleet output has no segment rows:\n${last_output}")
endif()
if(NOT lossy_rows STREQUAL clean_rows)
  message(FATAL_ERROR "--lossy 0 moved clients between segments:\n"
          "--- default ---\n${lossy_rows}\n--- --lossy 0 ---\n${clean_rows}")
endif()

# Numeric flags are read as whole tokens and range-checked so that NaN
# fails: each of these exits 2 with usage instead of running on a prefix
# of its value, a wrapped negative or NaN. The boundary values still run.
function(run_fails)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${code}: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()
run_fails(${COIGN_BIN} fleet -i smoke --clients 20 --seed abc)
run_fails(${COIGN_BIN} fleet -i smoke --clients 20 --seed -1)
run_fails(${COIGN_BIN} fleet -i smoke --clients 50x)
run_fails(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --cycles 1x)
run_fails(${COIGN_BIN} chaos ${chaos_args} --drop 0.5junk)
run_fails(${COIGN_BIN} chaos ${chaos_args} --drop nan)
run_fails(${COIGN_BIN} fleet -i smoke --clients 20 --lossy nan)
run(${COIGN_BIN} fleet -i smoke --clients 20 --seed 0 --lossy 1)
run(${COIGN_BIN} chaos ${chaos_args} --drop 0)

# A configuration record path that opens but does not read (a directory)
# fails naming the path, as an unreadable profile does.
run(${CMAKE_COMMAND} -E copy smoke.profile unreadable.profile)
file(MAKE_DIRECTORY ${WORK_DIR}/unreadable.config)
execute_process(COMMAND ${COIGN_BIN} analyze -i unreadable WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR NOT err MATCHES "cannot read configuration record: unreadable.config")
  message(FATAL_ERROR "analyze with a directory at unreadable.config: exit ${code}\n${out}\n${err}")
endif()
