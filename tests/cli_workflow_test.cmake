# Drives the coign CLI end to end: profile -> analyze -> measure -> online
# -> chaos -> fleet.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${out}\n${err}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()
run(${COIGN_BIN} profile --scenario o_oldwp7 -o smoke)
run(${COIGN_BIN} analyze -i smoke --network 10baset --dot smoke.dot)
run(${COIGN_BIN} measure -i smoke --scenario o_oldwp7)
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2)
foreach(artifact smoke.profile smoke.config smoke.dist smoke.dot)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "missing artifact: ${artifact}")
  endif()
endforeach()

# Chaos is seed-driven and must replay byte-for-byte: run it twice with the
# same seed and compare outputs, then once more with another seed to prove
# the seed actually steers the schedule.
set(chaos_args -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2)
run(${COIGN_BIN} chaos ${chaos_args} --seed 42)
set(chaos_first "${last_output}")
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
# storm with the checksummed wire replays byte-for-byte, the breaker
# opens (degrading to the all-local plan) and re-promotes the distributed
# plan after the links heal, and the final partition matches the
# fault-free adaptive run's (the poison was rejected, never consumed).
set(corrupt_args -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 3 --reps 2 --storm --corrupt-rate 0.3 --seed 3)
run(${COIGN_BIN} chaos ${corrupt_args})
set(corrupt_first "${last_output}")
run(${COIGN_BIN} chaos ${corrupt_args})
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

# Observability artifacts are part of the determinism contract: two
# same-seed runs must write byte-identical --trace-out / --metrics-out
# files (the trace carries simulated-clock timestamps, never wall time).
function(check_identical label a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK_DIR}/${a} ${WORK_DIR}/${b} RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${label}: ${a} and ${b} differ across same-seed runs")
  endif()
endfunction()
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2 --trace-out online1.trace.json --metrics-out online1.metrics.txt)
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2 --trace-out online2.trace.json --metrics-out online2.metrics.txt)
check_identical("online trace" online1.trace.json online2.trace.json)
check_identical("online metrics" online1.metrics.txt online2.metrics.txt)

# The push-relabel engine (default) and the paper's relabel-to-front
# (--cold-cuts) must produce identical reports end to end: both compute
# the same exact cut value and the same unique minimal min cut, so the
# solver choice can never steer a partition.
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2)
set(online_pr "${last_output}")
run(${COIGN_BIN} online -i smoke --scenario o_oldwp7 --scenario o_mixed9
    --cycles 1 --reps 2 --cold-cuts)
if(NOT online_pr STREQUAL last_output)
  message(FATAL_ERROR "--cold-cuts changed the online run:\n"
          "--- push-relabel ---\n${online_pr}\n--- relabel-to-front ---\n${last_output}")
endif()
run(${COIGN_BIN} chaos ${chaos_args} --seed 42)
set(chaos_pr "${last_output}")
run(${COIGN_BIN} chaos ${chaos_args} --seed 42 --cold-cuts)
if(NOT chaos_pr STREQUAL last_output)
  message(FATAL_ERROR "--cold-cuts changed the chaos run:\n"
          "--- push-relabel ---\n${chaos_pr}\n--- relabel-to-front ---\n${last_output}")
endif()

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
file(READ ${WORK_DIR}/chaos1.trace.json chaos_trace)
if(NOT chaos_trace MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "chaos trace is not trace_event JSON:\n${chaos_trace}")
endif()

# Fleet planning is threaded but must stay byte-deterministic: same seed,
# same bytes — including across different worker counts, since results are
# reduced in cohort grid order on the coordinator, never in claim order.
set(fleet_args -i smoke --clients 200 --seed 42)
run(${COIGN_BIN} fleet ${fleet_args} --threads 4)
set(fleet_first "${last_output}")
run(${COIGN_BIN} fleet ${fleet_args} --threads 4)
if(NOT fleet_first STREQUAL last_output)
  message(FATAL_ERROR "fleet --seed 42 is not deterministic:\n"
          "--- first ---\n${fleet_first}\n--- second ---\n${last_output}")
endif()
run(${COIGN_BIN} fleet ${fleet_args} --threads 1)
string(REPLACE "1 thread(s)" "4 thread(s)" fleet_serial "${last_output}")
if(NOT fleet_first STREQUAL fleet_serial)
  message(FATAL_ERROR "fleet output depends on the worker count:\n"
          "--- 4 threads ---\n${fleet_first}\n--- 1 thread ---\n${fleet_serial}")
endif()
if(NOT fleet_first MATCHES "cache_hits=")
  message(FATAL_ERROR "fleet output missing cache counters:\n${fleet_first}")
endif()
if(NOT fleet_first MATCHES "regret")
  message(FATAL_ERROR "fleet output missing regret summary:\n${fleet_first}")
endif()
run(${COIGN_BIN} fleet -i smoke --clients 200 --seed 7 --threads 4)
if(fleet_first STREQUAL last_output)
  message(FATAL_ERROR "fleet ignores --seed: seeds 42 and 7 match")
endif()

# Fleet observability: byte-identical across same-seed runs AND worker
# counts (spans are emitted coordinator-side in grid order).
run(${COIGN_BIN} fleet ${fleet_args} --threads 4
    --trace-out fleet1.trace.json --metrics-out fleet1.metrics.txt)
run(${COIGN_BIN} fleet ${fleet_args} --threads 1
    --trace-out fleet2.trace.json --metrics-out fleet2.metrics.txt)
check_identical("fleet trace" fleet1.trace.json fleet2.trace.json)
file(READ ${WORK_DIR}/fleet1.metrics.txt fleet_metrics_4)
file(READ ${WORK_DIR}/fleet2.metrics.txt fleet_metrics_1)
string(REPLACE "gauge fleet.pool.workers 1" "gauge fleet.pool.workers 4"
       fleet_metrics_1 "${fleet_metrics_1}")
if(NOT fleet_metrics_4 STREQUAL fleet_metrics_1)
  message(FATAL_ERROR "fleet metrics depend on the worker count:\n"
          "--- 4 threads ---\n${fleet_metrics_4}\n--- 1 thread ---\n${fleet_metrics_1}")
endif()

# Lossy clients must cohort apart from clean ones: the loss axis shows up
# in cohort names and the default 25% lossy fraction guarantees some.
if(NOT fleet_first MATCHES "/D-")
  message(FATAL_ERROR "fleet output has no lossy cohorts:\n${fleet_first}")
endif()
run(${COIGN_BIN} fleet ${fleet_args} --threads 4 --lossy 0)
if(last_output MATCHES "/D-")
  message(FATAL_ERROR "fleet --lossy 0 still produced lossy cohorts:\n${last_output}")
endif()
