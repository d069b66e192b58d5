# Regenerates bench_micro_mincut's exact cut table and compares it with the
# checked-in golden copy.
execute_process(COMMAND ${BENCH_BIN} --coign-cut-table
                RESULT_VARIABLE code OUTPUT_FILE ${OUT} ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bench_micro_mincut --coign-cut-table failed (${code}):\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ ${OUT} actual)
  message(FATAL_ERROR "cut table differs from ${GOLDEN}:\n${actual}")
endif()
