# Runs BIN with the ;-separated ARGS, writes its stdout to OUT, and
# compares it with the checked-in GOLDEN copy byte for byte.
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE code OUTPUT_FILE ${OUT} ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} failed (${code}):\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ ${OUT} actual)
  message(FATAL_ERROR "output of ${BIN} differs from ${GOLDEN}:\n${actual}")
endif()
