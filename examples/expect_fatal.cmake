# Runs PROGRAM with the single argument ARGS and passes only if it
# exits with status 1 and prints a "fatal:" line matching EXPECT.
#
#   cmake -DPROGRAM=... -DARGS=... -DEXPECT=<regex> -P expect_fatal.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit status 1, got '${status}':\n${all}")
endif()
if(NOT all MATCHES "fatal: [^\n]*${EXPECT}")
    message(FATAL_ERROR "no 'fatal:' line matches '${EXPECT}':\n${all}")
endif()
