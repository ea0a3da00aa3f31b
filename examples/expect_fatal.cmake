# Runs PROGRAM with the single argument ARGS and passes only if it
# exits with status 1 and prints exactly one "fatal:" line, matching
# EXPECT.
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
string(REGEX MATCHALL "fatal: " fatal_lines "${all}")
list(LENGTH fatal_lines fatal_count)
if(NOT fatal_count EQUAL 1)
    message(FATAL_ERROR
            "expected one 'fatal:' line, got ${fatal_count}:\n${all}")
endif()
