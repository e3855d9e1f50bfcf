# cmake -DCMD=<exe>|<arg>|... -DRC=<exit status> -DREGEX=<regex>
#       -P cli_error.cmake
# runs CMD (arguments separated by '|') and passes when it exits RC and
# writes exactly one stderr line, matching REGEX: a rejected input is
# reported once, and by name.

string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL RC)
    message(FATAL_ERROR "expected exit ${RC}, got '${rc}': ${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT err MATCHES "${REGEX}")
    message(FATAL_ERROR
        "expected one stderr line matching '${REGEX}', got:\n${err}")
endif()
