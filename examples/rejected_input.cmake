# cmake -DSIM=<netsparse_sim> -DMATRIX=<path> -DFLAG=--stats-json
#       -DOUT=<path> [-DEXISTING=1] -P rejected_input.cmake
# runs netsparse_sim on a matrix it must reject (exit 1) and checks that
# OUT is left as it was: unchanged if it existed (EXISTING), else absent.

set(earlier "an earlier run's output\n")
file(REMOVE ${OUT})
if(EXISTING)
    file(WRITE ${OUT} "${earlier}")
endif()

execute_process(COMMAND ${SIM} --matrix ${MATRIX} ${FLAG} ${OUT}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "expected exit 1, got '${rc}': ${err}")
endif()

if(EXISTING)
    file(READ ${OUT} got)
    if(NOT got STREQUAL earlier)
        message(FATAL_ERROR "${FLAG} overwrote ${OUT} with: ${got}")
    endif()
elseif(EXISTS ${OUT})
    message(FATAL_ERROR "${FLAG} created ${OUT} for a rejected run")
endif()
