# Run `supernpu simulate supernpu --netfile NETFILE` and pass only when
# it exits 1 with a [fatal] line on stderr that names FIELD. A panic
# (exit 134), a crash or a silently accepted netfile all fail.
#
#   cmake -DCLI=<supernpu> -DNETFILE=<path> -DFIELD=<name> \
#         -P expect_fatal.cmake
execute_process(
    COMMAND ${CLI} simulate supernpu --netfile ${NETFILE}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit 1, got '${status}':\n${stderr}")
endif()
if(NOT stderr MATCHES "\\[fatal\\] line [0-9]+: field '${FIELD}'")
    message(FATAL_ERROR "stderr does not name field '${FIELD}':\n${stderr}")
endif()
