# Runs fabricsim_cli with an unknown chaincode name; it must exit 1 and
# print exactly this error, which lists every chaincode it can build.
#
#   cmake -DCLI=<path to fabricsim_cli> -P cli_lists_chaincodes_for_an_unknown_name.cmake
set(expected "error: INVALID_ARGUMENT: unknown chaincode: bogus (available: asset, drm, dv, ehr, genchain, scm, tpcc)\n")
execute_process(COMMAND ${CLI} --chaincode=bogus
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "1" OR NOT err STREQUAL expected)
  message(FATAL_ERROR "exit '${code}', stderr: ${err}")
endif()
