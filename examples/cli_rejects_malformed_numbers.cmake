# Runs fabricsim_cli once per malformed numeric flag; each run must exit
# 2 and print the usage line on stderr.
#
#   cmake -DCLI=<path to fabricsim_cli> -P cli_rejects_malformed_numbers.cmake
foreach(flag --block-size=abc --duration-s=abc --orgs=99999999999
             --rate=12abc --rate=-5)
  execute_process(COMMAND ${CLI} ${flag}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "${flag}: exit '${code}', stderr: ${err}")
  endif()
endforeach()
