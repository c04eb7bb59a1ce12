# Runs one command and prints its exit status with its output, so that a
# ctest PASS_REGULAR_EXPRESSION can check both (ctest itself ignores the
# exit status of a test that sets one).
#
# Invoked by ctest as:
#   cmake -D EXE=<program> -D ARGS="<space-separated arguments>"
#         -P examples/run_with_status.cmake
#
# Prints "exit <status>: <stdout and stderr>".

if(NOT DEFINED EXE)
  message(FATAL_ERROR "run_with_status: pass -D EXE=... (and optionally -D ARGS=...)")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
# The timeout, below ctest's, kills a hung program instead of orphaning it.
execute_process(
  COMMAND "${EXE}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out
  TIMEOUT 25
)
message("exit ${rc}: ${out}")
