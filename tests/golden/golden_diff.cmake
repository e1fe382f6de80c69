# Runs one simulator binary and fails unless it exits 0 and its stdout is
# byte-identical to a committed golden file; a mismatch prints the diff.
#
#   cmake -DEXE=<binary> [-DARGS="<arg> <arg> ..."] -DGOLDEN=<file>
#         -DOUT=<file> -P golden_diff.cmake
#
# stderr (log lines) is not compared; it is shown on failure.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")

execute_process(COMMAND "${EXE}" ${args}
  OUTPUT_FILE "${OUT}"
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE differs)

set(why "")
if(NOT rc EQUAL 0)
  string(APPEND why " exited with ${rc};")
endif()
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}")
  string(APPEND why " stdout differs from ${GOLDEN};")
endif()
if(why)
  message(FATAL_ERROR "${EXE} ${ARGS}:${why}\n${err}")
endif()
