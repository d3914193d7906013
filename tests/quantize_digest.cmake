# The QuantizerBuildFlags test (tests/CMakeLists.txt): the three long double
# builds of quantize_digest must print one digest, and the contraction build
# must pass its oracle check with and without FTZ/DAZ.
function(run_digest exe)
  execute_process(COMMAND ${exe} ${ARGN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  message("${exe} ${ARGN}\n${out}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${exe} ${ARGN} exited with ${rc}")
  endif()
  string(REGEX MATCH "digest [0-9a-f]+" digest "${out}")
  set(digest "${digest}" PARENT_SCOPE)
endfunction()

run_digest(${LD80} --check)
set(d80 "${digest}")
run_digest(${LD64})
set(d64 "${digest}")
run_digest(${LD128})
if(NOT d80 OR NOT d64 STREQUAL d80 OR NOT digest STREQUAL d80)
  message(FATAL_ERROR "long double width changed the words: 80: ${d80}, 64: ${d64}, 128: ${digest}")
endif()
run_digest(${FAST} --check)
run_digest(${FAST} --check --ftz)
