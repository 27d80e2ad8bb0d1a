# Differential check of a generated trace analyzer against the CLI: runs
# `<TOOL> <trace> --order=<o> --verbose [<extra>]` and `<TANGO> analyze
# builtin:<SPEC>` with the same arguments on every traces/<SPEC>_*.tr
# under each order preset, alone and with initial-state search or a
# transition budget, and fails unless the exit codes and the printed
# verdict, reason, stats, solution and note lines agree (the stats' cpu
# time aside).
#
#   cmake -DTOOL=<path> -DTANGO=<path> -DSPEC=<name> -DTRACES=<dir>
#         -P generated_tam_diff.cmake
file(GLOB traces "${TRACES}/${SPEC}_*.tr")
if(NOT traces)
  message(FATAL_ERROR "no ${SPEC}_*.tr under ${TRACES}")
endif()

set(runs 0)
foreach(trace IN LISTS traces)
  foreach(order none io ip full)
    foreach(extra "" --initial-state-search --max-transitions=4)
      set(args ${trace} --order=${order} --verbose ${extra})
      string(JOIN " " shown ${args})
      execute_process(COMMAND ${TOOL} ${args}
        RESULT_VARIABLE tool_rc OUTPUT_VARIABLE tool_out ERROR_QUIET)
      execute_process(COMMAND ${TANGO} analyze builtin:${SPEC} ${args}
        RESULT_VARIABLE tango_rc OUTPUT_VARIABLE tango_out ERROR_QUIET)
      string(REGEX REPLACE "cpu=[0-9.]+s" "cpu=" tool_out "${tool_out}")
      string(REGEX REPLACE "cpu=[0-9.]+s" "cpu=" tango_out "${tango_out}")
      if(NOT tango_out MATCHES "^verdict: [a-z]+\n")
        message(SEND_ERROR "tango analyze ${shown}: no verdict\n${tango_out}")
      elseif(NOT tool_rc STREQUAL tango_rc OR
             NOT tool_out STREQUAL tango_out)
        message(SEND_ERROR "${TOOL} ${shown}: exit ${tool_rc}\n${tool_out}"
                           "tango analyze: exit ${tango_rc}\n${tango_out}")
      endif()
      math(EXPR runs "${runs} + 1")
    endforeach()
  endforeach()
endforeach()
message(STATUS "${SPEC}: ${runs} runs agree with tango analyze")
