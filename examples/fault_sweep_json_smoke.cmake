# CLI smoke test: a default-size fault sweep writes JSON that parses.
# Point records with long counters once overflowed a fixed formatting
# buffer, which cut the record short and broke the file.
#
#   cmake -DCLI=path/to/netsim_cli -DPYTHON=path/to/python3 -DOUT=dir
#         -P fault_sweep_json_smoke.cmake

set(json "${OUT}/fault-sweep-missed-receive.json")
file(REMOVE "${json}")
execute_process(
    COMMAND "${CLI}" --config Optical4 --fault-sweep-out "${json}"
            --fault-field missedReceiveRate
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault sweep exited with ${rc}")
endif()
execute_process(
    COMMAND "${PYTHON}" -c
            "import json, sys; json.load(open(sys.argv[1]))" "${json}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${json} is not valid JSON")
endif()
