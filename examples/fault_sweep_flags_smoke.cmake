# CLI smoke test: netsim_cli's fault-sweep mode honours the engine
# flags. A --mesh 4x4 sweep and a --wavefront global sweep must each
# differ from the default (8x8, bit-plane) sweep. The load is high
# enough that the eviction-priority wavefront changes the outcome.
#
#   cmake -DCLI=path/to/netsim_cli -DOUT=dir -P fault_sweep_flags_smoke.cmake

function(run_sweep name)
    set(json "${OUT}/fault-sweep-${name}.json")
    execute_process(
        COMMAND "${CLI}" --config Optical4 --fault-sweep-out "${json}"
                --rate 0.3 --fault-steps 1 --measure 300 --threads 1
                ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fault sweep '${name}' exited with ${rc}")
    endif()
    file(READ "${json}" text)
    set(sweep_${name} "${text}" PARENT_SCOPE)
endfunction()

run_sweep(default)
run_sweep(mesh4x4 --mesh 4x4)
run_sweep(global --wavefront global)

foreach(name mesh4x4 global)
    if(sweep_${name} STREQUAL sweep_default)
        message(FATAL_ERROR
                "the '${name}' fault sweep is identical to the default "
                "one: its engine flag was ignored")
    endif()
endforeach()
