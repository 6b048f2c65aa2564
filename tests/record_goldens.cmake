# Record-bytes guard: run the benchmark's two pinned cells through the
# CLI and compare each JSON record byte for byte with its golden under
# perfbench/golden/ (read, never rewritten). A counter registered by
# mistake, or any drift in simulated results, fails here.
#
#   cmake -DCLI=build/gpulat -DGOLDEN_DIR=perfbench/golden \
#         -DOUT_DIR=build -P tests/record_goldens.cmake

foreach(var CLI GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "record_goldens.cmake needs -D${var}=...")
  endif()
endforeach()

# workload | input seed | engine.tickJobs | golden directory
set(cells "bfs|1|1|bfs_latency" "gemm|10|2|gemm_tj2")

foreach(cell IN LISTS cells)
  string(REPLACE "|" ";" fields "${cell}")
  list(GET fields 0 workload)
  list(GET fields 1 seed)
  list(GET fields 2 jobs)
  list(GET fields 3 dir)
  set(golden "${GOLDEN_DIR}/${dir}/seed-${seed}.json")
  set(out "${OUT_DIR}/record-${dir}-seed-${seed}.json")

  execute_process(
    COMMAND "${CLI}" run --workload ${workload} seed=${seed}
            --set engine.tickJobs=${jobs} --json "${out}" --no-table
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpulat run ${workload} seed=${seed} exited ${rc}")
  endif()

  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}" "${golden}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${out} differs from ${golden}")
  endif()
  message(STATUS "${dir} seed ${seed}: record matches its golden")
endforeach()
