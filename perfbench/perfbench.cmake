# Build file of the end-to-end benchmark.  It is injected into the
# repository's own CMake project, so the OneSpec libraries are built
# exactly as a user builds them; only the targets the benchmark links
# are compiled when building the `perfbench` target:
#
#   cmake -S . -B <dir> -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_onespec_INCLUDE=perfbench/perfbench.cmake
#   cmake --build <dir> --target perfbench -j
#
# The include runs at the end of the root project() call; the target is
# added once the root CMakeLists.txt has finished, so it gets the same
# language standard and compile options as the repository's own targets.
include_guard(GLOBAL)
if(CMAKE_VERSION VERSION_LESS 3.19)
    message(FATAL_ERROR "perfbench needs CMake >= 3.19 (cmake_language DEFER)")
endif()

set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_target)
    add_executable(perfbench EXCLUDE_FROM_ALL
        ${PERFBENCH_DIR}/main.cpp
        ${PERFBENCH_DIR}/common.cpp
        ${PERFBENCH_DIR}/setup.cpp
        ${PERFBENCH_DIR}/timing_orgs.cpp
        ${PERFBENCH_DIR}/ckpt_sampling.cpp
        ${PERFBENCH_DIR}/service_preempt.cpp
    )
    target_include_directories(perfbench PRIVATE ${CMAKE_SOURCE_DIR}/src)
    target_link_libraries(perfbench PRIVATE
        onespec_service onespec_parallel onespec_timing onespec_isa
        onespec_workload onespec_ckpt onespec_stats
        "$<LINK_LIBRARY:WHOLE_ARCHIVE,onespec_gen>")
endfunction()

cmake_language(DEFER CALL perfbench_add_target)
