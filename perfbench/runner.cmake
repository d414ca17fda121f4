# The benchmark runner target, read at the end of the repository's
# top-level CMakeLists through project_hook.cmake.
set(PERFBENCH_SRC "${PERFBENCH_SOURCE_DIR}/src")
add_executable(perfbench_runner
  ${PERFBENCH_SRC}/main.cpp
  ${PERFBENCH_SRC}/common.cpp
  ${PERFBENCH_SRC}/keys.cpp
  ${PERFBENCH_SRC}/cold_tune.cpp
  ${PERFBENCH_SRC}/daemon_mix.cpp
  ${PERFBENCH_SRC}/simulate.cpp
  ${PERFBENCH_SRC}/fleet_sweep.cpp)
set_target_properties(perfbench_runner PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
target_include_directories(perfbench_runner PRIVATE ${PERFBENCH_SRC})
target_link_libraries(perfbench_runner PRIVATE
  inplane_service inplane_distributed inplane_codegen inplane_autotune
  inplane_perfmodel inplane_kernels inplane_gpusim inplane_report inplane_core
  inplane_metrics Threads::Threads)
# -Wno-restrict: GCC 12 false positive in std::string concatenation (GCC
# bug 105651), as in the repository's own warning set.
target_compile_options(perfbench_runner PRIVATE -Wall -Wextra -Wno-restrict)
