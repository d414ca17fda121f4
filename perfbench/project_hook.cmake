# Included right after the repository's project() call
# (-DCMAKE_PROJECT_INCLUDE=<this file>, as run.py configures it).  It
# defers reading runner.cmake until the repository's CMakeLists has
# declared every library target, so the runner links exactly what the
# tools link and the repository's build files stay untouched.
set(PERFBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${PERFBENCH_SOURCE_DIR}/runner.cmake")
