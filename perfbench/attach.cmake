# Attaches the benchmark to the repository's own build without editing it:
#
#   cmake -S . -B .bench_build \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/perfbench/attach.cmake
#   cmake --build .bench_build --target perfbench
#
# CMake includes this file right after the top-level project() call. The
# deferred include of perfbench/CMakeLists.txt runs once the top-level
# CMakeLists.txt has declared every library target, so the benchmark links
# the libraries as the repository builds them: same build type, flags and
# options. (CMake allows no add_subdirectory during deferred execution.)
include_guard(GLOBAL)
set(PERFBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_SOURCE_DIR}/CMakeLists.txt")
