# Writes OUT, a header defining PERF_PHY_GIT_SHA: the commit the source
# tree at SOURCE_DIR is on, with "-dirty" appended when tracked files
# differ from it, or "unknown" outside a git checkout. Run at every build
# of perf_phy; OUT is rewritten only when the value changes.
#   cmake -DSOURCE_DIR=<repo> -DOUT=<header> -P git_sha.cmake
set(sha "unknown")
# Only ask git inside a checkout, so it never searches parent directories.
if(EXISTS "${SOURCE_DIR}/.git")
  execute_process(
    COMMAND git -C "${SOURCE_DIR}" rev-parse HEAD
    OUTPUT_VARIABLE head OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE head_result ERROR_QUIET)
  if(head_result EQUAL 0 AND head)
    set(sha "${head}")
    execute_process(
      COMMAND git -C "${SOURCE_DIR}" diff --quiet HEAD --
      RESULT_VARIABLE diff_result ERROR_QUIET)
    if(NOT diff_result EQUAL 0)
      string(APPEND sha "-dirty")
    endif()
  endif()
endif()
set(text "#define PERF_PHY_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT text STREQUAL old)
  file(WRITE "${OUT}" "${text}")
endif()
