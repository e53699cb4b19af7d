# Writes OUTPUT, a header that defines PJOIN_GIT_SHA as the short sha of the
# checkout holding SOURCE_DIR, or "unknown" outside a git checkout. Run as a
# script (cmake -DSOURCE_DIR=... -DOUTPUT=... -P git_sha.cmake). The file is
# rewritten only when its content changes, so an unchanged sha recompiles
# nothing.

execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE status
  ERROR_QUIET
)
if(NOT status EQUAL 0 OR NOT sha)
  set(sha "unknown")
endif()

set(content "#define PJOIN_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUTPUT} "${content}")
endif()
