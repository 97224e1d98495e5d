# lint.one_fnv: fails when the 64-bit FNV prime appears in a file under
# SRC_DIR other than util/fnv.hpp, so that every checksum, digest and
# fingerprint in the library goes through the one FNV-1a defined there.
# Tests keep their own FNV loops on purpose: they are independent references.
#
#   cmake -DSRC_DIR=<checkout>/src -P tests/lint_one_fnv.cmake
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "lint.one_fnv: SRC_DIR '${SRC_DIR}' is not a directory")
endif()
file(GLOB_RECURSE files "${SRC_DIR}/*")
set(offenders "")
foreach(f IN LISTS files)
  if(f STREQUAL "${SRC_DIR}/util/fnv.hpp")
    continue()
  endif()
  # The prime in decimal or hex (0x100000001b3).
  file(STRINGS "${f}" hits REGEX "1099511628211|0[xX]0*100000001[bB]3")
  if(hits)
    list(APPEND offenders "${f}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " text)
  message(FATAL_ERROR
    "lint.one_fnv: the FNV prime outside util/fnv.hpp (use util/fnv.hpp):\n"
    "  ${text}")
endif()
