# Sanitizer and analysis build wiring.
#
# MRSCAN_SANITIZE is a semicolon-separated list drawn from
#   address, undefined, thread, leak
# applied to every target in the tree (src/, tests/, bench/, examples/)
# via global compile and link options, so the whole test suite runs
# instrumented. The CMakePresets.json presets (asan, ubsan, asan-ubsan,
# tsan) are the intended entry points; see scripts/check.sh for the
# driver that runs the full matrix.

set(MRSCAN_SANITIZE "" CACHE STRING
    "Semicolon-separated sanitizers to enable: address;undefined;thread;leak")

function(mrscan_enable_sanitizers)
  if(NOT MRSCAN_SANITIZE)
    return()
  endif()

  set(_valid address undefined thread leak)
  set(_flags "")
  foreach(san IN LISTS MRSCAN_SANITIZE)
    if(NOT san IN_LIST _valid)
      message(FATAL_ERROR "Unknown sanitizer '${san}' in MRSCAN_SANITIZE "
                          "(valid: ${_valid})")
    endif()
    list(APPEND _flags "-fsanitize=${san}")
  endforeach()

  if("thread" IN_LIST MRSCAN_SANITIZE AND
     ("address" IN_LIST MRSCAN_SANITIZE OR "leak" IN_LIST MRSCAN_SANITIZE))
    message(FATAL_ERROR
            "thread sanitizer cannot be combined with address/leak")
  endif()

  # Keep stacks readable and make every report fatal: a sanitizer finding
  # must fail the test run, not scroll past it. GCC's -fsanitize=undefined
  # leaves out float-cast-overflow (an out-of-range double -> int cast),
  # so it is named explicitly.
  list(APPEND _flags -fno-omit-frame-pointer -g)
  if("undefined" IN_LIST MRSCAN_SANITIZE)
    list(APPEND _flags -fsanitize=float-cast-overflow
                       -fno-sanitize-recover=all)
  endif()

  add_compile_options(${_flags})
  add_link_options(${_flags})
  message(STATUS "mrscan: sanitizers enabled: ${MRSCAN_SANITIZE}")
endfunction()
