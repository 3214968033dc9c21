# Reachability guard: every header under src/ must be included by some
# file other than its own .cpp, in src/, tools/, perfbench/, bench/ or
# examples/. Tests do not count: a module that only its own test reaches
# is code no measured result depends on.
#
#   cmake -DROOT=<repo root> -P tests/check_reachability.cmake
#
# Fails naming each unreached header.
if(NOT ROOT)
  message(FATAL_ERROR "check_reachability: pass -DROOT=<repo root>")
endif()

file(GLOB_RECURSE headers RELATIVE ${ROOT}/src ${ROOT}/src/*.hpp)
set(reachers)
foreach(dir src tools perfbench bench examples)
  file(GLOB_RECURSE found ${ROOT}/${dir}/*.hpp ${ROOT}/${dir}/*.cpp)
  list(APPEND reachers ${found})
endforeach()

set(reached)
foreach(f ${reachers})
  file(RELATIVE_PATH rel ${ROOT}/src ${f})
  # A module's own .cpp does not reach its header.
  string(REGEX REPLACE "\\.cpp$" ".hpp" own ${rel})
  file(STRINGS ${f} lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line ${lines})
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*" "\\1" inc "${line}")
    if(NOT inc STREQUAL own)
      list(APPEND reached ${inc})
    endif()
  endforeach()
endforeach()

set(orphans)
foreach(h ${headers})
  list(FIND reached ${h} ix)
  if(ix EQUAL -1)
    list(APPEND orphans ${h})
  endif()
endforeach()

if(orphans)
  list(JOIN orphans "\n  src/" listing)
  message(FATAL_ERROR "headers included by nothing but their own .cpp "
                      "and tests:\n  src/${listing}")
endif()
list(LENGTH headers n)
message(STATUS "all ${n} src/ headers are reached")
