# CLI test for iodb_pack and the --db-snapshot flags of iodb_eval and
# iodb_replay, run via ctest as
#   cmake -DIODB_PACK=<bin> -DIODB_EVAL=<bin> -DIODB_SERVE=<bin>
#         -DIODB_REPLAY=<bin> -DWORK_DIR=<dir> -P iodb_pack_test.cmake
#
# pack -> inspect -> unpack must round-trip; iodb_eval and iodb_replay
# must answer from the snapshot without the text parser; compact must
# fold a registry WAL into its snapshot; and every malformed input must
# exit 2 with a diagnostic, never crash.

if(NOT DEFINED IODB_PACK OR NOT DEFINED IODB_EVAL OR NOT DEFINED IODB_SERVE
   OR NOT DEFINED IODB_REPLAY OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DIODB_PACK/-DIODB_EVAL/-DIODB_SERVE/"
    "-DIODB_REPLAY=<binary> -DWORK_DIR=<dir>")
endif()

set(db_txt "${WORK_DIR}/iodb_pack_cli.db.txt")
set(db_snap "${WORK_DIR}/iodb_pack_cli.db.snap")
set(query "exists t1 t2: P(t1) & t1 < t2 & Q(t2)")
file(WRITE "${db_txt}" "P(u)
Q(v)
u < v
")

# --- pack -------------------------------------------------------------------
execute_process(COMMAND ${IODB_PACK} pack "${db_txt}" "${db_snap}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT "${out}" MATCHES "packed .* \\(.* bytes, 3 atoms\\)")
  message(FATAL_ERROR "iodb_pack pack: exit ${rc}\n${out}\n${err}")
endif()

# --- inspect ----------------------------------------------------------------
execute_process(COMMAND ${IODB_PACK} inspect "${db_snap}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "iodb_pack inspect: exit ${rc}\n${err}")
endif()
foreach(pattern
    "format-version +2"
    "predicates +2"
    "order-constants +2"
    "proper-atoms +2"
    "order-atoms +1"
    "section vocabulary "
    "section fact-segments "
    "section identity "
    "section statistics "
    "statistics +persisted \\(fresh\\)"
    "order-graph +points=2")
  if(NOT "${out}" MATCHES "${pattern}")
    message(FATAL_ERROR "inspect output missing '${pattern}':\n${out}")
  endif()
endforeach()

# --- unpack: back to text, still the same database --------------------------
set(unpacked "${WORK_DIR}/iodb_pack_cli.unpacked.txt")
execute_process(COMMAND ${IODB_PACK} unpack "${db_snap}" "${unpacked}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "iodb_pack unpack: exit ${rc}\n${err}")
endif()
file(READ "${unpacked}" unpacked_text)
if(NOT "${unpacked_text}" MATCHES "pred P\\(order\\)"
   OR NOT "${unpacked_text}" MATCHES "u < v")
  message(FATAL_ERROR "unpack output unexpected:\n${unpacked_text}")
endif()
execute_process(COMMAND ${IODB_EVAL} "${unpacked}" "${query}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT "${out}" MATCHES "^ENTAILED")
  message(FATAL_ERROR "eval of unpacked text: exit ${rc}\n${out}\n${err}")
endif()

# unpack(pack(unpack(snap))) is textually stable.
set(repacked "${WORK_DIR}/iodb_pack_cli.repacked.snap")
set(reunpacked "${WORK_DIR}/iodb_pack_cli.reunpacked.txt")
execute_process(COMMAND ${IODB_PACK} pack "${unpacked}" "${repacked}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "re-pack: exit ${rc}\n${err}")
endif()
execute_process(COMMAND ${IODB_PACK} unpack "${repacked}" "${reunpacked}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(READ "${reunpacked}" reunpacked_text)
if(NOT rc EQUAL 0 OR NOT "${reunpacked_text}" STREQUAL "${unpacked_text}")
  message(FATAL_ERROR "unpack/pack/unpack not stable:\n--- first ---\n"
    "${unpacked_text}\n--- second ---\n${reunpacked_text}")
endif()

# --- iodb_eval --db-snapshot ------------------------------------------------
execute_process(COMMAND ${IODB_EVAL} --db-snapshot=${db_snap} "${query}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT "${out}" MATCHES "^ENTAILED")
  message(FATAL_ERROR "iodb_eval --db-snapshot: exit ${rc}\n${out}\n${err}")
endif()
execute_process(COMMAND ${IODB_EVAL} --db-snapshot=${db_snap}
    "exists t1 t2: Q(t1) & t1 < t2 & P(t2)"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT "${out}" MATCHES "^NOT ENTAILED")
  message(FATAL_ERROR
    "iodb_eval --db-snapshot negative: exit ${rc}\n${out}\n${err}")
endif()

# --- iodb_replay --db-snapshot ----------------------------------------------
set(script "${WORK_DIR}/iodb_pack_cli.replay")
file(WRITE "${script}" "EVAL snapdb ${query}\n")
execute_process(COMMAND ${IODB_REPLAY} "${script}"
    --db-snapshot=snapdb=${db_snap}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0
   OR NOT "${out}" MATCHES "replayed 1 request"
   OR NOT "${out}" MATCHES "verdicts: 1 entailed, 0 not entailed, 0 error")
  message(FATAL_ERROR "iodb_replay --db-snapshot: exit ${rc}\n${out}\n${err}")
endif()

# --- compact ----------------------------------------------------------------
# Build a registry with a WAL via a scripted iodb_serve session, then
# fold the log and check the restarted server still sees the appends.
set(store "${WORK_DIR}/iodb_pack_cli.store")
file(REMOVE_RECURSE "${store}")
set(session "${WORK_DIR}/iodb_pack_cli.session")
file(WRITE "${session}" "LOAD base
P(u)
Q(v)
u < v
END
APPEND base
R(w)
v < w
END
QUIT
")
execute_process(COMMAND ${IODB_SERVE} --data-dir=${store}
  INPUT_FILE "${session}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve session for compact: exit ${rc}\n${out}\n${err}")
endif()
file(SIZE "${store}/base.wal" wal_before)
execute_process(COMMAND ${IODB_PACK} compact "${store}" base
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT "${out}" MATCHES "compacted db=base atoms=5")
  message(FATAL_ERROR "iodb_pack compact: exit ${rc}\n${out}\n${err}")
endif()
file(SIZE "${store}/base.wal" wal_after)
if(NOT wal_after LESS wal_before)
  message(FATAL_ERROR
    "compact did not shrink the WAL (${wal_before} -> ${wal_after})")
endif()
set(check "${WORK_DIR}/iodb_pack_cli.check")
file(WRITE "${check}" "EVAL base exists t: R(t)
QUIT
")
execute_process(COMMAND ${IODB_SERVE} --data-dir=${store}
  INPUT_FILE "${check}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT "${out}" MATCHES "ENTAILED")
  message(FATAL_ERROR "post-compact restart: exit ${rc}\n${out}\n${err}")
endif()

# --- malformed inputs exit 2 ------------------------------------------------
execute_process(COMMAND ${IODB_PACK} inspect "${db_txt}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "magic")
  message(FATAL_ERROR "inspect of text file: exit ${rc}, want 2\n${err}")
endif()
execute_process(COMMAND ${IODB_EVAL} --db-snapshot=${db_txt} "${query}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "snapshot")
  message(FATAL_ERROR
    "iodb_eval --db-snapshot of text file: exit ${rc}, want 2\n${err}")
endif()
execute_process(COMMAND ${IODB_PACK} frobnicate
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "unknown command")
  message(FATAL_ERROR "iodb_pack frobnicate: exit ${rc}, want 2\n${err}")
endif()
execute_process(COMMAND ${IODB_PACK} compact "${store}" nosuchdb
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT "${err}" MATCHES "unknown database")
  message(FATAL_ERROR "compact unknown db: exit ${rc}, want 2\n${err}")
endif()

message(STATUS "iodb_pack CLI test passed")
