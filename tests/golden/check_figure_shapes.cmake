# Figure shape golden: assert the paper's claims on the figure CSVs,
# not their bytes. The byte goldens (check_figures.cmake) tie each
# harness to these files; this check ties the files to the paper, so a
# re-baseline that breaks a claim fails even after the bytes are
# regenerated.
#
# Invoked with -DGOLDEN_DIR=<directory holding the figure CSVs>.

cmake_minimum_required(VERSION 3.16)

set(failures "")

# Read <csv> into <header_out> (its column names) and <lines_out> (its
# data rows, unsplit).
function(read_csv csv header_out lines_out)
    file(STRINGS "${GOLDEN_DIR}/${csv}" lines)
    list(POP_FRONT lines header)
    string(REPLACE "," ";" header "${header}")
    set(${header_out} "${header}" PARENT_SCOPE)
    set(${lines_out} "${lines}" PARENT_SCOPE)
endfunction()

# Strip a trailing "%" (ratios) or "x" (compute-power factors) so the
# value compares as a number.
function(numeric value out)
    string(REGEX REPLACE "[%x]$" "" v "${value}")
    set(${out} "${v}" PARENT_SCOPE)
endfunction()

# Set <out> to the values of column <column> of <csv>, in row order.
function(csv_column csv column out)
    read_csv(${csv} header lines)
    list(FIND header "${column}" idx)
    if(idx LESS 0)
        message(FATAL_ERROR "${csv}: no column '${column}'")
    endif()
    set(values "")
    foreach(line IN LISTS lines)
        string(REPLACE "," ";" fields "${line}")
        list(GET fields ${idx} v)
        numeric("${v}" v)
        list(APPEND values "${v}")
    endforeach()
    set(${out} "${values}" PARENT_SCOPE)
endfunction()

# Set <out> to the name of the column holding the smallest (MIN) or
# largest (MAX) value in the row of <csv> whose first field is <key>.
function(csv_extreme csv key which out)
    read_csv(${csv} header lines)
    set(row "")
    foreach(line IN LISTS lines)
        string(REPLACE "," ";" fields "${line}")
        list(GET fields 0 first)
        if(first STREQUAL key)
            set(row "${fields}")
        endif()
    endforeach()
    if(NOT row)
        message(FATAL_ERROR "${csv}: no row '${key}'")
    endif()
    list(LENGTH header n)
    math(EXPR last "${n} - 1")
    list(GET row 1 best)
    list(GET header 1 best_col)
    foreach(i RANGE 2 ${last})
        list(GET row ${i} v)
        if((which STREQUAL "MIN" AND v LESS best) OR
           (which STREQUAL "MAX" AND v GREATER best))
            set(best "${v}")
            list(GET header ${i} best_col)
        endif()
    endforeach()
    set(${out} "${best_col}" PARENT_SCOPE)
endfunction()

# Record a failure unless <ys> rises with <xs> (which must rise): never
# falls for NONDECREASING, strictly rises for INCREASING.
function(check_rising what xs ys mode)
    list(LENGTH xs n)
    math(EXPR last "${n} - 1")
    foreach(i RANGE 1 ${last})
        math(EXPR p "${i} - 1")
        list(GET xs ${p} x0)
        list(GET xs ${i} x1)
        list(GET ys ${p} y0)
        list(GET ys ${i} y1)
        if(NOT x1 GREATER x0)
            message(FATAL_ERROR "${what}: rows not in rising order "
                                "(${x0} then ${x1})")
        endif()
        if(y1 LESS y0 OR (mode STREQUAL "INCREASING" AND y1 EQUAL y0))
            list(APPEND failures
                 "${what}: ${y0} at ${x0} but ${y1} at ${x1}")
        endif()
    endforeach()
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

# Set <out> to the byte counts of the "size" column of <csv> ("32KB",
# "2MB", ...), and fail unless they strictly rise row by row, so the
# first row is the smallest size and the last the largest.
function(csv_sizes csv out)
    csv_column(${csv} size labels)
    set(values "")
    set(prev -1)
    foreach(label IN LISTS labels)
        if(NOT label MATCHES "^([0-9]+)(B|KB|MB|GB)$")
            message(FATAL_ERROR "${csv}: size '${label}' is not <n>B/KB/MB/GB")
        endif()
        set(units B KB MB GB)
        list(FIND units "${CMAKE_MATCH_2}" power)
        math(EXPR n "${CMAKE_MATCH_1} << (10 * ${power})")
        if(NOT n GREATER prev)
            message(FATAL_ERROR "${csv}: sizes not in rising order at ${label}")
        endif()
        set(prev "${n}")
        list(APPEND values "${n}")
    endforeach()
    set(${out} "${values}" PARENT_SCOPE)
endfunction()

# Record a failure for every value of <ys> that is not <op> (LESS or
# GREATER) <bound>; <labels> names the rows in the message.
function(check_each what labels ys op bound)
    list(LENGTH ys n)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
        list(GET labels ${i} label)
        list(GET ys ${i} y)
        if(NOT y ${op} bound)
            string(TOLOWER "${op}" rel)
            list(APPEND failures "${what}: ${y} at ${label}, not ${rel} than ${bound}")
        endif()
    endforeach()
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

# Fig. 9 all-to-all: the alltoall topology beats the torus at every
# size.
csv_column(fig09_ALLTOALL.csv size labels)
csv_column(fig09_ALLTOALL.csv alltoall/torus ratio)
check_each("Fig. 9 all-to-all alltoall/torus" "${labels}" "${ratio}"
           LESS 1)

# Fig. 9 all-reduce: the alltoall topology wins at the smallest size
# and the torus at the largest (the switch links queue as size grows).
csv_sizes(fig09_ALLREDUCE.csv sizes)
csv_column(fig09_ALLREDUCE.csv size labels)
csv_column(fig09_ALLREDUCE.csv alltoall_cycles a2a)
csv_column(fig09_ALLREDUCE.csv torus_cycles torus)
list(GET labels 0 small)
list(GET a2a 0 a2a_small)
list(GET torus 0 torus_small)
list(GET labels -1 large)
list(GET a2a -1 a2a_large)
list(GET torus -1 torus_large)
if(NOT a2a_small LESS torus_small)
    list(APPEND failures
         "Fig. 9 all-reduce at ${small}: alltoall ${a2a_small} cycles, not below torus ${torus_small}")
endif()
if(NOT torus_large LESS a2a_large)
    list(APPEND failures
         "Fig. 9 all-reduce at ${large}: torus ${torus_large} cycles, not below alltoall ${a2a_large}")
endif()

# Fig. 11 all-to-all: the asymmetric package beats the symmetric one
# at every size.
csv_column(fig11_alltoall.csv size labels)
csv_column(fig11_alltoall.csv speedup speedup)
check_each("Fig. 11 all-to-all speedup" "${labels}" "${speedup}" GREATER 1)

# Fig. 11 all-reduce: the asymmetric 3-phase baseline beats the
# symmetric one at every size, and the enhanced 4-phase algorithm's
# speedup over it is above 1 and never falls as the size grows.
csv_sizes(fig11_allreduce.csv sizes)
csv_column(fig11_allreduce.csv size labels)
csv_column(fig11_allreduce.csv sym_baseline sym)
csv_column(fig11_allreduce.csv "asym_baseline(3ph)" asym)
list(LENGTH sym n)
math(EXPR last "${n} - 1")
foreach(i RANGE ${last})
    list(GET labels ${i} label)
    list(GET sym ${i} s)
    list(GET asym ${i} a)
    if(NOT a LESS s)
        list(APPEND failures
             "Fig. 11 all-reduce at ${label}: asym_baseline(3ph) ${a}, not below sym_baseline ${s}")
    endif()
endforeach()
csv_column(fig11_allreduce.csv enh_speedup enh)
check_each("Fig. 11 all-reduce enh_speedup" "${labels}" "${enh}" GREATER 1)
check_rising("Fig. 11 all-reduce enh_speedup" "${sizes}" "${enh}"
             NONDECREASING)

# Fig. 17: the exposed-communication share does not shrink as the
# system grows.
csv_column(fig17_size_scaling.csv npus npus)
csv_column(fig17_size_scaling.csv exposed_comm_ratio exposed)
check_rising("Fig. 17 exposed_comm_ratio" "${npus}" "${exposed}"
             NONDECREASING)

# Fig. 18: faster compute exposes more communication, from under 1% at
# 0.5x to over 50% at 4x.
csv_column(fig18_compute_power.csv compute_power power)
csv_column(fig18_compute_power.csv exposed_comm_ratio exposed)
check_rising("Fig. 18 exposed_comm_ratio" "${power}" "${exposed}"
             INCREASING)
list(FIND power "0.5" at_half)
list(FIND power "4.0" at_four)
if(at_half LESS 0 OR at_four LESS 0)
    message(FATAL_ERROR "fig18_compute_power.csv: no 0.5x or 4.0x row")
endif()
list(GET exposed ${at_half} half)
list(GET exposed ${at_four} four)
if(NOT half LESS 1)
    list(APPEND failures "Fig. 18 at 0.5x: ${half}%, not under 1%")
endif()
if(NOT four GREATER 50)
    list(APPEND failures "Fig. 18 at 4.0x: ${four}%, not over 50%")
endif()

# Fig. 10: small all-reduces favour the balanced 3D torus and punish
# the 64-node ring; at 4MB the ring's bandwidth wins.
foreach(claim "64KB;MIN;4x4x4" "64KB;MAX;1x64x1" "4MB;MIN;1x64x1")
    list(GET claim 0 size)
    list(GET claim 1 which)
    list(GET claim 2 want)
    csv_extreme(fig10_allreduce.csv ${size} ${which} got)
    if(NOT got STREQUAL want)
        list(APPEND failures "Fig. 10 at ${size}: ${which} is ${got}, not ${want}")
    endif()
endforeach()

# Fig. 16: FIFO and LIFO scheduling finish ResNet-50 at the same tick
# (the fast local dimension drains each layer before the next arrives).
csv_column(fig16_makespan.csv policy policies)
csv_column(fig16_makespan.csv makespan_cycles makespans)
list(FIND policies "FIFO" at_fifo)
list(FIND policies "LIFO" at_lifo)
if(at_fifo LESS 0 OR at_lifo LESS 0)
    message(FATAL_ERROR "fig16_makespan.csv: no FIFO or LIFO row")
endif()
list(GET makespans ${at_fifo} fifo)
list(GET makespans ${at_lifo} lifo)
if(NOT fifo EQUAL lifo)
    list(APPEND failures
         "Fig. 16 makespan: FIFO ${fifo} cycles, LIFO ${lifo} cycles")
endif()

if(failures)
    list(JOIN failures "\n  " text)
    message(FATAL_ERROR "figure CSVs in ${GOLDEN_DIR} break the paper's "
                        "claims:\n  ${text}")
endif()
